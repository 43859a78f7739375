#!/usr/bin/env python3
"""Steadiness report and baseline comparison for the repository benchmark.

Steadiness: run every workload of BENCHMARK.json N times, each with its own
seed, and report for every end-to-end metric the median, the quartiles and
the spread (quartile distance over median) against the metric's bound:

    python3 perfbench/steady.py --runs 10 --out steadiness.json

Comparison: given two reports, check every (workload, metric) median of
the second against the first. Reports whose host fingerprints differ are
incomparable and never a regression:

    python3 perfbench/steady.py --compare base.json new.json

Run from the repository root.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time

SPEC = "BENCHMARK.json"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.time() - t0
    if p.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), p.returncode,
                                                 p.stderr[-2000:]))
    lines = p.stdout.strip().splitlines()
    fingerprint = None
    for line in lines:
        if line.startswith("host: "):
            fingerprint = json.loads(line[len("host: "):])
    result = json.loads(lines[-1])
    # The host's steal share per iteration, as the program prints it.
    steal = [float(x) for x in re.findall(r"host steal ([\d.]+)%", p.stdout)]
    return fingerprint, result, elapsed, steal


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def steadiness(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"fingerprint": None, "runs": args.runs,
              "seed_base": args.seed_base, "workloads": {}}
    ok = True
    for w in workloads:
        per_metric = {}
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            fp, res, elapsed, steal = run_once(spec, w, seed)
            report["fingerprint"] = report["fingerprint"] or fp
            if fp["host"] != report["fingerprint"]["host"]:
                raise RuntimeError("host fingerprint changed during the runs")
            runs.append({"seed": seed, "elapsed_s": elapsed,
                         "correct": res["correct"],
                         "attempted": res["attempted"],
                         "failed": res["failed"],
                         "steal_pct": statistics.median(steal) if steal else 0.0})
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print("%s seed %d: %.1f s, steal %.1f%%, correct %s, failed %d/%d, %s" % (
                w, seed, elapsed, runs[-1]["steal_pct"], res["correct"], res["failed"],
                res["attempted"],
                ", ".join("%s=%.6g" % (k, v["value"])
                          for k, v in res["metrics"].items())), flush=True)
        metrics = {}
        for e in spec["end_to_end"]:
            s = summarize(per_metric[e["name"]])
            s["bound"] = e["bound"]
            s["unit"] = e["unit"]
            s["better"] = e["better"]
            # setup_s is judged on its median only (see README.md).
            s["steady"] = e["name"] == "setup_s" or s["spread"] < e["bound"] / 3
            metrics[e["name"]] = s
        report["workloads"][w] = {"runs": runs, "metrics": metrics}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    print_report(report)
    if args.markdown:
        write_markdown(report, args.markdown)
    return 0 if ok else 1


def report_rows(report):
    for w, data in report["workloads"].items():
        for name, s in data["metrics"].items():
            verdict = "steady" if s["steady"] else "UNSTEADY"
            if name == "setup_s":
                verdict = "median only"
            yield w, name, s, verdict


def print_report(report):
    print("host %s" % json.dumps(report["fingerprint"], sort_keys=True))
    print("%-13s %-14s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound",
        "verdict"))
    for w, name, s, verdict in report_rows(report):
        print("%-13s %-14s %12.6g %12.6g %12.6g %8.4f %6.2f  %s" % (
            w, name, s["q1"], s["median"], s["q3"], s["spread"], s["bound"],
            verdict))


def write_markdown(report, path):
    """The report as a markdown table (STEADINESS.md)."""
    out = ["# Steadiness report", "",
           "`python3 perfbench/steady.py --runs %d --seed-base %d`, one run "
           "per seed." % (report["runs"], report["seed_base"]), "",
           "Host: `%s`" % json.dumps(report["fingerprint"], sort_keys=True),
           "",
           "Spread is (q3 - q1) / median over the runs; a metric is steady "
           "when its spread is below a third of its bound. `setup_s` is "
           "judged on its median only.", "",
           "| workload | metric | q1 | median | q3 | spread | bound | "
           "verdict |", "|---|---|---|---|---|---|---|---|"]
    for w, name, s, verdict in report_rows(report):
        out.append("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.2f | %s |" % (
            w, name, s["q1"], s["median"], s["q3"], s["spread"], s["bound"],
            verdict))
    out += ["", "Runs (seconds each, median host steal of the iterations, "
            "correct outputs, failed of attempted requests):", ""]
    for w, data in report["workloads"].items():
        out.append("- %s: %s" % (w, ", ".join(
            "seed %d %.0f s steal %.1f%% %s %d/%d" % (
                r["seed"], r["elapsed_s"], r.get("steal_pct", 0.0),
                "correct" if r["correct"] else "INCORRECT", r["failed"],
                r["attempted"])
            for r in data["runs"])))
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


def compare(args):
    with open(args.compare[0]) as f:
        base = json.load(f)
    with open(args.compare[1]) as f:
        new = json.load(f)
    if base["fingerprint"]["host"] != new["fingerprint"]["host"]:
        print("incomparable: host fingerprints differ\n  base %s\n  new  %s" % (
            json.dumps(base["fingerprint"]["host"], sort_keys=True),
            json.dumps(new["fingerprint"]["host"], sort_keys=True)))
        return 0
    regressed = False
    for w, data in new["workloads"].items():
        if w not in base["workloads"]:
            print("%s: not in the base report" % w)
            continue
        for name, s in data["metrics"].items():
            b = base["workloads"][w]["metrics"].get(name)
            if b is None:
                continue
            change = (s["median"] - b["median"]) / b["median"]
            worse = change if s["better"] == "lower" else -change
            if worse > s["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif max(b["spread"], s["spread"]) > s["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "ok"
            print("%-13s %-14s base %12.6g new %12.6g change %+7.2f%%  %s" % (
                w, name, b["median"], s["median"], 100 * change, verdict))
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--out", default=".bench_run/steadiness.json")
    p.add_argument("--markdown", help="also write the report as markdown")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    sys.exit(compare(args) if args.compare else steadiness(args))


if __name__ == "__main__":
    main()
