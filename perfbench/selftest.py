#!/usr/bin/env python3
"""Small-size self-test of the repository benchmark.

Runs every workload named in BENCHMARK.json on its tiny size, untraced and
traced, and checks that each run ends with a well-formed result line that
reports correct outputs and every end-to-end (untraced) or per-layer
(traced) metric of BENCHMARK.json with its unit, and nothing else:

    python3 perfbench/selftest.py

Run from the repository root; exits non-zero on the first mismatch.
"""
import json
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--tiny"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            tag = "%s trace %d" % (w["name"], trace)
            if p.returncode != 0:
                problems.append("%s: exit %d\n%s" % (tag, p.returncode,
                                                    p.stderr[-2000:]))
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
                continue
            if res["correct"] is not True or res["failed"] != 0:
                problems.append("%s: correct %s, failed %s" % (
                    tag, res["correct"], res["failed"]))
            if not isinstance(res["attempted"], int) or res["attempted"] < 1:
                problems.append("%s: attempted %r" % (tag, res["attempted"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            for name, unit in expected[trace].items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (tag, name))
                elif got[name] != unit:
                    problems.append("%s: metric %s unit %s, expected %s" % (
                        tag, name, got[name], unit))
            for name in set(got) - set(expected[trace]):
                problems.append("%s: metric %s not in BENCHMARK.json" % (
                    tag, name))
            for name, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append("%s: metric %s value %r" % (
                        tag, name, v["value"]))
            print("%s: %d metrics, attempted %d" % (
                tag, len(got), res["attempted"]), flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAIL" if problems else "PASS"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
