#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload repro_cold --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
hcrf library and the benchmark program (Release) into
.bench_build/perfbench; the program keeps its run state under
.bench_run/. Prints a host fingerprint line, the program's report, and as
the last line the JSON result object. --tiny runs every workload on a
small size (used by selftest.py).
"""
import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("repro_cold", "repro_warm", "daemon_mixed")


def build_dir():
    return os.path.join(".bench_build", "perfbench")


def build():
    """Configures (once) and builds the benchmark program and the daemon
    binary it runs for daemon_mixed; returns their paths."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(out, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", out, "--target", "perfbench", "hcrf_sched",
            "-j", jobs]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    if subprocess.run(make, stdout=sys.stderr, env=env).returncode != 0:
        # A build tree configured from older build rules can lack a target:
        # configure again and retry once.
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
        subprocess.run(make, check=True, stdout=sys.stderr, env=env)
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "hcrf", "hcrf_sched"))


def source_digest(root):
    """Digest of the sources the benchmark builds: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint():
    """Host and build identity. Results whose "host" parts differ are not
    comparable (steady.py --compare refuses them); "commit" names the code
    measured."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            if m:
                cpu = m.group(1).strip()
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^(CMAKE_BUILD_TYPE)(?::\w+)?=(.*)$",
                             line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    # The compiler identity is recorded by CMake's compiler detection.
    files = os.path.join(build_dir(), "CMakeFiles")
    for d in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        f = os.path.join(files, d, "CMakeCXXCompiler.cmake")
        if os.path.exists(f):
            with open(f) as fh:
                text = fh.read()
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                m = re.search(r'set\(%s "([^"]*)"\)' % key, text)
                if m:
                    cache[key] = m.group(1)
    compiler = cache.get("CMAKE_CXX_COMPILER_ID", "unknown")
    version = cache.get("CMAKE_CXX_COMPILER_VERSION", "")
    commit = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "host": {
            "cpu": cpu,
            "nproc": os.cpu_count(),
            "compiler": (compiler + " " + version).strip(),
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        },
        "commit": commit or "source-" + source_digest(os.getcwd()),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    a = p.parse_args()

    if not os.path.exists(os.path.join("src", "experiment", "run.h")):
        sys.exit("perfbench: run from the repository root (src/ not found)")
    try:
        program, serve = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    print("host: " + json.dumps(fingerprint(), sort_keys=True), flush=True)
    cmd = [program, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--serve-binary", serve]
    if a.tiny:
        cmd.append("--tiny")
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
