#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload train|generate|stream|serve|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build (CMake, Release, the repository's
default -march=native) goes to .bench_build/perfbench; build output goes to
stderr, so the last stdout line is the benchmark's JSON result. `all` runs
the four workloads one after another, each in its own process. See
perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the perfbench binary; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"perfbench: no cloudgen sources under {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    build()
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args[:-1] and args[args.index("--workload") + 1] == "all":
        at = args.index("--workload") + 1
        runs = [args[:at] + [w] + args[at + 1:] for w in ("train", "generate", "stream", "serve")]
    code = 0
    for argv in runs:
        try:
            done = subprocess.run([BINARY] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        code = code or done.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
