#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds perfbench, runs every workload BENCHMARK.json names at --tiny sizes
with tracing off and on, and checks that each run completes with no failed op
and reports exactly the metrics BENCHMARK.json lists, each with its unit
(end-to-end values must be positive). Then damages one sealed segment after a
`generate` op and checks that the output check counts it as a failed op.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build helper)


def bench(*args):
    """Runs the built binary at tiny sizes; returns its JSON result."""
    done = subprocess.run(
        [run.BINARY, "--tiny", "--seconds", "1", "--work-dir", ".bench_build/selftest", *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(
            f"perfbench {' '.join(args)} exited {done.returncode}: {done.stderr[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result, wanted, positive):
    problems = []
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name, unit in wanted.items():
        if name not in got:
            problems.append(f"missing {name}")
        elif got[name] != unit:
            problems.append(f"{name} has unit {got[name]}, want {unit}")
        elif positive and not result["metrics"][name]["value"] > 0:
            problems.append(f"{name} is not positive")
    problems += [f"unexpected {name}" for name in got if name not in wanted]
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    return problems


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            result = bench("--workload", workload, "--seed", "3", "--trace", trace)
            for problem in check_metrics(result, wanted, positive=(trace == "0")):
                failures.append(f"{workload} --trace {trace}: {problem}")

    corrupted = bench("--workload", "generate", "--seed", "3", "--trace", "0", "--corrupt-segment")
    if corrupted["failed"] < 1 or corrupted["correct"]:
        failures.append("generate: a corrupted sealed segment was not counted as a failed op")

    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
