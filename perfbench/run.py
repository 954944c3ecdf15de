#!/usr/bin/env python3
"""Build and run the cedarsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator from ../src and the perfbench binary in this directory
(Release, into .bench_build/perfbench at the checkout root), runs one
workload, and prints the binary's JSON result as the last stdout line.
Build output goes to stderr. Exits non-zero, without a result, when
the build or the run fails; exits 1 after the result when a
correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# One run must end within 180 s; leave the wrapper room to report.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def check_result(line, expected):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("perfbench printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json")
    if result["attempted"] < 1:
        fail("no operation attempted")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()

    bench = spec()
    build()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"--workload must be one of {workloads}")
    if args.seed is None or args.seed < 0 or args.seconds is None \
            or args.seconds < 1 or args.trace is None:
        fail("--seed >= 0, --seconds >= 1 and --trace are required")

    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[kind]}
    trace_dir = os.path.join(ROOT, ".bench_build", "trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):
        fail(f"perfbench exited with {done.returncode}")
    result = check_result(lines[-1], expected)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
