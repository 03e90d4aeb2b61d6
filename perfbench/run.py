#!/usr/bin/env python3
"""Build and run the perfbench sweep benchmark from the repository root.

    python3 perfbench/run.py --workload ring-tables --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the repository library it links) into .bench_build/
with CMake in Release mode, then runs one workload.  With --trace 0 it
first runs the workload's set-up alone in SETUP_SAMPLES - 1 extra
processes and reports setup_s as the median over all set-ups.  The last
line of standard output is the JSON result object; build output goes to
standard error.  Exits 1 with "correct": false when a pass fails its
check, and nonzero without a result line when the build or the run fails.

--scale F multiplies every scenario's trial count (the smoke test runs
tiny sizes with it).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # all benchmark processes of one invocation, build excluded
BUILD_JOBS = "4"


def build():
    """Configures and builds the benchmark; returns False on failure."""
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", BUILD_JOBS],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def run_binary(args, extra, deadline):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", repr(args.scale),
               "--workloads", os.path.join(BENCH_DIR, "workloads")] + extra
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: runs exceeded their %d s budget\n" % RUN_BUDGET_S)
        return 1, []
    return result.returncode, result.stdout.splitlines()


def last_json(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    if not build():
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S

    setups = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            code, lines = run_binary(args, ["--setup-only"], deadline)
            result = last_json(lines)
            if code != 0 or result is None:
                sys.stderr.write("perfbench: set-up run failed (exit %d)\n" % code)
                return code or 1
            setups.append(result["metrics"]["setup_s"]["value"])

    extra = []
    if args.trace == 1:
        trace_out = os.path.join(BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))
        extra = ["--trace-out", trace_out]
    code, lines = run_binary(args, extra, deadline)
    result = last_json(lines)
    if result is None:
        sys.stdout.write("\n".join(lines) + "\n" if lines else "")
        sys.stderr.write("perfbench: run produced no result (exit %d)\n" % code)
        return code or 1

    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines[:-1]:
        if setups and line.startswith("metric setup_s "):
            line = "metric %-34s %.6g s  # median of %d set-ups: %s" % (
                "setup_s", result["metrics"]["setup_s"]["value"], len(setups),
                " ".join("%.4f" % s for s in setups))
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
