#!/usr/bin/env python3
"""Smoke test for the perfbench benchmark.  Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size (--scale), untraced and
traced, and checks that:

  * each run exits 0 with a correct result and no failed scenario;
  * the result carries exactly the end-to-end (untraced) or per-layer
    (traced) metrics BENCHMARK.json names, each with its unit, and each is
    also printed as a "metric <name> <value> <unit>" line;
  * in the traced run, the per-layer self times plus the remainder add up to
    the wall time, the remainder is non-negative and small, and the self
    times recomputed here from the written span file agree with the printed
    ones.

Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

SCALE = "0.05"
SECONDS = "0.5"
SEED = 7
REMAINDER_MAX_FRAC = 0.05


def fail(message):
    sys.stderr.write("smoke_test: FAIL: %s\n" % message)
    sys.exit(1)


def run(workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail("%s --trace %d exited %d" % (workload, trace, result.returncode))
    lines = result.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, trace, printed, result, expected):
    if result.get("correct") is not True or result.get("failed") != 0:
        fail("%s --trace %d: result not correct: %s" % (workload, trace, result))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        fail("%s --trace %d: attempted must be a positive integer" % (workload, trace))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("%s --trace %d: metrics %s, expected %s" %
             (workload, trace, sorted(set(metrics) ^ set(expected)), "BENCHMARK.json's"))
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail("%s: metric %s has unit %s, expected %s" %
                 (workload, name, metrics[name]["unit"], unit))
        line = [l for l in printed if l.split()[:2] == ["metric", name]]
        if len(line) != 1 or line[0].split()[3] != unit:
            fail("%s: metric %s is not printed once with unit %s" % (workload, name, unit))


def span_self_by_layer(path):
    with open(path) as handle:
        spans = json.load(handle)
    self_time = [s["end_s"] - s["start_s"] for s in spans]
    for span in spans:
        if span["parent"] >= 0:
            self_time[span["parent"]] -= span["end_s"] - span["start_s"]
    by_layer = {}
    for span, seconds in zip(spans, self_time):
        if seconds < -1e-6:
            fail("span %s has negative self time %g" % (span["name"], seconds))
        layer = span["name"].split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    return by_layer


def check_trace(workload, metrics):
    value = {name: m["value"] for name, m in metrics.items()}
    wall = value["trace.wall_s"]
    remainder = value["trace.remainder_s"]
    self_names = [name for name in value if name.endswith(".self_s")]
    total = sum(value[name] for name in self_names) + remainder
    if abs(total - wall) > 1e-6 * max(1.0, wall):
        fail("%s: self times + remainder = %.9f s, wall = %.9f s" % (workload, total, wall))
    if remainder < -1e-9 or remainder > REMAINDER_MAX_FRAC * wall:
        fail("%s: remainder %.6f s outside [0, %g x wall %.6f s]" %
             (workload, remainder, REMAINDER_MAX_FRAC, wall))
    spans_path = os.path.join(".bench_build", "trace-%s-%d.json" % (workload, SEED))
    for layer, seconds in span_self_by_layer(spans_path).items():
        printed = value.get(layer + ".self_s")
        if printed is None or abs(printed - seconds) > 1e-5 * max(1.0, wall):
            fail("%s: layer %s self time %s printed, %.9f from the span file" %
                 (workload, layer, printed, seconds))


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        printed, result = run(workload, 0)
        check_metrics(workload, 0, printed, result, end_to_end)
        printed, result = run(workload, 1)
        check_metrics(workload, 1, printed, result, per_layer)
        check_trace(workload, result["metrics"])
        print("smoke_test: %s ok (%d scenario runs checked)" % (workload, result["attempted"]))
    print("smoke_test: all workloads ok")


if __name__ == "__main__":
    main()
