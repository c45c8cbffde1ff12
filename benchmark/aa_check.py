#!/usr/bin/env python3
"""A/A check: two sets of runs of the same commit must agree.

For every workload in BENCHMARK.json this makes two sets of RUNS runs
(alternating A, B, A, B ..., each run with another seed) and checks, for
every end-to-end metric, what the driver checks:

  * spread: the distance between the first and third quartile of a set's
    values (statistics.quantiles(values, n=4)) as a share of their median
    stays within the metric's bound (setup_s is exempt from this one);
  * agreement: set B's median is not worse than set A's by more than the
    bound.

Usage, from the root of the checkout:
    python3 benchmark/aa_check.py [RUNS] [WORKLOAD ...]
RUNS defaults to 10 (the issue asks for at least 5 per set). Exits 1 if
any metric misses its bound, prints every value it measured, and leaves
the medians and spreads in benchmark/out/aa_check.json.
"""
import json
import os
import statistics
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(here)
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
workloads = sys.argv[2:] or [w["name"] for w in spec["workloads"]]


def one_run(workload, seed):
    out = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


bad = 0
summary = {}
for workload in workloads:
    sets = {"A": [], "B": []}
    for i in range(runs):
        for j, name in enumerate(sets):
            sets[name].append(one_run(workload, 1000 + 2 * i + j))
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r[name] for r in sets["A"]]
        b = [r[name] for r in sets["B"]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = (med_b - med_a) / med_a
        if metric["better"] == "higher":
            worse = -worse
        spreads = (spread(a), spread(b))
        ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
        bad += not ok
        summary.setdefault(workload, {})[name] = {
            "unit": metric["unit"], "bound": bound, "runs_per_set": runs,
            "median_a": med_a, "median_b": med_b,
            "spread_a": spreads[0], "spread_b": spreads[1]}
        print(f"{workload:17} {name:17} A {med_a:12.4f}  B {med_b:12.4f}  "
              f"B worse by {worse:+7.2%}  spread A {spreads[0]:6.2%} B {spreads[1]:6.2%}  "
              f"bound {bound:.0%}  {'ok' if ok else 'MISSED'}", flush=True)
        print(f"    A {' '.join(f'{v:.4g}' for v in a)}\n    B {' '.join(f'{v:.4g}' for v in b)}")
os.makedirs(os.path.join(here, "out"), exist_ok=True)
with open(os.path.join(here, "out", "aa_check.json"), "w") as f:
    json.dump(summary, f, indent=2)
sys.exit(1 if bad else 0)
