#!/usr/bin/env python3
"""Steadiness check: run every workload ten times, each with another seed,
and print each end-to-end metric's interquartile distance as a share of
its median, next to the metric's bound. A metric is steady enough when its
spread stays below a third of its bound.

usage (from the repository root): python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload W]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--workload", action="append")
args = ap.parse_args()

manifest = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
workloads = args.workload or [w["name"] for w in manifest["workloads"]]
worst = 0.0
for workload in workloads:
    values = {name: [] for name in bounds}
    began = time.time()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = manifest["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(manifest["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, (workload, seed, result)
        assert set(result["metrics"]) == set(bounds), (workload, set(result["metrics"]) ^ set(bounds))
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
    per_run = (time.time() - began) / args.runs
    print(f"\n{workload}  ({args.runs} seeds from {args.first_seed}, {per_run:.1f} s per run)")
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        median = statistics.median(vs)
        spread = (q3 - q1) / median
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        flag = "" if share < 1 / 3 or name == "setup_s" else "  <-- above a third of the bound"
        print(f"  {name:<14} median {median:>14.4f}  spread {spread:6.2%}  bound {bounds[name]:4.0%}{flag}")
print(f"\nworst spread/bound (setup_s apart): {worst:.2f}")
sys.exit(0 if worst < 1 else 1)
