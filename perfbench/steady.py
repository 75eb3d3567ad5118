#!/usr/bin/env python3
"""Steadiness report for the benchmark, run from the checkout root.

    python3 perfbench/steady.py [--runs 10] [--second 5] [--workloads a,b] [--seconds S]

For each workload it runs the benchmark --runs times, seeds 1..runs, and
prints every end-to-end metric's per-run values, median, and quartile
spread (Q3 - Q1 of statistics.quantiles(values, n=4), as a share of the
median) beside the metric's bound from BENCHMARK.json; a spread at or
above a third of the bound is flagged. It then runs --second more times
on seeds 1001.., a second seed set, and prints how far that set's median
lies from the first set's, to show the workloads are not tuned to one
seed. Exits 1 if any run fails or any flagged spread is found.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"steady: {workload} seed {seed} exited {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"steady: {workload} seed {seed}: {lines[-1]}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--second", type=int, default=5)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = 0
    for w in workloads:
        first = [run_once(bench, w, s, seconds) for s in range(1, args.runs + 1)]
        second = [run_once(bench, w, 1000 + s, seconds) for s in range(1, args.second + 1)]
        print(f"== {w}: {args.runs} runs (seeds 1..{args.runs}), {seconds} s each")
        for name, bound in bounds.items():
            vals = [r[name] for r in first]
            med, sp = spread(vals)
            flag = ""
            if name != "setup_s" and sp >= bound / 3:
                flag = "  SPREAD >= bound/3"
                bad += 1
            line = f"  {name:14s} median {med:12.6g}  spread {100 * sp:6.2f}%  bound {100 * bound:4.0f}%{flag}"
            if second:
                med2 = statistics.median([r[name] for r in second])
                line += f"  second-set median {med2:12.6g} ({100 * (med2 / med - 1):+6.2f}%)"
            print(line)
            print("    runs: " + " ".join(f"{v:.6g}" for v in vals))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
