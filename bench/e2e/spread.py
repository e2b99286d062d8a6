#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs bench/e2e/run.sh once per (workload, seed), one process at a
time, and prints a markdown table of each end-to-end metric's median
and its spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. The
bounds in BENCHMARK.json are set from this spread.

    python3 bench/e2e/spread.py [--workloads fig14,fig15] [--seeds 1-10]
                                [--seconds 15] [--raw FILE]

--raw appends every run's JSON result, one line each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
WORKLOADS = ["fig14", "fig15", "queues", "serving", "explore"]


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"spread.py: {workload} seed {seed} printed nothing")
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"spread.py: {workload} seed {seed} failed its checks")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--raw")
    args = parser.parse_args()

    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        values = {}
        for seed in seed_list(args.seeds):
            result = run(workload, seed, args.seconds)
            if args.raw:
                with open(args.raw, "a", encoding="utf-8") as f:
                    f.write(json.dumps({"workload": workload,
                                        "seed": seed, **result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(
                    metric["value"])
        for name, (unit, vals) in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| {workload} | {name} | {unit} | {med:.6g} | "
                  f"{q1:.6g} | {q3:.6g} | {(q3 - q1) / med:.4f} |",
                  flush=True)


if __name__ == "__main__":
    main()
