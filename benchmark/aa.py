#!/usr/bin/env python3
"""A/A sets of the benchmark on unchanged code.

Runs the command of BENCHMARK.json `--sets` times over every workload, ten
seeds each (untraced), and prints for every end-to-end metric of every
workload: each set's median, quartiles and spread (the distance between the
first and third quartile as a share of the median, by
`statistics.quantiles(values, n=4)`), and the largest relative difference
between two set medians. The bounds in BENCHMARK.json are set from this
table. Run it from the root of the repository:

    python3 benchmark/aa.py --sets 3 --out benchmark/out/aa.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.time()
    done = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.time() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}, elapsed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    contract = json.load(open("BENCHMARK.json"))
    command = contract["command"]
    seconds = contract["run_seconds"]
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in contract["end_to_end"]}

    # values[workload][metric][set] = the set's list of run values
    values = {w: {m: [] for m in bounds} for w in workloads}
    slowest = 0.0
    for s in range(args.sets):
        for w in workloads:
            per_metric = {m: [] for m in bounds}
            for r in range(args.runs):
                # Another seed for every run of every set.
                seed = args.first_seed + s * args.runs + r
                metrics, elapsed = run_once(command, w, seed, seconds, 0)
                slowest = max(slowest, elapsed)
                for m in bounds:
                    per_metric[m].append(metrics[m])
                print(f"set {s + 1} {w} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
            for m in bounds:
                values[w][m].append(per_metric[m])

    print("| workload | metric | " + " | ".join(
        f"set {s + 1} median [q1, q3] spread" for s in range(args.sets)
    ) + " | largest difference between set medians | bound |")
    print("|---|---|" + "---|" * (args.sets + 2))
    worst = {m: (0.0, 0.0) for m in bounds}
    for w in workloads:
        for m, (bound, _) in bounds.items():
            cells, medians = [], []
            for run_values in values[w][m]:
                q1, q2, q3 = statistics.quantiles(run_values, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {spread:.3f}")
                worst[m] = (max(worst[m][0], spread), worst[m][1])
            diff = max(abs(a - b) / min(a, b) for a in medians for b in medians)
            worst[m] = (worst[m][0], max(worst[m][1], diff))
            print(f"| {w} | {m} | " + " | ".join(cells) + f" | {diff:.3f} | {bound} |")
    print()
    print("| metric | largest spread | largest difference between set medians | bound |")
    print("|---|---|---|---|")
    for m, (bound, _) in bounds.items():
        print(f"| {m} | {worst[m][0]:.3f} | {worst[m][1]:.3f} | {bound} |")
    print(f"\nslowest run: {slowest:.1f} s")
    if args.out:
        json.dump(values, open(args.out, "w"))


if __name__ == "__main__":
    main()
