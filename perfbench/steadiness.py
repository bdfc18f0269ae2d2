#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 \
        --out .bench_build/steadiness-a.json [--workload NAME ...]
    python3 perfbench/steadiness.py --compare A.json B.json

The first form runs every named workload (default: all) once per seed,
one run after another, and prints for each end-to-end metric its median
and its interquartile range over the median, computed with
statistics.quantiles(values, n=4). The second form prints the relative
difference between the medians of two such sets, signed so that a
positive number means the second set is worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_contract():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_set(contract, workloads, runs, first_seed):
    results = {}
    for name in workloads:
        per_metric = {}
        for seed in range(first_seed, first_seed + runs):
            cmd = contract["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(contract["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"steadiness: {name} seed {seed} failed a check")
            for metric, v in result["metrics"].items():
                per_metric.setdefault(metric, []).append(v["value"])
            print(f"  {name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in
                result["metrics"].items()), flush=True)
        results[name] = per_metric
    return results


def report(contract, results):
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    print(f"{'workload':<20} {'metric':<18} {'median':>12} "
          f"{'iqr/median':>10} {'bound/3':>8}")
    for name, per_metric in results.items():
        for metric, values in per_metric.items():
            print(f"{name:<20} {metric:<18} {statistics.median(values):>12.5g}"
                  f" {spread(values):>10.4f} {bounds[metric] / 3:>8.4f}")


def compare(contract, first, second):
    worse_if_higher = {m["name"]: m["better"] == "lower"
                       for m in contract["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    print(f"{'workload':<20} {'metric':<18} {'median A':>12} "
          f"{'median B':>12} {'B worse by':>10} {'bound':>6}")
    for name, per_metric in first.items():
        for metric, values in per_metric.items():
            a = statistics.median(values)
            b = statistics.median(second[name][metric])
            worse = (b - a) / a if worse_if_higher[metric] else (a - b) / a
            print(f"{name:<20} {metric:<18} {a:>12.5g} {b:>12.5g} "
                  f"{worse:>10.4f} {bounds[metric]:>6.2f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    opts = parser.parse_args()
    contract = load_contract()
    if opts.compare:
        sets = []
        for path in opts.compare:
            with open(path) as f:
                sets.append(json.load(f))
        compare(contract, *sets)
        return 0
    workloads = opts.workload or [w["name"] for w in contract["workloads"]]
    results = run_set(contract, workloads, opts.runs, opts.first_seed)
    report(contract, results)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
