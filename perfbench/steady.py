#!/usr/bin/env python3
"""Steadiness check for the benchmark that BENCHMARK.json defines.

Runs every workload ten times for run_seconds, with seeds 1..10, and
prints for every end-to-end metric its median, quartiles, spread and
bound. The spread is the distance between the first and third quartile
(as statistics.quantiles(values, n=4) gives them) as a share of the
median. Exits 1 and names every metric whose spread exceeds its bound.
With --sets 2 each workload is measured twice (the second time with
seeds 11..20), and the check also fails when the second median is worse
than the first by more than the bound.

Run from the root of the repository:

    python3 perfbench/steady.py [--sets 2] [--values]
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(command, workload, seed, seconds):
    """One benchmark run; returns the parsed result line."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--values", action="store_true",
                        help="also print every run's value, in seed order")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        medians = []
        for s in range(opts.sets):
            first = 1 + s * RUNS
            results = [run_once(bench["command"], workload, seed, seconds)
                       for seed in range(first, first + RUNS)]
            print(f"\n{workload}, set {s + 1}: {RUNS} runs of {seconds} s, "
                  f"seeds {first}..{first + RUNS - 1}, "
                  f"ops per run {min(r['attempted'] for r in results)}.."
                  f"{max(r['attempted'] for r in results)}")
            print(f"  {'metric':<20} {'unit':<5} {'q1':>14} {'median':>14} "
                  f"{'q3':>14} {'spread':>7} {'bound':>6}")
            set_medians = {}
            for m in metrics:
                name = m["name"]
                values = [r["metrics"][name]["value"] for r in results]
                units = {r["metrics"][name]["unit"] for r in results}
                if units != {m["unit"]}:
                    failures.append(f"{workload} {name}: unit {units} != {m['unit']}")
                q1, q2, q3, rel = spread(values)
                set_medians[name] = q2
                flag = ""
                if rel > m["bound"]:
                    flag = "  SPREAD > BOUND"
                    failures.append(f"{workload} {name}: spread {rel:.3f} > bound {m['bound']}")
                print(f"  {name:<20} {m['unit']:<5} {q1:>14.6g} {q2:>14.6g} {q3:>14.6g} "
                      f"{rel:>7.3f} {m['bound']:>6}{flag}")
                if opts.values:
                    print("      " + " ".join(f"{v:.6g}" for v in values))
            medians.append(set_medians)
        if opts.sets == 2:
            print("  second set against the first:")
            for m in metrics:
                name = m["name"]
                worse = worse_by(medians[0][name], medians[1][name], m["better"])
                flag = "  WORSE > BOUND" if worse > m["bound"] else ""
                if flag:
                    failures.append(f"{workload} {name}: second median worse by {worse:.3f}")
                print(f"  {name:<20} worse by {worse:>7.3f} (bound {m['bound']}){flag}")

    if failures:
        print("\nNOT STEADY:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nsteady: every spread is within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
