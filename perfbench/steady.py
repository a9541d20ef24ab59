#!/usr/bin/env python3
"""Steadiness check: runs each workload k times and prints the median and
quartiles of every metric.

    python3 perfbench/steady.py [--runs K] [--first-seed S] [--sets 1|2]
                                [--workloads a,b] [--trace 0|1]

Every run lasts BENCHMARK.json's run_seconds, the length its bounds were set
at. Each run of a set gets its own seed (S, S+1, ...). For every metric the
table shows the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), and the spread: the distance between
the quartiles as a share of the median. End-to-end metrics also show their
bound from BENCHMARK.json and whether the spread is below a third of it.

With --sets 2 the whole set of runs is made twice, one set after the other,
with the same seeds, and every end-to-end metric's second median is compared
with its first: the change in the metric's worse direction, as a share of
the first median, must stay within the bound.

Exits 1 when a run fails or is incorrect, when the share of failed
operations differs between runs, when a second median is worse than the
first by more than the bound, or when a spread exceeds its bound. The spread
of setup_s is printed but not gated: set-up time is bounded between sets of
runs (its medians are compared), not within one, since a single run's
set-up is its least repeatable part.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics whose spread within a set is reported but not gated.
SPREAD_NOT_GATED = {"setup_s"}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread_table(workload, results, bounds):
    """Prints one set's table; returns (ok, {metric: median})."""
    ok = True
    medians = {}
    print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}"
          f" {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        medians[name] = med
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / abs(med) if med else float("inf")
        line = (f"  {name + ' (' + unit + ')':32} {med:14.6g} {q1:14.6g} "
                f"{q3:14.6g} {spread:8.3f}")
        if name in bounds:
            bound = bounds[name]
            verdict = "ok" if spread < bound / 3 else (
                "WIDE" if spread <= bound else "OVER")
            if name in SPREAD_NOT_GATED:
                verdict += " (not gated)"
            elif spread > bound:
                ok = False
            line += f" {bound:6.2f} {verdict}"
        print(line)
    return ok, medians


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--sets", type=int, default=1, choices=(1, 2))
    p.add_argument("--workloads", default=None)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)

    # results[set][workload] = list of result objects, in seed order.
    results = []
    for set_index in range(args.sets):
        results.append({})
        for workload in workloads:
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, seconds, args.trace)
                runs.append(result)
                print(f"  set {set_index + 1} {workload} seed {seed}: "
                      f"correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}", file=sys.stderr)
            results[-1][workload] = runs

    ok = True
    for workload in workloads:
        shares = set()
        medians = []
        for set_index, by_workload in enumerate(results):
            runs = by_workload[workload]
            if not all(r["correct"] for r in runs):
                print(f"{workload}: a run of set {set_index + 1} reported correct=false")
                ok = False
            set_shares = {r["failed"] / r["attempted"] for r in runs}
            shares |= set_shares
            print(f"\n{workload}, set {set_index + 1}: {args.runs} runs, seeds "
                  f"{seeds[0]}..{seeds[-1]}, {seconds} s, trace={args.trace}, "
                  f"failed share {sorted(set_shares)}")
            set_ok, set_medians = spread_table(workload, runs, bounds)
            ok = ok and set_ok
            medians.append(set_medians)
        if len(shares) != 1:
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
            ok = False
        if len(medians) == 2:
            print(f"\n{workload}: second set's median against the first's")
            print(f"  {'metric':32} {'set 1':>14} {'set 2':>14} {'worse by':>9} {'bound':>6}")
            for name, first in medians[0].items():
                if name not in bounds:
                    continue
                second = medians[1][name]
                change = (second - first) / abs(first) if first else float("inf")
                worse = change if better[name] == "lower" else -change
                verdict = "ok" if worse <= bounds[name] else "OVER"
                ok = ok and worse <= bounds[name]
                print(f"  {name:32} {first:14.6g} {second:14.6g} {worse:9.3f} "
                      f"{bounds[name]:6.2f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
