#!/usr/bin/env python3
"""Steadiness check: run one workload k times and print each metric's
median, quartiles and spreads against its bound.

Run from the root of the repository:

    python3 perfbench/steady.py --workload fuzz-oracle --runs 10
    python3 perfbench/steady.py --workload paper-flow --runs 5 --seed-step 0
    python3 perfbench/steady.py --workload dse-grid --runs 10 --sets 2

Run k uses seed first-seed + k * seed-step, so `--seed-step 0` repeats
one seed and shows run-to-run noise alone, while the default mixes it
with the change of inputs between seeds.  `--sets 2` runs the same seeds
twice, as two sets, and also compares them: each metric's second median
against its first, and, seed by seed, the metrics that must repeat
exactly (`opt_instrs`, `sim_cycles.*`).

The spread is (Q3 - Q1) / median with Python's statistics.quantiles(n=4),
the measure the bounds in BENCHMARK.json are set against.  A metric is
steady when its spread in every set is under a third of its bound and
its second median is not worse than the first by more than the bound.
The share of failed operations must be the same on every run.  Exits 1
when anything is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXACT = ("opt_instrs", "sim_cycles.")


def run_once(workload, seed, seconds, trace):
    """The JSON result, with the raw figures printed after "-- raw" added
    to its metrics (they are not gated, but their spread is the point of
    comparison for the reference units)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = lines.index("  -- raw, not gated --")
    for line in lines[raw + 1:-1]:
        name, value, *unit = line.split()
        result["metrics"]["raw:" + name] = {"value": float(value), "unit": " ".join(unit)}
    return result


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
    return med, q1, q3, ((q3 - q1) / med if med else 0.0), ((max(vals) - min(vals)) / med if med else 0.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seed-step", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = [args.first_seed + k * args.seed_step for k in range(args.runs)]
    sets = []
    for s in range(args.sets):
        results = []
        for seed in seeds:
            r = run_once(args.workload, seed, seconds, args.trace)
            results.append(r)
            print("set %d seed %d: attempted %d failed %d correct %s" % (
                s + 1, seed, r["attempted"], r["failed"], r["correct"]), flush=True)
        sets.append(results)
    every = [r for results in sets for r in results]
    shares = sorted({r["failed"] / r["attempted"] for r in every})
    print("failed share per run: %s" % ", ".join("%.6f" % x for x in shares))
    steady = len(shares) == 1 and all(r["correct"] for r in every)
    print("%-28s %4s %12s %12s %12s %8s %8s %6s %6s  %s" % (
        "metric", "set", "median", "q1", "q3", "iqr/med", "range", "bound", "steady", "values"))
    for name in every[0]["metrics"]:
        bound = bounds.get(name, {}).get("bound")
        meds = []
        for s, results in enumerate(sets):
            vals = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, iqr, rng = spread(vals)
            meds.append(med)
            verdict = ""
            if bound is not None:
                ok = iqr < bound / 3
                steady = steady and ok
                verdict = "yes" if ok else "NO"
            print("%-28s %4d %12.6g %12.6g %12.6g %8.4f %8.4f %6s %6s  %s" % (
                name, s + 1, med, q1, q3, iqr, rng, "" if bound is None else bound, verdict,
                " ".join("%.4g" % v for v in vals)))
        if len(sets) == 2 and bound is not None:
            lower = bounds[name]["better"] == "lower"
            worse = ((meds[1] - meds[0]) if lower else (meds[0] - meds[1])) / meds[0] if meds[0] else 0.0
            ok = worse <= bound
            steady = steady and ok
            print("%-28s  second median worse by %+.4f of the first (bound %s): %s" % (
                name, worse, bound, "yes" if ok else "NO"))
            pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in zip(sets[0], sets[1])]
            same_seed = max(abs(b - a) / a if a else abs(b) for a, b in pairs)
            print("%-28s  largest same-seed difference between the sets: %.6f" % (name, same_seed))
            if name.startswith(EXACT):
                diffs = sum(a != b for a, b in pairs)
                steady = steady and diffs == 0
                print("%-28s  identical seed by seed across the sets: %s" % (
                    name, "yes" if diffs == 0 else "NO (%d seeds differ)" % diffs))
    print("steady: %s" % ("yes" if steady else "NO"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
