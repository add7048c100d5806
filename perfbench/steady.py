#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and set each end-to-end
metric's spread beside its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--sets 1]
                                [--traced 1] [--workloads a,b] [--seconds S]

Each run uses its own seed (seed-base, seed-base+1, ...).  For every metric
it prints the median, the quartiles (statistics.quantiles(n=4)) and the
spread (Q3 - Q1) / median, and flags a spread above a third of the bound.
With --sets 2 the whole set is repeated on the same seeds and the second
median is compared with the first.  --traced N adds N traced runs per
workload and prints their tracing overhead.  Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), res.returncode))
    return json.loads(res.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        sets = []
        for _ in range(args.sets):
            results = [run(workload, args.seed_base + i, args.seconds, 0)
                       for i in range(args.runs)]
            sets.append(results)
        print("== %s (%d runs per set, %d s each)" %
              (workload, args.runs, args.seconds))
        for k, results in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in results}
            print("  set %d: failed share %s, all correct: %s" %
                  (k + 1, sorted(shares),
                   all(r["correct"] for r in results)))
        print("  %-16s %14s %14s %14s %8s %6s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "flag"))
        for name, bound in bounds.items():
            meds = []
            for results in sets:
                med, q1, q3, spread = summary(
                    [r["metrics"][name]["value"] for r in results])
                meds.append(med)
                flag = "" if spread <= bound / 3 or name == "setup_s" else \
                    ("WIDE" if spread > bound else "over 1/3")
                print("  %-16s %14.6g %14.6g %14.6g %8.4f %6.3f %s" %
                      (name, med, q1, q3, spread, bound, flag))
            if len(meds) == 2:
                better = next(m["better"] for m in bench["end_to_end"]
                              if m["name"] == name)
                worse = (meds[1] - meds[0]) / meds[0]
                if better == "higher":
                    worse = -worse
                print("  %-16s second median worse by %.4f (bound %.3f)%s" %
                      (name, worse, bound, "  FAIL" if worse > bound else ""))
        for i in range(args.traced):
            r = run(workload, args.seed_base + i, args.seconds, 1)
            print("  traced run %d: obs.trace_overhead %.4f" %
                  (i + 1, r["metrics"]["obs.trace_overhead"]["value"]))


if __name__ == "__main__":
    main()
