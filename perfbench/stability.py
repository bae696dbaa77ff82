#!/usr/bin/env python3
"""Run the benchmark in two sets of runs on one commit and compare them.

From the repository root:

    python3 perfbench/stability.py [--workloads a,b] [--seeds 10]

Each of the two sets runs every listed workload (default: all in
BENCHMARK.json) once per seed 1..N, untraced, for the benchmark's
run_seconds. For every workload and
end-to-end metric it prints each set's median and spread (the interquartile
range of the per-seed values over their median, as
statistics.quantiles(values, n=4) gives it) and whether the two medians agree
within the metric's bound, in either direction. A metric whose spread is
wider than its bound in either set is reported as unresolved: the benchmark cannot tell a change of that size from
noise. It also checks that every set fails the same share of operations.
Exits nonzero when a run fails, reports a wrong output, or a check does not
hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = range(1, args.seeds + 1)
    ok = True
    for workload in workloads:
        sets = [[run(workload, s, bench["run_seconds"]) for s in seeds]
                for _ in range(SETS)]
        shares = {(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets}
        per_run = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"\n{workload}: failed/attempted per set {sorted(shares)}"
              f", distinct per-run shares {sorted(per_run)}")
        if len(per_run) != 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print("  FAIL: failed share differs between runs, or a wrong output")
        print(f"  {'metric':24s} " + " ".join(
            f"{'median' + str(i + 1):>12s} {'spread' + str(i + 1):>8s}"
            for i in range(SETS)) + "   verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians, spreads = [], [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values) if len(values) > 1 else 0.0)
                cells.append(f"{medians[-1]:12.6g} {spreads[-1]:8.2%}")
            shift = abs(medians[1] - medians[0]) / medians[0]
            if max(spreads) > bound:
                verdict = f"unresolved (spread above bound {bound:.0%})"
                ok = False
            elif shift > bound:
                verdict = f"DISAGREE (medians {shift:.1%} apart, bound {bound:.0%})"
                ok = False
            else:
                verdict = f"agree within {bound:.0%}"
            print(f"  {name:24s} " + " ".join(cells) + "   " + verdict)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
