#!/usr/bin/env python3
"""Steadiness tool: run workloads repeatedly and report how well each metric repeats.

    python3 perfbench/steady.py --workloads offline_highcard,live_exact --runs 10

Each run calls run.py with its own seed (--seed0, --seed0 + 1, ...). For every
metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the relative spread
(Q3 - Q1) / median, and the sample count. An end-to-end metric that does
not repeat within a tenth (spread above 0.10) is flagged, and the exit code
is 1 when any metric is flagged or any run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LIMIT = 0.10  # an end-to-end metric should repeat within a tenth


def quartiles(values):
    """(q1, median, q3) with statistics.quantiles' default method."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Relative spread (Q3 - Q1) / median; 0 for a zero median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    flagged = 0
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.seed0 + i, seconds, args.trace)
            status = "failed to run" if r is None else \
                "attempted %d failed %d" % (r["attempted"], r["failed"])
            print("# %s seed %d: %s" % (workload, args.seed0 + i, status), flush=True)
            if r is None or not r["correct"]:
                flagged += 1
            if r is not None:
                results.append(r)
        print("%-16s %-34s %14s %14s %14s %8s %3s" %
              ("workload", "metric", "median", "q1", "q3", "spread", "n"))
        names = results[0]["metrics"].keys() if results else []
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if not args.trace and s > LIMIT:
                flag = "  <-- spread"
                flagged += 1
            print("%-16s %-34s %14.6g %14.6g %14.6g %8.4f %3d%s" %
                  (workload, name, med, q1, q3, s, len(values), flag), flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
