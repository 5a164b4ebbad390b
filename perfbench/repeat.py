#!/usr/bin/env python3
"""Repeat runner: runs workloads over several seeds and summarises each metric.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                [--trace 0|1] [--out results.jsonl]

Run from the root of a checkout. Each (workload, seed) is one
`perfbench/run.py` run, made one after another. For every metric it prints
the median, the first and third quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and, for end-to-end metrics, the bound BENCHMARK.json
sets. It also prints the share of failed operations per run. The bounds in
BENCHMARK.json were set from this output (README.md has the figures).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append every run's result here")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print("%s seed %d: run failed (exit %d)"
                      % (workload, seed, done.returncode))
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["workload"], result["seed"] = workload, seed
            runs.append(result)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(result) + "\n")
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: %d runs, all correct: %s, failed shares: %s"
              % (workload, len(runs), all(r["correct"] for r in runs), shares))
        print("  %-30s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median,) * 3)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            print("  %-30s %12.6g %12.6g %12.6g %8.3f %6s"
                  % (name, median, q1, q3, spread,
                     "" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
