#!/usr/bin/env python3
"""End-to-end benchmark of bagcq: the command BENCHMARK.json names.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, the real bagcq_server
and the benchmark binary bagcq_bench (perfbench/src) with CMake into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, and prints bagcq_bench's result as
the last line of standard output: one JSON object with the keys correct,
attempted, failed and metrics. Build output and diagnostics go to standard
error. Exits non-zero, without a result, when the sources are missing, the
build fails, or the run does not complete.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decide_acyclic", "prove_shannon", "serve_replay")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h")):
        fail("no bagcq sources next to perfbench/ (expected src/api/engine.h)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "bagcq_bench", "bagcq_server"],
                   stdout=sys.stderr, check=True, timeout=840)


def expected_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    # Sockets and span dumps live here; a relative path keeps Unix socket
    # names short.
    workdir = os.path.relpath(os.path.join(build_dir, "perfbench-run"))
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "bagcq_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(build_dir, "tools", "bagcq_server"),
               "--workdir", workdir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % args.workload)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("%s exited with %d" % (args.workload, run.returncode))
    result = json.loads(lines[-1])
    names = set(result["metrics"])
    wanted = expected_metrics(args.trace)
    if names != wanted:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(wanted - names), sorted(names - wanted)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
