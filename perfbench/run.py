#!/usr/bin/env python3
"""Serve-path benchmark: builds serve_bench from source and runs one workload.

    python3 perfbench/run.py --workload steady_10k --seed 1 --seconds 16 --trace 0

Run from the root of a checkout. The first run configures and builds the
wmcast library and serve_bench under .bench_build/perfbench (about a minute on
four cores); later runs only re-check the build. serve_bench's stdout is passed
through; its last line is the JSON result. With --trace 1 the traced pass
writes its spans to .bench_build/perfbench/spans/<workload>-seed<seed>.json.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "serve_bench"
WORKLOADS = ("steady_10k", "city_100k", "flash_k2_10k")
LANES = 2  # controller pool lanes
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step, sending its output to stderr; fails on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    """Configures (once) and builds serve_bench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"wmcast sources not found under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                "serve_bench"], BUILD_TIMEOUT_S)
    return BINARY


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}", f"--lanes={LANES}"]
    if args.trace:
        spans = BUILD_DIR / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--spans={spans}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        metrics = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stderr.write(proc.stdout)
        fail(f"serve_bench exited with {proc.returncode} and no result line")
    differs = expected_metrics(args.trace) ^ metrics
    if differs:
        sys.stderr.write(proc.stdout)
        fail(f"metric set differs from BENCHMARK.json: {sorted(differs)}")
    # A failed output check still prints its result (correct: false) and
    # keeps serve_bench's non-zero exit code.
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
