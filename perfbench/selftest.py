#!/usr/bin/env python3
"""Self-test of the traced pass: its counts are a pure function of the seed.

    python3 perfbench/selftest.py [--seed 3]

For every workload it runs the traced pass (serve_bench --counts-only) twice
with 2 controller lanes and once with 1 lane, and fails unless all three print
identical counts: dirty users, handoffs, engine group/set rebuilds, k-overlay
repairs and the rest. Later changes may then cite these counts as exact.
Exits 0 when every workload agrees, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys

from run import ROOT, WORKLOADS, build

TIMEOUT_S = 600


def counts(binary, workload, seed, lanes):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", "--counts-only",
           f"--lanes={lanes}"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload}: traced pass failed its output checks "
                         f"(lanes={lanes}, exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    binary = build()
    ok = True
    for workload in WORKLOADS:
        runs = {
            "lanes=2 #1": counts(binary, workload, args.seed, 2),
            "lanes=2 #2": counts(binary, workload, args.seed, 2),
            "lanes=1": counts(binary, workload, args.seed, 1),
        }
        ref_name, ref = next(iter(runs.items()))
        same = True
        for name, got in runs.items():
            for k in sorted(k for k in ref.keys() | got.keys() if ref.get(k) != got.get(k)):
                same = False
                print(f"{workload}: {k} = {got.get(k)} ({name}) vs "
                      f"{ref.get(k)} ({ref_name})")
        ok = ok and same
        print(f"{workload}: {len(ref)} counts over {int(ref['ctrl.epochs'])} epochs "
              f"{'identical' if same else 'DIFFER'} across {', '.join(runs)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
