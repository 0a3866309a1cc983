"""Determinism self-check: two traced runs of one workload on one seed must
agree exactly on the input digest, the failed-task count and every count
among the per-layer metrics (`.calls`, shares, sizes and states).

    python3 perfbench/selfcheck.py --workload threshold_sweep --seed 1

Prints one line per compared figure and exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# per-layer figures that must repeat exactly; times may not
EXACT_SUFFIXES = (".calls", "_share", ".mean_n", ".max_n", ".states_solved")


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=os.path.dirname(HERE))
    if proc.returncode != 0:
        sys.exit(f"run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.rsplit(" ", 1)[1] for line in lines if "input digest" in line)
    result = json.loads(lines[-1])
    figures = {"input digest": digest, "attempted": result["attempted"], "failed": result["failed"]}
    figures.update((name, m["value"]) for name, m in result["metrics"].items()
                   if name.endswith(EXACT_SUFFIXES))
    return figures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    first = traced_run(args.workload, args.seed, args.seconds)
    second = traced_run(args.workload, args.seed, args.seconds)
    differ = 0
    for name in first:
        same = first[name] == second.get(name)
        differ += not same
        print(f"{'same' if same else 'DIFFERS'} {name}: {first[name]!r} / {second.get(name)!r}")
    print(f"{args.workload} seed {args.seed}: {'deterministic' if not differ else f'{differ} figures differ'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
