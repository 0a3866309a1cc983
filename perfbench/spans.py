"""Break a traced run's spans down by task label.

    python3 perfbench/spans.py --workload oracle_check --seed 1 [--seconds 20]

Reads .bench_out/spans-<workload>-seed<seed>.tsv, which `run.py --trace 1`
writes, regenerates that run's task list (same seed and seconds) and prints,
for each span name and task label, the call count and the mean and total
span time.  Labels name the model size: K=<levels> or m=<servers>, fig3 and
fig8 for the figures' own grids, sim_* for simulations.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        default_seconds = json.load(fh)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=default_seconds)
    args = ap.parse_args(argv)

    tasks = workloads.generate(args.workload, args.seed, args.seconds)["tasks"]
    path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.tsv")
    stats = defaultdict(lambda: [0, 0.0])
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh, delimiter="\t"):
            cell = stats[(row["name"], tasks[int(row["task"])]["label"])]
            cell[0] += 1
            cell[1] += float(row["end"]) - float(row["start"])
    print(f"{'span':42} {'label':10} {'calls':>8} {'mean ms':>10} {'total s':>9}")
    for (name, label), (calls, total) in sorted(stats.items()):
        print(f"{name:42} {label:10} {calls:8d} {1e3 * total / calls:10.3f} {total:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
