"""One benchmark process: imports `fbq` from the checkout and runs a workload.

    worker.py --role setup --workload W --seed N --seconds S
        imports fbq, generates the inputs, runs the first warm-up task and
        prints "ready <input digest> <reference seconds>"; run.py times this
        from process start.
    worker.py --role pass --workload W --seed N --seconds S --trace 0|1
        runs the warm-up tasks, then the timed pass, and prints one JSON line
        with the pass wall time, peak RSS and each task's status and result;
        with --trace 1 it also records spans and adds per-layer metrics.

Started by run.py, never by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import fbq  # noqa: E402
import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402
import workloads  # noqa: E402

REFERENCE_EVERY_S = 0.5


def run_task(t):
    """(status, result, error) of one task; errors are recorded, not raised."""
    try:
        return "ok", workloads.execute(t), None
    except fbq.SolverError as exc:
        return "solver_error", None, f"SolverError: {exc}"
    except Exception as exc:  # the pass must go on; the error is reported per task
        return "other_error", None, f"{type(exc).__name__}: {exc}"


def reference_work():
    """Fixed work in the style of fbq's inner loops (float arithmetic on
    short lists, calls, small dense LU solves through scipy), but none of
    fbq's code: its time tells how fast the machine runs at that moment."""
    coeffs = [1.0 / (k + 1) for k in range(8)]
    a = np.eye(10) * 4.0 + 0.1
    acc = 0.0
    for i in range(1500):
        x = (i % 101) * 0.01
        out = [0.0] * 8
        for j in range(8):
            out[j] = coeffs[j] * x + out[j - 1] * 0.5
        acc += max(out) - min(out)
        if i % 10 == 0:
            acc += scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), np.full(10, x))[0]
    return acc


def reference_seconds(repeats=3):
    """Best of a few timings of `reference_work`."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  Not getrusage's ru_maxrss:
    Linux carries that over from the parent's memory across the exec that
    started this process, so it would never read below the parent's size."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed_pass(tasks, tracer=None):
    """Wall time of the whole pass and, per task, (status, result, error,
    seconds, reference seconds).  The reference work is timed between tasks
    at least every REFERENCE_EVERY_S; a task's reference time is the mean of
    the samples taken just before and just after it."""
    execute = run_task if tracer is None else tracer.span("task", run_task)
    clock = time.perf_counter
    records = []
    samples = [reference_seconds()]
    sample_of = []          # index of the last reference sample before each task
    last = t0 = clock()
    for k, t in enumerate(tasks):
        if tracer is not None:
            tracer.task = k
        start = clock()
        records.append(execute(t) + (clock() - start,))
        sample_of.append(len(samples) - 1)
        if clock() - last >= REFERENCE_EVERY_S or k == len(tasks) - 1:
            samples.append(reference_seconds())
            last = clock()
    wall = clock() - t0
    return wall, [rec + (0.5 * (samples[i] + samples[i + 1]),) for rec, i in zip(records, sample_of)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "pass"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced pass writes its spans to")
    args = ap.parse_args(argv)

    inputs = workloads.generate(args.workload, args.seed, args.seconds)
    digest = workloads.digest(inputs)
    if args.role == "setup":
        run_task(inputs["warmup"][0])
        print("ready", digest, reference_seconds(repeats=10), flush=True)
        return 0

    for t in inputs["warmup"]:
        run_task(t)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        wall, records = timed_pass(inputs["tasks"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = peak_rss_kb() / 1024.0

    out = {
        "digest": digest,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "tasks": [
            {"status": status, "error": error, "seconds": seconds, "reference_s": reference_s,
             "result": None if result is None else workloads.summarize(t["kind"], result)}
            for t, (status, result, error, seconds, reference_s) in zip(inputs["tasks"], records)
        ],
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
