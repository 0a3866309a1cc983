"""fbq benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload speed_search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; `fbq` is imported from its `src/`.  With
--trace 0 the last line is a JSON object with the end-to-end metrics, with
--trace 1 one with the per-layer metrics; the names and units are those of
BENCHMARK.json.  Lines before it list every metric by name and unit, the
threads used and the failed tasks.  See perfbench/README.md.

Exit codes: 0 after printing a result, 1 when a task result could not be
checked at all or a benchmark process failed, 2 on bad arguments or when the
checkout holds no fbq sources.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_RUNS = 3          # fresh interpreters timed for setup_s; the median is reported
CHILD_TIMEOUT_S = 150
# best time of worker.reference_work seen on the machine this benchmark was
# built on (2-vCPU x86 virtual machine, Python 3.11); times are scaled to that speed
REFERENCE_NOMINAL_S = 0.0057


def fail(message: str, code: int = 1):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, by library."""
    import ctypes

    libs = sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def worker_cmd(role, args, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]


def at_reference_speed(seconds, reference_s):
    """A time scaled to the reference machine speed, by the time the
    reference work took in the same process at the same moment."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def machine_speed(records):
    """Median over a pass's tasks of the machine speed, as a share of the
    reference speed."""
    return statistics.median(REFERENCE_NOMINAL_S / rec["reference_s"] for rec in records)


def time_setup(args, digest):
    """Median over fresh interpreters of the time from process start until
    the first warm-up task has completed: (wall, at reference speed)."""
    wall, scaled = [], []
    for _ in range(SETUP_RUNS):
        line = ""
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_cmd("setup", args), stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            if select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
                line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("ready "):
            fail(f"setup process exited with {proc.returncode}")
        _, probe_digest, reference_s = line.split()
        if probe_digest != digest:
            fail("setup process generated different inputs from the same seed")
        wall.append(elapsed)
        scaled.append(at_reference_speed(elapsed, float(reference_s)))
    return statistics.median(wall), statistics.median(scaled)


def run_pass(args, trace):
    extra = ["--trace", str(trace)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        extra += ["--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(worker_cmd("pass", args, *extra), stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed pass exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"timed pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def block_seconds(tasks, records, blocks, scaled=True):
    """Time of a typical block: for each task group (kind and model size)
    the median over blocks of the group's time in a block, summed over
    groups.  With `scaled`, each task's time is first scaled to the
    reference machine speed, which cancels the stretches in which the
    shared machine runs slow."""
    per_block = len(tasks) // blocks
    groups = defaultdict(lambda: [0.0] * blocks)
    for k, (t, rec) in enumerate(zip(tasks, records)):
        seconds = rec["seconds"]
        if scaled:
            seconds = at_reference_speed(seconds, rec["reference_s"])
        groups[(t["kind"], t["label"])][k // per_block] += seconds
    return sum(statistics.median(times) for times in groups.values())


def report_failures(tasks, records, wrong):
    kinds = Counter()
    by_label = Counter()
    lines = []
    for k, (t, rec) in enumerate(zip(tasks, records)):
        cause = rec["status"] if rec["status"] != "ok" else ("wrong_answer" if k in wrong else None)
        if cause is None:
            continue
        kinds[cause] += 1
        by_label[t["label"]] += 1
        detail = rec["error"] or "result disagrees with the oracle"
        lines.append(f"  task {k} {t['kind']} {t['label']}: {cause}: {detail[:120]}")
    print("failures: " + ", ".join(f"{c} {kinds[c]}" for c in ("solver_error", "other_error",
                                                                "wrong_answer")))
    if by_label:
        print("failed tasks by label: " + ", ".join(f"{lab} {n}" for lab, n in sorted(by_label.items())))
        for line in lines[:40]:
            print(line)
        if len(lines) > 40:
            print(f"  ... {len(lines) - 40} more")


def emit(names_units, values):
    metrics = {}
    for name, unit in names_units:
        if name not in values:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} = {values[name]!r} {unit}")
    return metrics


def run_workload(args, spec):
    import oracle
    import workloads

    inputs = workloads.generate(args.workload, args.seed, args.seconds)
    digest = workloads.digest(inputs)
    tasks = inputs["tasks"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}: "
          f"{inputs['blocks']} blocks, {len(tasks)} tasks, input digest {digest}")

    setup_wall_s, setup_s = (None, None) if args.trace else time_setup(args, digest)
    plain = run_pass(args, 0)
    traced = run_pass(args, 1) if args.trace else None
    for out in filter(None, (plain, traced)):
        if out["digest"] != digest:
            fail("timed pass generated different inputs from the same seed")

    records = plain["tasks"]
    results = [rec["result"] for rec in records]
    try:
        wrong = set(oracle.check(args.workload, args.seed, tasks, results))
    except oracle.OracleUnavailable as exc:
        fail(f"oracle check could not run: {exc}")
    good = sum(rec["status"] == "ok" and k not in wrong for k, rec in enumerate(records))
    attempted = len(tasks)
    correct = all(rec["result"] is None or workloads.finite(rec["result"]) for rec in records)
    if traced is not None and [r["result"] for r in traced["tasks"]] != results:
        print("tracing changed the results of the pass")
        correct = False

    report_failures(tasks, records, wrong)
    print(f"fail_ratio {(attempted - good) / attempted!r} ({attempted - good} of {attempted} tasks)")
    blocks = inputs["blocks"]
    block_s = block_seconds(tasks, records, blocks)
    wall_block_s = block_seconds(tasks, records, blocks, scaled=False)
    print(f"pass wall time {plain['wall_s']:.3f} s; {blocks} blocks, typical block "
          f"{wall_block_s:.3f} s wall, {block_s:.3f} s at reference speed "
          f"(machine ran at {machine_speed(records):.3f} of it)")
    print(f"unscaled: good tasks per wall second {good / (blocks * wall_block_s):.4f} 1/s"
          + ("" if setup_wall_s is None else f", set-up wall time {setup_wall_s:.4f} s"))
    if args.trace:
        speed = machine_speed(traced["tasks"])
        values = {}
        for name, value in traced["layers"].items():
            if name.endswith("_s"):
                value *= speed
            elif name.startswith("simulate.arrivals_per_s."):
                value /= speed
            values[name] = value
        values["trace.overhead_ratio"] = block_seconds(tasks, traced["tasks"], blocks) / block_s
        metrics = emit([(m["name"], m["unit"]) for m in spec["per_layer"]], values)
    else:
        values = {
            "good_tasks_per_s": good / (blocks * block_s),
            "good_ratio": good / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        metrics = emit([(m["name"], m["unit"]) for m in spec["end_to_end"]], values)
    return {"correct": correct, "attempted": attempted, "failed": attempted - good, "metrics": metrics}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "fbq", "__init__.py")):
        fail(f"no fbq sources under {SRC}; run from the root of an fbq checkout", 2)
    # one thread per BLAS library, here and in the workers: load comes from a
    # single process; set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import fbq

    if not os.path.abspath(fbq.__file__).startswith(SRC + os.sep):
        fail(f"imported fbq from {fbq.__file__}, not from this checkout", 2)
    print(f"threads: BLAS {blas_threads() or 'none loaded'}, nproc {len(os.sched_getaffinity(0))}, "
          f"worker processes 1")

    for workload in (names if args.workload == "all" else [args.workload]):
        args.workload = workload
        print(json.dumps(run_workload(args, spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
