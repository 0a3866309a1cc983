"""Seeded inputs and task lists of the three benchmark workloads.

A task is one public call a user of `fbq` makes: one `optimize_*` call, one
exact solve, one baseline formula, one `ctmc_solve` or one `simulate`.  Tasks
are plain data (a kind and its parameters), so the same seed always yields a
byte-identical task list; `execute` turns a task into the call.

The amount of work is fixed by the seed and the requested seconds, never by
how fast the machine is, so failure counts and per-layer call counts repeat
exactly for a given seed.  Work comes in blocks of equal composition: a block
is one figure-5 point (`speed_search`), one stratified set of pools
(`threshold_sweep`) or one round of oracle traffic (`oracle_check`).
"""

from __future__ import annotations

import hashlib
import json
import math
import random

import fbq

WORKLOADS = ("speed_search", "threshold_sweep", "oracle_check")

# nominal seconds per block: the pass runs round(seconds / BLOCK_SECONDS)
# blocks, at least one.  At the default 20 s that is 8, 4 and 9 blocks, so
# that each task group's median over blocks has at least three values.
BLOCK_SECONDS = {"speed_search": 2.4, "threshold_sweep": 5.0, "oracle_check": 2.3}

COST_ALPHA = 2.0
FIG3_LOADS = [round(0.63 + 0.03 * k, 10) for k in range(12)]  # figure 3's grid as loads
FIG8_POOL = dict(lam=5.0, mu1=1.0, mu2=0.2, q=0.1, m=10)
FIG8_C2 = (0.5, 1.0, 1.5)
# Pool sizes of a threshold-sweep block: at figure 8's load every m <= 14
# succeeds (even sizes keep a block short) and every m >= 16 fails.  Left
# out: m = 15, where whether the sweep fails flips with the last digits of
# the rates, and m = 16, whose sweeps fail after 1 to 10 thresholds
# depending on the draw; either would make the pass time depend on the draw.
SWEEP_M = (2, 4, 6, 8, 10, 12, 14, 17, 18, 19, 20)
# offered loads of the oracle traffic, as in the acceptance samplers: up to
# them the CTMC truncation stays at n = 64, while near load 0.8 it can grow
# to n = 512 and take a minute per model
ORACLE_LOADS = (0.15, 0.6)
SIM_JOBS = 200_000
SIM_WARMUP = 10_000


def task(kind: str, label: str, **params) -> dict:
    return {"kind": kind, "label": label, "params": params}


def _service(rng, nu1=(2.0, 8.0), nu2=(0.5, 2.0), q=(0.05, 0.5)):
    return dict(nu1=rng.uniform(*nu1), nu2=rng.uniform(*nu2), q=rng.uniform(*q))


def _mean_work(s):
    return 1.0 / s["nu1"] + s["q"] / s["nu2"]


def _strata(rng, n, lo, hi):
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    width = (hi - lo) / n
    out = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(out)
    return out


def _speed_point(rng) -> list[dict]:
    """A figure-5 point (K=2 and K=3 searches) plus the figure-3 policy grid."""
    svc = _service(rng)
    lam = rng.uniform(0.2, 0.65) / _mean_work(svc)
    c2 = rng.uniform(5.0, 40.0)
    out = [
        task("opt_speeds", "K=2", lam=lam, **svc, levels=[0.0, 0.5, 1.0], K=2, c1=1.0, c2=c2),
        task("opt_speeds", "K=3", lam=lam, **svc, levels=[0.0, 0.5, 0.75, 1.0], K=3, c1=1.0, c2=c2),
    ]
    for load in FIG3_LOADS:
        grid_lam = load / _mean_work(svc)
        for kind in ("fcfs", "las", "fb"):
            out.append(task(kind, "fig3", lam=grid_lam, **svc))
    return out


def _pool(rng, m, load):
    """A pool of m servers offered load * m server-equivalents of work."""
    mu1 = rng.uniform(0.5, 2.0)
    mu2 = mu1 * rng.uniform(0.2, 1.0)
    q = rng.uniform(0.05, 0.5)
    lam = load * m / (1.0 / mu1 + q / mu2)
    return dict(lam=lam, mu1=mu1, mu2=mu2, q=q, m=m)


def _fig8_family(rng, m):
    """Figure 8's rate ratios (mu2 = 0.2 mu1, q = 0.1) on m servers, time
    scale mu1 and foreground load lam / (m mu1) drawn near figure 8's 0.5."""
    mu1 = rng.uniform(0.5, 2.0)
    return dict(lam=rng.uniform(0.45, 0.55) * m * mu1, mu1=mu1, mu2=0.2 * mu1, q=0.1, m=m)


def _sweep_block(rng) -> list[dict]:
    """Figure 8's pool and one pool of its family per m in SWEEP_M, each
    swept once per figure-8 cost vector."""
    pools = [("fig8", FIG8_POOL)] + [(f"m={m}", _fig8_family(rng, m)) for m in SWEEP_M]
    rng.shuffle(pools)
    return [task("opt_threshold", label, **p, c1=1.0, c2=c2)
            for label, p in pools for c2 in FIG8_C2]


def _oracle_round(rng) -> list[dict]:
    """Distinct single-server models (K=1..8) and pools (m=2..8), each solved
    exactly and by the CTMC, then one simulation of each model family."""
    models = []
    for K, load in zip(range(1, 9), _strata(rng, 8, *ORACLE_LOADS)):
        svc = _service(rng)
        levels = sorted(rng.uniform(0.2, 1.0) for _ in range(K)) + [1.0]
        model = dict(lam=load / _mean_work(svc), **svc, levels=levels,
                     alpha=rng.uniform(0.5, 3.0))
        models.append(("single", f"K={K}", model))
    for m, load in zip(range(2, 9), _strata(rng, 7, *ORACLE_LOADS)):
        model = _pool(rng, m, load)
        model["threshold"] = rng.randrange(m)
        models.append(("pool", f"m={m}", model))
    rng.shuffle(models)
    out = []
    for family, label, model in models:
        out.append(task(f"solve_{family}", label, **model))
        out.append(task(f"ctmc_{family}", label, **model))

    def sim(kind, model):
        return task(kind, kind, **model, jobs=SIM_JOBS, warmup=SIM_WARMUP,
                    seed=rng.randrange(2**31))

    svc = _service(rng)
    levels = sorted(rng.uniform(0.2, 1.0) for _ in range(2)) + [1.0]
    out.append(sim("sim_single", dict(lam=rng.uniform(0.3, 0.6) / _mean_work(svc), **svc,
                                      levels=levels, alpha=2.0)))
    pool = _pool(rng, rng.randint(2, 5), rng.uniform(0.3, 0.6))
    pool["threshold"] = rng.randrange(pool["m"])
    out.append(sim("sim_pool", pool))
    three = dict(mu1=rng.uniform(2.0, 8.0), mu2=rng.uniform(0.5, 3.0), mu3=rng.uniform(0.3, 2.0),
                 q1=rng.uniform(0.05, 0.6), q2=rng.uniform(0.1, 0.8))
    work = 1.0 / three["mu1"] + three["q1"] / three["mu2"] + three["q1"] * three["q2"] / three["mu3"]
    out.append(sim("sim_three", dict(lam=rng.uniform(0.3, 0.6) / work, **three)))
    return out


_BLOCKS = {"speed_search": _speed_point, "threshold_sweep": _sweep_block,
           "oracle_check": _oracle_round}


def generate(workload: str, seed: int, seconds: float) -> dict:
    """Warm-up tasks and the timed task list of one run.

    Warm-up tasks come from their own stream, so no timed input repeats one
    the process has already seen.
    """
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    blocks = max(1, round(seconds / BLOCK_SECONDS[workload]))
    rng = random.Random(f"{workload}:{seed}")
    tasks = [t for _ in range(blocks) for t in _BLOCKS[workload](rng)]
    warm = _BLOCKS[workload](random.Random(f"{workload}:{seed}:warmup"))
    if workload == "speed_search":
        warm = [t for t in warm if t["label"] != "K=3"][:4]   # K=3 runs the same code as K=2
    elif workload == "threshold_sweep":
        warm = [t for t in warm if t["params"]["m"] <= 4][:1]
    else:
        for t in warm:
            if t["kind"].startswith("sim_"):
                t["params"].update(jobs=20_000, warmup=1_000)
        warm = [t for t in warm if t["label"] in ("K=1", "m=2") or t["kind"].startswith("sim_")]
    return {"workload": workload, "seed": seed, "blocks": blocks, "warmup": warm, "tasks": tasks}


def digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# --- building models and calling fbq -----------------------------------------


def single_model(p, levels=None):
    return fbq.SingleServerModel(
        p["lam"], fbq.CoxianService(p["nu1"], p["nu2"], p["q"]),
        fbq.SpeedProfile(tuple(levels or p["levels"]), alpha=p.get("alpha", COST_ALPHA)))


def pool_model(p, threshold=None):
    return fbq.MultiServerModel(p["lam"], p["mu1"], p["mu2"], p["q"], p["m"],
                                threshold=p.get("threshold", 0) if threshold is None else threshold)


def three_phase_model(p):
    return fbq.ThreePhaseModel(lam=p["lam"], mu1=p["mu1"], mu2=p["mu2"], mu3=p["mu3"],
                               q1=p["q1"], q2=p["q2"])


def _sim(model, p):
    return fbq.simulate(fbq.SimConfig(model=model, jobs=p["jobs"], warmup_jobs=p["warmup"],
                                      seed=p["seed"]))


def execute(t: dict):
    """Make the public call a task stands for and return fbq's result."""
    p, kind = t["params"], t["kind"]
    if kind == "opt_speeds":
        return fbq.optimize_intermediate_speeds(single_model(p), p["K"],
                                                fbq.CostCoefficients(p["c1"], p["c2"]))
    if kind == "opt_threshold":
        return fbq.optimize_threshold(pool_model(p), fbq.CostCoefficients(p["c1"], p["c2"]))
    if kind in ("fcfs", "las"):
        fn = fbq.fcfs_L if kind == "fcfs" else fbq.las_L
        return fn(p["lam"], fbq.CoxianService(p["nu1"], p["nu2"], p["q"]))
    if kind == "fb":
        return fbq.solve_k1_closed_form(single_model(p, levels=(1.0, 1.0)))
    if kind == "solve_single":
        return fbq.solve_general(single_model(p))
    if kind == "solve_pool":
        return fbq.solve_threshold(pool_model(p))
    if kind == "ctmc_single":
        return fbq.ctmc_solve(single_model(p))
    if kind == "ctmc_pool":
        return fbq.ctmc_solve(pool_model(p))
    if kind == "sim_single":
        return _sim(single_model(p), p)
    if kind == "sim_pool":
        return _sim(pool_model(p), p)
    if kind == "sim_three":
        return _sim(three_phase_model(p), p)
    raise ValueError(f"unknown task kind {kind!r}")


def summarize(kind: str, result):
    """The JSON-safe part of a result that the oracle checks."""
    if kind == "opt_speeds":
        profile, cost, curve = result
        return {"levels": list(profile.levels), "cost": cost, "xs": curve.xs, "ys": curve.ys}
    if kind == "opt_threshold":
        best, curve = result
        return {"best": best, "xs": curve.xs, "ys": curve.ys}
    if kind in ("fcfs", "las"):
        return {"L": result}
    fields = ("L", "L1", "L2", "energy_rate", "U", "ci_halfwidth", "edge_mass")
    return {f: getattr(result, f) for f in fields if hasattr(result, f)}


def finite(x) -> bool:
    if isinstance(x, (list, tuple)):
        return all(finite(v) for v in x)
    if isinstance(x, dict):
        return all(finite(v) for v in x.values())
    return isinstance(x, (int, float)) and math.isfinite(x)
