"""Checks of task results, run after the timed pass.

Exact answers are compared with the truncated-CTMC oracle (`fbq.ctmc_solve`)
to EXACT_RTOL, closed-form baselines with formulas evaluated here from first
principles, and simulations with the CTMC value inside SIM_CI_MULT of their
confidence half-width.  Each check returns the indices of the tasks whose
results are wrong; it raises `OracleUnavailable` when the check itself cannot
run, for example because the CTMC oracle fails on the model.
"""

from __future__ import annotations

import random

import numpy as np

import fbq
from workloads import FIG8_C2, finite, pool_model, single_model

EXACT_RTOL = 1e-8     # exact solvers against the CTMC oracle
FORMULA_RTOL = 1e-12  # FCFS against the Pollaczek-Khinchine mean
LAS_RTOL = 1e-6       # LAS against a dense-grid evaluation of Schrage's integral
SIM_CI_MULT = 5.0     # simulated L within this many 95% CI half-widths of the CTMC
FB_CHECK_MAX_LOAD = 0.66  # the CTMC checks FB points only up to this load


class OracleUnavailable(RuntimeError):
    """A result could not be checked at all."""


def _ctmc(model):
    try:
        return fbq.ctmc_solve(model)
    except (fbq.SolverError, fbq.ModelError) as exc:
        raise OracleUnavailable(f"ctmc_solve failed on {model}: {exc}") from exc


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(b), 1e-12)


def _single_cost(p, levels):
    sol = _ctmc(single_model(p, levels=levels))
    return p["c1"] * sol.L + p["c2"] * sol.energy_rate


def _fcfs_L(p):
    nu1, nu2, q, lam = p["nu1"], p["nu2"], p["q"], p["lam"]
    m1 = 1.0 / nu1 + q / nu2
    m2 = 2.0 / nu1**2 + q * (2.0 / (nu1 * nu2) + 2.0 / nu2**2)
    rho = lam * m1
    return rho + lam**2 * m2 / (2.0 * (1.0 - rho))


def _las_L(p, points=400_001):
    """Schrage's LAS mean from the Coxian survival on a dense grid."""
    nu1, nu2, q, lam = p["nu1"], p["nu2"], p["q"], p["lam"]
    x = np.linspace(0.0, 45.0 / min(nu1, nu2), points)
    e1, e2 = np.exp(-nu1 * x), np.exp(-nu2 * x)
    surv = (1.0 - q) * e1 + q * (nu2 * e1 - nu1 * e2) / (nu2 - nu1)
    dens = (1.0 - q) * nu1 * e1 + q * nu1 * nu2 * (e1 - e2) / (nu2 - nu1)
    h = x[1] - x[0]

    def cumulative(f):
        return np.concatenate([[0.0], np.cumsum(0.5 * h * (f[1:] + f[:-1]))])

    rho_x = lam * cumulative(surv)
    m2_x = 2.0 * cumulative(x * surv)
    resp = x / (1.0 - rho_x) + lam * m2_x / (2.0 * (1.0 - rho_x) ** 2)
    g = dens * resp
    return lam * h / 3.0 * (g[0] + g[-1] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-1:2].sum())


def check_speed_point(tasks, results, rng):
    """One figure-5 point: both optima, a sample of each curve, and the
    figure-3 grid (every FCFS value, one LAS and one FB value)."""
    wrong = []
    for k, (t, r) in enumerate(zip(tasks, results)):
        if r is None:
            continue
        p = t["params"]
        if t["kind"] == "opt_speeds":
            ok = _close(r["cost"], _single_cost(p, r["levels"]), EXACT_RTOL)
            i = rng.randrange(len(r["xs"]))
            x, y = r["xs"][i], r["ys"][i]
            if p["K"] == 2:
                ok = ok and _close(y, _single_cost(p, (0.0, x, 1.0)), EXACT_RTOL)
            else:
                # min over s2 of the cost at s1 = x: at least the optimum and
                # at most the cost of s2 at the top speed
                upper = _single_cost(p, (0.0, x, 1.0, 1.0))
                ok = ok and r["cost"] * (1 - EXACT_RTOL) <= y <= upper * (1 + EXACT_RTOL)
        elif t["kind"] == "fcfs":
            ok = _close(r["L"], _fcfs_L(p), FORMULA_RTOL)
        else:
            ok = finite(r) and r["L"] > 0
        if not ok:
            wrong.append(k)
    las = [k for k, t in enumerate(tasks) if t["kind"] == "las" and results[k] is not None]
    if las:
        k = rng.choice(las)
        if not _close(results[k]["L"], _las_L(tasks[k]["params"]), LAS_RTOL):
            wrong.append(k)
    fb = [k for k, t in enumerate(tasks) if t["kind"] == "fb" and results[k] is not None
          and t["params"]["lam"] * (1 / t["params"]["nu1"] + t["params"]["q"] / t["params"]["nu2"])
          <= FB_CHECK_MAX_LOAD]
    if fb:
        k = rng.choice(fb)
        ora = _ctmc(single_model(tasks[k]["params"], levels=(1.0, 1.0)))
        if not all(_close(results[k][f], getattr(ora, f), EXACT_RTOL) for f in ("L", "L1", "L2")):
            wrong.append(k)
    return wrong


def check_pool_sweeps(tasks, results, rng):
    """Sweeps of one pool (one task per cost vector): at one seeded
    threshold, every returned cost must equal c1*L + c2*U of the CTMC."""
    done = [k for k, r in enumerate(results) if r is not None]
    if not done:
        return []
    p = tasks[done[0]]["params"]
    threshold = rng.randrange(p["m"])
    ora = _ctmc(pool_model(p, threshold=threshold))
    wrong = []
    for k in done:
        c = tasks[k]["params"]
        r = results[k]
        if not (finite(r) and r["ys"][r["best"]] == min(r["ys"])
                and _close(r["ys"][threshold], c["c1"] * ora.L + c["c2"] * ora.U, EXACT_RTOL)):
            wrong.append(k)
    return wrong


def _exact_fields(kind):
    return ("L", "L1", "L2", "energy_rate") if kind.endswith("single") else ("L", "L1", "L2", "U")


def check_exact_pair(tasks, results, rng):
    """One model solved exactly and by the CTMC: both agree to EXACT_RTOL,
    or both count as wrong, since the check cannot tell which one is."""
    (exact, ctmc), (t_exact, t_ctmc) = results, tasks
    if ctmc is None:
        if exact is None:
            return []
        raise OracleUnavailable(f"ctmc_solve task raised; cannot check {t_exact['kind']} "
                                f"{t_exact['label']}")
    if exact is None:
        return [] if finite(ctmc) else [1]
    fields = _exact_fields(t_exact["kind"])
    if all(_close(exact[f], ctmc[f], EXACT_RTOL) for f in fields):
        return []
    return [0, 1]


def check_simulation(tasks, results, rng):
    (t,), (r,) = tasks, results
    if r is None:
        return []
    p = t["params"]
    if t["kind"] == "sim_three":
        ok = (finite(r) and r["ci_halfwidth"] > 0
              and abs(r["L"] - r["L1"] - r["L2"]) <= 1e-12 * abs(r["L"]))
    else:
        model = single_model(p) if t["kind"] == "sim_single" else pool_model(p)
        ok = finite(r) and abs(r["L"] - _ctmc(model).L) <= SIM_CI_MULT * r["ci_halfwidth"]
    return [] if ok else [0]


def groups(workload, tasks):
    """Split a task list into the units a check looks at together."""
    if workload == "speed_search":
        starts = [k for k, t in enumerate(tasks) if t["label"] == "K=2"]
        bounds = starts + [len(tasks)]
        return [(check_speed_point, list(range(a, b))) for a, b in zip(bounds, bounds[1:])]
    if workload == "threshold_sweep":
        per = len(FIG8_C2)
        return [(check_pool_sweeps, list(range(k, k + per))) for k in range(0, len(tasks), per)]
    out = []
    k = 0
    while k < len(tasks):
        if tasks[k]["kind"].startswith("sim_"):
            out.append((check_simulation, [k]))
            k += 1
        else:
            out.append((check_exact_pair, [k, k + 1]))
            k += 2
    return out


def check(workload, seed, tasks, results):
    """Indices of tasks that returned a wrong answer."""
    rng = random.Random(f"{workload}:{seed}:oracle")
    wrong = []
    for fn, idx in groups(workload, tasks):
        bad = fn([tasks[k] for k in idx], [results[k] for k in idx], rng)
        wrong.extend(idx[k] for k in bad)
    return sorted(wrong)
