"""The boundary system of fbq.multi against a plain-loop reference.

The reference below states the per-state rules of the inhomogeneous vector
b(z) as loops over t and j and builds every threshold's boundary system from
them: the balance rows, one row per zero of the transform determinant and
the idle-or-stopped server normalisation.  The fill that both pool paths
solve, reference.pool_fill, which states the rule state by state rather
than by t, must equal it exactly at every threshold, also where the solve
then fails; the compiled loop `fbq_pool_system` must give the same
solution bits or error as that Python path.  The Taylor data at z = 1 (A0,
A1, A2, and the b0, b1, b2 that reference.pool_taylor sums) are checked
against PowerSeries arithmetic.
"""

import json
import pathlib
import random

import numpy as np
import pytest

from fbq import multi
from fbq.models import MultiServerModel, SolverError
from fbq.series import PowerSeries, kernel_root_pair_at_1
import reference

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "threshold_sweep_pins.json").read_text())


def drawn_pools():
    rng = random.Random(8)
    pools = {}
    for m in range(1, 9):
        for q in (0.0, 1.0, rng.uniform(0.05, 0.95)):
            mu1, mu2 = rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0)
            lam = rng.uniform(0.3, 0.85) * m / (1.0 / mu1 + q / mu2)
            pools[f"m{m}-q{q:.3g}"] = dict(lam=lam, mu1=mu1, mu2=mu2, q=q, m=m)
    pools["seed14_m14"] = PINS["pools"]["seed14_m14"]
    pools["failing_m20"] = {k: v for k, v in PINS["failing_pool"].items() if k != "message"}
    return pools


POOLS = drawn_pools()


def b_terms(model, K, t, z, zm1, zpow):
    """Coefficients of b_t(z) in the boundary probabilities; zpow[j] is z^j."""
    mu1, mu2, q, m = model.mu1, model.mu2, model.q, model.m
    coeffs = {}
    if K >= 1 and t <= K:
        # (t, K - t) is stopped, and so is (t + 1, K - t - 1) below it
        zk = zpow[K - t]
        coeffs[(t, K - t)] = (t * mu1 * z + (m - t) * mu2 * zm1) * zk
        if t <= K - 1:
            coeffs[(t + 1, K - t - 1)] = -(t + 1) * mu1 * (1.0 - q + q * z) * zk
        for j in range(K - t + 1, m - t):
            coeffs[(t, j)] = mu2 * zm1 * (m - t - j) * zpow[j]
    else:
        for j in range(0, m - t):
            coeffs[(t, j)] = mu2 * zm1 * (m - t - j) * zpow[j]
    return coeffs


def reference_system(model, K):
    lam, mu1, mu2, q, m = model.lam, model.mu1, model.mu2, model.q, model.m
    states = [(i, j) for i in range(m) for j in range(max(0, K - i), m - i)]
    idx = {s: k for k, s in enumerate(states)}
    n = len(states)
    rows = [[0.0] * n for _ in range(n)]
    rhs = [0.0] * n
    r = 0
    for i in range(m - 1):
        for j in range(max(0, K - i), m - i - 1):
            row = rows[r]
            if K >= 1 and i + j == K:
                row[idx[(i, j)]] += lam
                row[idx[(i + 1, j)]] -= (i + 1) * (1.0 - q) * mu1
                row[idx[(i, j + 1)]] -= (j + 1) * mu2
            else:
                row[idx[(i, j)]] += lam + i * mu1 + min(j, m - i) * mu2
                if i > 0:
                    row[idx[(i - 1, j)]] -= lam
                row[idx[(i + 1, j)]] -= (i + 1) * mu1 * (1.0 - q)
                if j > 0:
                    row[idx[(i + 1, j - 1)]] -= (i + 1) * mu1 * q
                row[idx[(i, j + 1)]] -= min(j + 1, m - i) * mu2
            r += 1
    pool = multi._pool(model)
    for zk, u in zip(pool.roots, reference.shared_parts(m, pool.data[1])[0]):
        row = rows[r]
        zpow = [zk**j for j in range(m)]
        for t in range(m):
            for state, coef in b_terms(model, K, t, zk, zk - 1.0, zpow).items():
                row[idx[state]] += u[t] * coef
        r += 1
    row = rows[r]
    for (i, j), k in idx.items():
        row[k] += float(m) if i + j == K else float(m - i - j)
    rhs[r] = m - model.rho1 - model.rho2
    return states, np.array(rows), np.array(rhs)


def series_matrices(model):
    """A0, A1, A2 of A(z) at z = 1 + t by PowerSeries arithmetic."""
    lam, mu1, mu2, q, m = model.lam, model.mu1, model.mu2, model.q, model.m
    y1, _ = kernel_root_pair_at_1(lam / (m * mu1), q, 3)
    z = PowerSeries.variable(1.0, 3)
    zm1 = PowerSeries([0.0, 1.0, 0.0, 0.0])
    out = np.zeros((3, m, m))
    for i in range(m):
        if i < m - 1:
            a = lam * z + i * mu1 * z + (m - i) * mu2 * zm1
        else:
            a = lam * z * (1.0 - y1) + (m - 1) * mu1 * z + mu2 * zm1
        out[:, i, i] = a.c[:3]
        if i + 1 < m:
            out[:, i, i + 1] = (-(i + 1) * mu1 * z * (1.0 - q + q * z)).c[:3]
        if i > 0:
            out[:, i, i - 1] = (-lam * z).c[:3]
    return out


def series_b(model, K, boundary):
    """b0, b1, b2 of b(z) at z = 1 + t by PowerSeries arithmetic."""
    z = PowerSeries.variable(1.0, 3)
    zm1 = PowerSeries([0.0, 1.0, 0.0, 0.0])
    zpow = [z.pow(j) for j in range(model.m)]
    out = np.zeros((3, model.m))
    for t in range(model.m):
        acc = PowerSeries.constant(0.0, 3)
        for state, coef in b_terms(model, K, t, z, zm1, zpow).items():
            acc = acc + coef * boundary[state]
        out[:, t] = acc.c[:3]
    return out


def assert_close(got, want, rtol=1e-13):
    """Each order's coefficients agree to rtol relative to that order's largest."""
    for order, (g, w) in enumerate(zip(got, want)):
        assert np.abs(g - w).max() <= rtol * np.abs(w).max(), (order, np.abs(g - w).max())


def outcome(model):
    """The solution's fields, or the error's type and message."""
    try:
        sol = multi.solve_threshold(model)
    except SolverError as exc:
        return type(exc), str(exc)
    return [getattr(sol, f) for f in ("boundary", "g_at_1", "g_m_at_1", "L1", "L2", "U", "p")]


@pytest.mark.parametrize("name", sorted(POOLS))
def test_every_threshold_hands_over_the_reference_system(name, on_both_paths):
    pool = POOLS[name]
    models = [MultiServerModel(**pool, threshold=K) for K in range(pool["m"])]
    compiled, python = on_both_paths(lambda: [outcome(model) for model in models])
    assert compiled == python, name
    for model, result in zip(models, compiled):
        assert_hands_over_the_reference_system(model, result, (name, model.threshold))
    multi._pool_data.cache_clear()


def assert_hands_over_the_reference_system(model, result, where):
    """Checks the system that reference.pool_fill fills for model, and the
    b that reference.pool_taylor sums from the solved boundary."""
    K, pool = model.threshold, multi._pool(model)
    states, a_ref, rhs_ref = reference_system(model, K)
    a, rhs = reference.pool_fill(model, K, pool, states)
    assert np.array_equal(a, a_ref) and np.array_equal(rhs, rhs_ref), where
    if isinstance(result, list):
        boundary = result[0]
        assert list(boundary) == states
        b = reference.pool_taylor(model, K, pool, states, list(boundary.values()))
        assert_close(b, series_b(model, K, boundary))


@pytest.mark.parametrize("name", sorted(POOLS))
def test_taylor_matrices_at_one_match_power_series(name):
    model = MultiServerModel(**POOLS[name])
    tri = reference.shared_parts(model.m, multi._pool(model).data[1])[2]
    assert_close(np.array([reference.dense(*t) for t in tri]), series_matrices(model))
