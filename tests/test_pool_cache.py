"""The per-pool cache of fbq.multi: what a pool solve shares across thresholds.

Roots, the null vectors at the roots and the z = 1 Taylor data are built once
per (lam, mu1, mu2, q, m) and kept by `_pool_data`; a threshold never enters
the key.  Each threshold's solution is kept there too, by K, as a read-only
value whose one object every hit serves, and so is the type and message of
a threshold whose solve raised SolverError.  Cold and warm solves must
agree exactly, checks must run on every call, and no other failure may be
cached.
data/d_roots_pins.json holds, as float.hex strings, the zeros of the pools
of threshold_sweep_pins.json and their determinant and leading minors at nine
points of [0, 1]; they must be reproduced bit for bit, so a reordered product
in either recurrence fails.  It also holds 50-digit zeros of those pools and
of seeded pools with m = 2..24, which every float zero must match to 2e-15
relative.  The zeros of the seeded pools must also equal, bit for bit, those
that the same Sturm search finds on plain-loop copies of the recurrences,
which form every matrix entry from the rates inside the loop.  The compiled
search must give the zeros, counts and error messages of the Python search
reference.isolate_roots on the pinned, seeded and scanned pools, and a
search that stops early must raise its status.

Each threshold's system is filled, and b summed, by the compiled loop
fbq_pool_system, and its Taylor cascade and the null vectors call LAPACK's
gelsd and gesdd directly; every threshold of the seeded and pinned pools
must hand the LU the same system bytes, and give the same solution or
error, as the Python fill reference.pool_fill and pool_taylor with the
null vectors and the cascade of scipy.linalg.svd and lstsq kept below.
Each threshold is filled and solved once per pool, and a kept failure is
raised again with no fill and no solve.  The compiled loops and their
references must hand the LU the same bytes, signed zeros included, and
return the same solution bits or error, on figure 8, a seeded
threshold_sweep block, q = 0 and q = 1 pools, at every threshold.
"""

import dataclasses
import importlib.util
import json
import logging
import math
import pathlib
import random
import re
import sys

import numpy as np
import pytest
import scipy.linalg

from fbq import multi
from fbq.ctmc import ctmc_solve
from fbq.experiments import optimize_threshold
from fbq.models import FrozenDict, ModelError, MultiServerModel, SolverError, UnstableModelError
from fbq.models import CostCoefficients
from fbq.multi import (
    POOL_CACHE_SIZE,
    _det_at,
    _pool_data,
    d_roots,
    evaluate_cost_multi,
    solve_threshold,
    sweep_thresholds,
)
import reference
from test_threshold_sweep import same_failure

DATA = pathlib.Path(__file__).parent / "data"
WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
KERNELS = sys.modules["fbq._kernels"]
LINSYS = sys.modules["fbq.linsys"]
PINS = json.loads((DATA / "threshold_sweep_pins.json").read_text())
RECURRENCE_PINS = json.loads((DATA / "d_roots_pins.json").read_text())
ROOT_PINS = RECURRENCE_PINS["roots"]
POOL = dict(lam=2.2452256904831636, mu1=1.845410878679858, mu2=0.8178875656640092,
            q=0.252986981887458, m=6)


@pytest.fixture(autouse=True)
def cold_cache():
    _pool_data.cache_clear()
    yield
    _pool_data.cache_clear()


def assert_same_solutions(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        for field in dataclasses.fields(x):
            assert getattr(x, field.name) == getattr(y, field.name), field.name


def test_cold_and_warm_sweeps_are_equal():
    model = MultiServerModel(**POOL)
    cold = sweep_thresholds(model)
    assert _pool_data.cache_info().misses == 1
    warm = sweep_thresholds(model)
    assert _pool_data.cache_info().hits >= 1
    assert_same_solutions(cold, warm)


def test_pools_differing_only_in_threshold_share_one_entry():
    for K in (0, 3, 5, 1):
        solve_threshold(MultiServerModel(**POOL, threshold=K))
    info = _pool_data.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


def test_a_pool_one_ulp_away_does_not_share_an_entry():
    model = MultiServerModel(**POOL)
    near = dataclasses.replace(model, lam=math.nextafter(model.lam, math.inf))
    d_roots(model)
    d_roots(near)
    assert _pool_data.cache_info().currsize == 2


def count_calls(monkeypatch, *names):
    """Wrap the named functions of fbq.multi so that their calls are counted."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(multi, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(multi, name, counted(name))
    return calls


def test_threshold_independent_parts_are_built_once_per_pool(monkeypatch):
    calls = count_calls(monkeypatch, "_null_vectors", "kernel_root_pair_at_1")
    model = MultiServerModel(**POOL)
    sweep_thresholds(model)
    sweep_thresholds(model)
    solve_threshold(dataclasses.replace(model, threshold=2))
    # one null vector per root and one null pair of A(1)
    assert calls == {"_null_vectors": model.m, "kernel_root_pair_at_1": 1}


def test_a_kept_failure_is_raised_again_with_no_fill_and_no_solve(monkeypatch, solves):
    calls = count_calls(monkeypatch, "_solve_one")   # which fills, solves and sums b
    model = MultiServerModel(**POOL)
    for K in (3, 0):
        solve_threshold(dataclasses.replace(model, threshold=K))
    sweep_thresholds(model)
    assert (calls["_solve_one"], solves[0]) == (model.m, model.m)
    pin = {k: v for k, v in PINS["failing_pool"].items() if k != "message"}
    for attempt in (1, 2):
        with pytest.raises(SolverError):
            sweep_thresholds(MultiServerModel(**pin))
        # the failure at K = 0 is kept, so the second attempt fills and solves nothing
        assert (calls["_solve_one"], solves[0]) == (model.m + 1, model.m + 1)


def test_building_a_pool_logs_one_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="fbq.multi"):
        for K in (0, 2):
            solve_threshold(MultiServerModel(**POOL, threshold=K))
    lines = [r.getMessage() for r in caplog.records if r.name == "fbq.multi"]
    assert len(lines) == 1
    found = re.fullmatch(r"m = 6: 5 zeros isolated, (\d+) sign counts, (\d+) D evaluations, "
                         r"\d+\.\d{3} s", lines[0])
    assert found, lines[0]
    # the counts of the Python search, which are the two ends and at least
    # one count per split, and at least two brentq evaluations per zero
    counts, evals = reference.isolate_roots(MultiServerModel(**POOL))[1:]
    assert (int(found[1]), int(found[2])) == (counts, evals)
    assert counts >= 2 + 4 and evals >= 2 * 5


def test_a_hit_serves_the_kept_objects():
    model = MultiServerModel(**POOL, threshold=2)
    served = solve_threshold(model)
    assert solve_threshold(model) is served
    assert sweep_thresholds(model)[2] is served
    for K, sol in enumerate(sweep_thresholds(model)):
        assert solve_threshold(dataclasses.replace(model, threshold=K)) is sol
    assert d_roots(model) is d_roots(model) is served.roots


def test_d_roots_match_the_pinned_zeros_bit_for_bit():
    # the pools of threshold_sweep_pins.json; the failing m = 20 pool still
    # isolates its 19 zeros and fails later, in its boundary solve
    pools = {**PINS["pools"], "failing_pool": PINS["failing_pool"]}
    assert sorted(ROOT_PINS) == sorted(pools)
    for name, params in pools.items():
        model = MultiServerModel(**{k: v for k, v in params.items() if k != "message"})
        assert len(ROOT_PINS[name]) == model.m - 1, name
        assert [z.hex() for z in d_roots(model)] == ROOT_PINS[name], name


def test_determinant_and_minors_match_the_pinned_values_bit_for_bit():
    zs = [float.fromhex(z) for z in RECURRENCE_PINS["z"]]
    for name, params in {**PINS["pools"], "failing_pool": PINS["failing_pool"]}.items():
        model = MultiServerModel(**{k: v for k, v in params.items() if k != "message"})
        assert [_det_at(model, z).hex() for z in zs] == RECURRENCE_PINS["det"][name], name
        minors = [[x.hex() for x in reference.sturm_sequence(model, z)[1:model.m]] for z in zs]
        assert minors == RECURRENCE_PINS["minors"][name], name


def test_d_roots_match_the_50_digit_zeros():
    pools = {name: MultiServerModel(**{k: v for k, v in params.items() if k != "message"})
             for name, params in {**PINS["pools"], "failing_pool": PINS["failing_pool"]}.items()}
    pools.update((f"seed26_m{model.m}", model) for model in seeded_pools())
    refs = RECURRENCE_PINS["roots_50_digits"]
    assert sorted(refs) == sorted(pools)
    for name, model in pools.items():
        assert len(refs[name]) == model.m - 1, name
        np.testing.assert_allclose(d_roots(model), [float(z) for z in refs[name]],
                                   rtol=2e-15, atol=0, err_msg=name)


def test_failing_pool_raises_the_pinned_error_every_time():
    pin = dict(PINS["failing_pool"])
    message = pin.pop("message")
    model = MultiServerModel(**pin)
    raised = []
    for _ in range(2):
        with pytest.raises(SolverError) as exc:
            sweep_thresholds(model)
        raised.append(str(exc.value))
    assert raised[0] == raised[1]
    assert same_failure(raised[0], message), raised[0]


def test_checks_run_after_a_neighbouring_pool_warmed_the_cache():
    sweep_thresholds(MultiServerModel(**POOL))
    idle = MultiServerModel(**{**POOL, "lam": 0.0})
    with pytest.raises(ModelError, match="arrival rate must be positive"):
        d_roots(idle)
    with pytest.raises(ModelError, match="arrival rate must be positive"):
        sweep_thresholds(idle)
    capacity = POOL["m"] / (1.0 / POOL["mu1"] + POOL["q"] / POOL["mu2"])
    unstable = MultiServerModel(**{**POOL, "lam": 1.01 * capacity})
    with pytest.raises(UnstableModelError):
        solve_threshold(unstable)
    with pytest.raises(UnstableModelError):
        sweep_thresholds(unstable)
    assert _pool_data.cache_info().currsize == 1


def test_cache_stays_bounded():
    for k in range(POOL_CACHE_SIZE + 5):
        d_roots(MultiServerModel(0.5 + 0.001 * k, 1.0, 0.5, 0.2, 2))
    info = _pool_data.cache_info()
    assert info.maxsize == POOL_CACHE_SIZE
    assert info.currsize <= POOL_CACHE_SIZE
    assert info.misses == POOL_CACHE_SIZE + 5


@pytest.fixture
def solves(monkeypatch):
    """The number of boundary systems handed to the solver."""
    calls = [0]
    solve = multi.solve_scaled_system

    def counted(*args):
        calls[0] += 1
        return solve(*args)
    monkeypatch.setattr(multi, "solve_scaled_system", counted)
    return calls


def test_each_threshold_is_solved_once_per_pool(solves):
    model = MultiServerModel(**POOL)
    first = sweep_thresholds(model)
    assert solves[0] == model.m
    assert_same_solutions(sweep_thresholds(model), first)
    _, curve = optimize_threshold(model, CostCoefficients(1.0, 2.5))
    assert curve.ys == [evaluate_cost_multi(sol, CostCoefficients(1.0, 2.5)) for sol in first]
    for K in (4, 0, 5):
        assert_same_solutions([solve_threshold(dataclasses.replace(model, threshold=K))],
                              [first[K]])
    assert solves[0] == model.m


def test_a_failed_threshold_is_solved_once_and_raises_the_same_message_every_time(solves):
    pin = dict(PINS["failing_pool"])
    message = pin.pop("message")
    model = MultiServerModel(**pin)
    raised = set()
    for calls in (1, 2, 3):
        with pytest.raises(SolverError) as exc:
            solve_threshold(model) if calls == 2 else sweep_thresholds(model)
        assert type(exc.value) is SolverError
        raised.add(str(exc.value))
        assert solves[0] == 1
    (first,) = raised
    assert same_failure(first, message), first


def test_a_served_solution_rejects_edits_and_the_next_serve_is_unchanged():
    model = MultiServerModel(**POOL, threshold=2)
    served = solve_threshold(model)
    expected = solution_hex(served)
    edits = [lambda: served.boundary.__setitem__((0, 2), -1.0),
             lambda: served.boundary.__setitem__((9, 9), 1.0),
             lambda: served.boundary.pop((0, 2)),
             lambda: served.boundary.update({(0, 2): -1.0}),
             lambda: served.boundary.clear(),
             lambda: served.p.__setitem__(0, -1.0),
             lambda: served.g_at_1.append(2.0),
             lambda: served.roots.__setitem__(0, -1.0),
             lambda: d_roots(model).__setitem__(0, -1.0),
             lambda: setattr(served, "L", 0.0)]
    for edit in edits:
        with pytest.raises((TypeError, AttributeError)):
            edit()
    assert solution_hex(solve_threshold(model)) == expected
    assert solution_hex(sweep_thresholds(model)[2]) == expected


# --- the Sturm search on plain loops over the rates ---------------------------


def reference_det(model, z):
    lam, mu1, mu2, q, m = model.lam, model.mu1, model.mu2, model.q, model.m
    zm1 = z - 1.0
    nxt, cur = 1.0, lam * z * (1.0 - multi._y1_float(model, z)) + (m - 1) * mu1 * z + mu2 * zm1
    for t in range(m - 2, -1, -1):
        a = lam * z + t * mu1 * z + (m - t) * mu2 * zm1
        alam = (t + 1) * mu1 * z * (1.0 - q + q * z) * (lam * z)
        nxt, cur = cur, a * cur - alam * nxt
    return cur


def reference_sequence(model, z):
    lam, mu1, mu2, q, m = model.lam, model.mu1, model.mu2, model.q, model.m
    zm1 = z - 1.0
    seq = [1.0]
    for k in range(m):
        a = lam * z + k * mu1 * z + (m - k) * mu2 * zm1
        if k == m - 1:
            a = lam * z * (1.0 - multi._y1_float(model, z)) + (m - 1) * mu1 * z + mu2 * zm1
        if k == 0:
            seq.append(a)
        else:
            alam = k * mu1 * z * (1.0 - q + q * z) * (lam * z)
            seq.append(a * seq[-1] - alam * seq[-2])
    return seq


def seeded_pools():
    """One pool per m = 2..24, cycling q through 0, a drawn value and 1.  On
    the m = 14 and m = 17 pools, both at q = 1, bisection down the interlacing
    zeros of the leading minors loses a zero in floats; sign counts do not."""
    rng = random.Random(26)
    for m in range(2, 25):
        q = (0.0, rng.uniform(0.02, 0.98), 1.0)[m % 3]
        mu1, mu2 = rng.uniform(0.5, 3.0), rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.3, 0.9) * m / (1.0 / mu1 + q / mu2)
        yield MultiServerModel(lam, mu1, mu2, q, m)


def outcome(find_roots, model):
    try:
        return [z.hex() for z in find_roots(model)]
    except SolverError as exc:
        return str(exc)


def test_zeros_equal_the_plain_loop_cascade_bit_for_bit(monkeypatch):
    def reference_roots(model):
        with monkeypatch.context() as patch:
            patch.setattr(reference, "sturm_sequence", reference_sequence)
            patch.setattr(multi, "_det_at", reference_det)
            return reference.isolate_roots(model)[0]

    zs = [0.0, 0.25, 0.5, 0.999, 1.0]
    failed = []
    for model in seeded_pools():
        expected = outcome(reference_roots, model)
        assert outcome(d_roots, model) == expected, model
        if isinstance(expected, str):
            failed.append(model.m)
        assert [_det_at(model, z).hex() for z in zs] == [reference_det(model, z).hex() for z in zs]
        assert [[x.hex() for x in reference.sturm_sequence(model, z)] for z in zs] == \
            [[x.hex() for x in reference_sequence(model, z)] for z in zs], model
    assert failed == []


# --- the compiled zero search against reference.isolate_roots ---------------------


def search_outcome(search, model):
    """The zeros in float.hex with the sign-count and evaluation totals, or
    the type and message of the error."""
    try:
        roots, counts, evals = search(model)
    except RuntimeError as exc:     # SolverError, or brentq's non-convergence
        return type(exc), str(exc)
    return [z.hex() for z in roots], counts, evals


def scanned_pools(count=322):
    """Seeded pools cycling m through 2..24 and q through 0, 1, a drawn value
    and figure 8's ratios (mu2 = 0.2 mu1, q = 0.1), at loads 0.05-0.95."""
    rng = random.Random(22)
    for n in range(count):
        m, kind = 2 + n % 23, n % 4
        mu1 = rng.uniform(0.2, 5.0)
        mu2, q = ((rng.uniform(0.05, 3.0), (0.0, 1.0, rng.uniform(0.0, 1.0))[kind]) if kind < 3
                  else (0.2 * mu1, 0.1))
        lam = rng.uniform(0.05, 0.95) * m / (1.0 / mu1 + q / mu2)
        yield MultiServerModel(lam, mu1, mu2, q, m)


# large pools whose searches fail: a split point's count outside its ends'
# counts (m = 100 and 150) and end counts other than m and 1 (m = 60)
FAILING_SEARCHES = [
    MultiServerModel(3795.8090149841732, 66.76990312384083, 0.2688898431209203, 1e-09, 100),
    MultiServerModel(22.24931437591496, 4.002317579332027, 0.15403766275109268, 0.999999999, 150),
    MultiServerModel(0.04526512574093838, 763.580112576094, 62879.28626269506, 1.0, 60),
]


# a pool whose (1 - rho) ** 2, libm's pow as CPython computes it, is one ulp
# above (1 - rho) * (1 - rho); squaring by a product moves two of its zeros
SQUARE_POOL = MultiServerModel(1.8638949188421554, 2.6578697898601344, 0.7521782126293933,
                               0.7080589529042267, 23)


def test_compiled_search_equals_the_python_search_bit_for_bit():
    pools = [MultiServerModel(**{k: v for k, v in params.items() if k != "message"})
             for params in (*PINS["pools"].values(), PINS["failing_pool"])]
    pools += [*seeded_pools(), *scanned_pools(), SQUARE_POOL, *FAILING_SEARCHES]
    failed = []
    for model in pools:
        expected = search_outcome(reference.isolate_roots, model)
        assert search_outcome(multi._roots_compiled, model) == expected, model
        if len(expected) == 2:
            failed.append(expected[1].split(" at ")[0])
    assert failed == ["Sturm counts read 100, 1, 2", "Sturm counts read 2, 0, 1",
                      "Sturm counts read 50"]


def test_compiled_search_raises_the_python_message(monkeypatch):
    monkeypatch.setattr(multi, "dprime_at_1", lambda model: -1.0)
    model = MultiServerModel(1.5, 1.0, 0.5, 0.3, 3)
    expected = search_outcome(reference.isolate_roots, model)
    assert expected == (SolverError, "Sturm counts read 3 at z = 0 and 0 below z = 1, not 3 and 1; "
                                     "D'(1) = -1")
    assert search_outcome(multi._roots_compiled, model) == expected


@pytest.mark.parametrize("status", ["_STACK_FULL", "_DISCRIMINANT"])
def test_a_search_that_stops_early_raises_its_status(status, monkeypatch):
    # a full bisection stack, and a discriminant that the search found
    # nonpositive at z = 0 where _y1_float finds it positive
    stub = KERNELS.compiled()._replace(pool_roots=lambda *args: getattr(multi, status))
    monkeypatch.setattr(KERNELS, "compiled", lambda: stub)
    with pytest.raises(SolverError, match=f"^the zero search stopped with status {status}.*; D'\\(1\\) = "):
        multi._roots_compiled(MultiServerModel(**POOL))


@pytest.mark.parametrize("m", [14, 17])
def test_q1_pools_that_lost_a_zero_match_the_oracle(m):
    model = next(pool for pool in seeded_pools() if pool.m == m)
    assert model.q == 1.0
    sweep = sweep_thresholds(model)
    for K in (0, m // 2):
        oracle = ctmc_solve(dataclasses.replace(model, threshold=K))
        for field in ("L1", "L2", "U"):
            assert getattr(sweep[K], field) == pytest.approx(getattr(oracle, field), rel=1e-10), \
                (K, field)


# --- each threshold's solve against the per-state reference --------------------


def reference_null_vectors(a0):
    u_svd, sv, vt = scipy.linalg.svd(a0)
    if sv[-1] > 1e-6 * sv[0]:
        raise SolverError(f"matrix expected singular has sigma_min/sigma_max = {sv[-1] / sv[0]:.3e}")
    return u_svd[:, -1], vt[-1, :]


def reference_solve(model, K, pool, loop=None):
    """reference.solve_one with the Taylor cascade of reference_finish, in
    place of multi._solve_one."""
    states = [(i, j) for i in range(model.m) for j in range(max(0, K - i), model.m - i)]
    x = LINSYS.solve_probability_system(*reference.pool_fill(model, K, pool, states)).tolist()
    b = reference.pool_taylor(model, K, pool, states, x)
    return reference_finish(model, K, dict(zip(states, x)), b, pool)


def reference_finish(model, K, boundary, b, pool):
    m, one = model.m, pool.at_one
    a0, a1, a2 = one.a0, one.a1, one.a2
    b0, b1, b2 = b
    u, v, uA1v = one.u, one.v, one.uA1v
    scale = np.abs(b0).max() + np.abs(b1).max()
    if abs(u @ b0) > 1e-7 * max(scale, 1e-300):
        raise SolverError(f"solvability residual {u @ b0:.3e} at z = 1; boundary solve inconsistent")
    p0 = scipy.linalg.lstsq(a0, b0)[0]
    c0 = (u @ b1 - u @ a1 @ p0) / uA1v
    g0 = p0 + c0 * v
    p1 = scipy.linalg.lstsq(a0, b1 - a1 @ g0)[0]
    c1 = (u @ b2 - u @ a2 @ g0 - u @ a1 @ p1) / uA1v
    g1 = p1 + c1 * v

    gv1 = [float(x) for x in g0]
    gd1 = [float(x) for x in g1]
    r = model.lam / (m * model.mu1)
    gm1 = r * gv1[m - 1]
    if K == 0:
        _, L1 = multi.mmm_marginal(m, model.rho1)
    else:
        L1 = sum(i * gv1[i] for i in range(m)) + gm1 * (m * (1.0 - r) + r) / (1.0 - r) ** 2
    y2v, y2d = one.y2v, one.y2d
    tail_deriv = (gd1[m - 1] * (y2v - 1.0) - gv1[m - 1] * y2d) / (y2v - 1.0) ** 2
    L2 = sum(gd1) + tail_deriv
    diag = sum(boundary.get((i, K - i), 0.0) for i in range(K + 1))
    p = [sum(boundary.get((i, t - i), 0.0) for i in range(t + 1)) for t in range(m)]
    return multi.MultiServerSolution(
        boundary=FrozenDict(boundary), g_at_1=tuple(gv1), g_m_at_1=gm1, L1=L1, L2=L2, L=L1 + L2,
        U=m * (1.0 - diag), p=tuple(p), tail_mass=1.0 - sum(p), roots=pool.roots, threshold=K)


def system_bytes(status, a, b, unscaled):
    return status, *(None if x is None else x.tobytes() for x in (a, b, unscaled))


def every_threshold(model, handed):
    """Per threshold, the bytes of each system handed to the LU, as the
    pool_systems fixture `handed` records them, and the solution or the
    error, from a cold pool cache."""
    out = []
    _pool_data.cache_clear()
    for K in range(model.m):
        handed.clear()
        try:
            result = solve_threshold(dataclasses.replace(model, threshold=K))
        except SolverError as exc:
            result = str(exc)
        out.append(([system_bytes(*h) for h in handed], result))
    return out


def test_each_threshold_equals_the_per_state_reference_bit_for_bit(monkeypatch, pool_systems):
    models = [MultiServerModel(**{k: v for k, v in params.items() if k != "message"})
              for params in (*PINS["pools"].values(), PINS["failing_pool"])]
    failed = 0
    for model in models + list(seeded_pools()):
        with monkeypatch.context() as patch:
            patch.setattr(multi, "_roots_compiled", reference.isolate_roots)
            patch.setattr(multi, "_null_vectors", reference_null_vectors)
            patch.setattr(multi, "_solve_one", reference_solve)
            expected = every_threshold(model, pool_systems)
        got = every_threshold(model, pool_systems)
        for K, ((systems, result), (ref_systems, ref_result)) in enumerate(zip(got, expected)):
            assert systems == ref_systems and len(systems) == 1, (model, K)
            if isinstance(ref_result, str):
                assert result == ref_result, (model, K)
                failed += 1
            else:
                assert_same_solutions([result], [ref_result])
                assert solution_hex(result) == solution_hex(ref_result)
    # the failing pool at every threshold, and the large seeded pools
    assert failed >= PINS["failing_pool"]["m"]


# --- the compiled fill against reference.pool_fill ---------------------------------


def sweep_block_pools():
    """The pools of one seeded block of the benchmark's threshold_sweep
    workload: figure 8's pool and one pool of its family per m = 2 .. 20."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tasks = workloads.generate("threshold_sweep", 1, workloads.BLOCK_SECONDS["threshold_sweep"])["tasks"]
    return list({workloads.pool_model(t["params"]): None for t in tasks})


def solution_hex(sol):
    """Every field of a MultiServerSolution, its floats as float.hex, so
    that a signed zero differs from 0.0, with each container's type."""
    out = {}
    for field in dataclasses.fields(sol):
        v = getattr(sol, field.name)
        if isinstance(v, dict):
            v = type(v), [(k, x.hex()) for k, x in v.items()]
        elif isinstance(v, (list, tuple)):
            v = type(v), [x.hex() for x in v]
        out[field.name] = v.hex() if isinstance(v, float) else v
    return out


def threshold_outcomes(model, handed):
    """Per threshold, from a cold pool cache: the bytes of the system handed
    to the LU and every solution field in float.hex, or the error's type and
    message."""
    out = []
    _pool_data.cache_clear()
    for K in range(model.m):
        handed.clear()
        try:
            result = solution_hex(solve_threshold(dataclasses.replace(model, threshold=K)))
        except SolverError as exc:
            result = type(exc), str(exc)
        out.append(([system_bytes(*h) for h in handed], result))
    return out


def test_both_pool_paths_hand_the_lu_the_same_bytes_and_give_the_same_bits(on_both_paths, pool_systems):
    q_pools = [model for model in seeded_pools() if model.m in (2, 3, 5, 6)]
    assert {model.q for model in q_pools} == {0.0, 1.0}
    block = sweep_block_pools()
    assert sorted(model.m for model in block) == [2, 4, 6, 8, 10, 10, 12, 14, 17, 18, 19, 20]
    figure8 = MultiServerModel(**PINS["pools"]["figure8"])
    assert figure8 in block
    failed = []
    for model in [*block, *q_pools]:
        compiled, python = on_both_paths(lambda: threshold_outcomes(model, pool_systems))
        assert compiled == python, model
        for K, (systems, result) in enumerate(compiled):
            assert len(systems) == 1 and systems[0][0] == 0, (model, K)
            if isinstance(result, tuple):
                failed.append(model.m)
    # the m = 17 .. 20 pools raise at some thresholds on both paths, and only they
    assert sorted(set(failed)) == [17, 18, 19, 20]


def test_failing_pool_quotes_the_unscaled_systems_condition_on_both_paths(on_both_paths):
    pin = dict(PINS["failing_pool"])
    message = pin.pop("message")

    def raised():
        with pytest.raises(SolverError) as exc:
            sweep_thresholds(MultiServerModel(**pin))
        return str(exc.value)

    compiled, python = on_both_paths(raised)
    assert compiled == python
    assert same_failure(compiled, message), compiled
