"""The per-pool cache of fbq.multi: what a pool solve shares across thresholds.

The roots and the data that every threshold shares (the null vectors and
powers at the roots and the z = 1 Taylor data) are built once per (lam,
mu1, mu2, q, m) and kept by `_pool_data`; a threshold never enters
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
set-up, one call of fbq_pool_data, must give the zeros, counts, shared
data and error messages of its Python twin reference.pool_setup
(reference.isolate_roots, then reference.pool_data) on the pinned, seeded
and scanned pools, and a search that stops early must raise its status.

The thresholds that a call still needs are solved whole, in order, by one
call of the compiled loop fbq_pool_system, which writes one outcome row per
threshold and stops at the first that fails; its rows, least pivots
included, must equal those of reference.solve_rows in float.hex on every
threshold of pool_bits' pools, and each threshold that a failing sweep
leaves unsolved must carry reference.lockstep's least pivot when solved
alone.  The shared data comes from the same call of the compiled
fbq_pool_data, whose null vectors are twisted factorisations; no LAPACK
call is made.  A failure
to build the shared data is the pool's: no threshold keeps it, d_roots
raises it too, and its message is the Python reference's, and so is the error of a boundary
system that fails the first pass of the loop's row scaling (a zero row, a
NaN).  Every threshold of the seeded and pinned pools must agree, within
the rounding of the two methods, with a solve that takes the null vectors
from scipy.linalg.svd, the boundary solve from LAPACK's getrf and the
Taylor cascade from scipy.linalg.lstsq, kept below, and fail where it
fails.  Each threshold is filled and solved once per pool, a sweep hands
the loop only the thresholds it still needs, and a kept failure is raised
again with no fill and no solve.  The compiled loops and their
references (reference.pool_data, pool_fill, lockstep, pool_taylor, cascade
and finish) must return the same solution bits or error on figure 8, a
seeded threshold_sweep block, q = 0 and q = 1 pools, at every
threshold.  Every threshold outcome of figure 8's family and the seeded
pools must hash to the digests of data/pool_bits.json, which pool_bits.py
writes.
"""

import contextlib
import ctypes
import dataclasses
import functools
import importlib.util
import json
import logging
import math
import pathlib
import platform
import random
import re
import sys
import types

import numpy as np
import pytest
import scipy.linalg

from fbq import multi
from fbq.ctmc import ctmc_solve
from fbq.experiments import optimize_threshold
from fbq.models import ModelError, MultiServerModel, SolverError, UnstableModelError
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
from pool_bits import seeded_pools, solution_hex, threshold_outcomes
import pool_bits

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
    calls = count_calls(monkeypatch, "_setup_compiled", "kernel_root_pair_at_1")
    model = MultiServerModel(**POOL)
    sweep_thresholds(model)
    sweep_thresholds(model)
    solve_threshold(dataclasses.replace(model, threshold=2))
    assert calls == {"_setup_compiled": 1, "kernel_root_pair_at_1": 1}


def count_rows(monkeypatch):
    """Wrap multi._pool_rows, which fills, solves and sums b, so that the
    thresholds it solves, its rows, are counted."""
    rows, original = [0], multi._pool_rows

    def counted(*args):
        out = original(*args)
        rows[0] += len(out)
        return out
    monkeypatch.setattr(multi, "_pool_rows", counted)
    return rows


def test_a_kept_failure_is_raised_again_with_no_fill_and_no_solve(monkeypatch, solves):
    rows = count_rows(monkeypatch)
    model = MultiServerModel(**POOL)
    for K in (3, 0):
        solve_threshold(dataclasses.replace(model, threshold=K))
    sweep_thresholds(model)
    assert (rows[0], solves[0]) == (model.m, model.m)
    pin = {k: v for k, v in PINS["failing_pool"].items() if k != "message"}
    for attempt in (1, 2):
        with pytest.raises(SolverError):
            sweep_thresholds(MultiServerModel(**pin))
        # the failure at K = 0 is kept, so the second attempt fills and solves nothing
        assert (rows[0], solves[0]) == (model.m + 1, model.m + 1)


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
    assert raised[0] == message


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
    """The number of boundary systems solved: the rows that the compiled
    loop writes, one per threshold it solves, which it returns."""
    rows = [0]
    loops = KERNELS.compiled()

    def counted(*args):
        done = loops.pool_system(*args)
        rows[0] += done
        return done
    stub = loops._replace(pool_system=counted)
    monkeypatch.setattr(KERNELS, "compiled", lambda: stub)
    return rows


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


FIGURE8_COSTS = [CostCoefficients(1.0, c2) for c2 in (0.5, 1.0, 1.5)]


def test_costs_are_scored_from_the_rows_with_the_bits_of_the_solutions(monkeypatch):
    # optimize_threshold scores the L and U of a pool's outcome rows: on
    # every pool of pool_bits and the pinned pools, under figure 8's cost
    # vectors, its best and curve are those of evaluate_cost_multi on a cold
    # sweep's solutions in float.hex, it builds no solution but the ones of
    # rows that _checked clamps, a failing pool raises the sweep's type and
    # message, and a later sweep serves the solution bits of a cold one
    built, solution = [], multi._solution

    def spy(model, K, *args):
        built.append(K)
        return solution(model, K, *args)

    failed = []
    for name, model in {**pool_bits.pools(), **pinned_pools()}.items():
        _pool_data.cache_clear()
        try:
            cold = [solution_hex(sol) for sol in sweep_thresholds(model)]
            want = [[evaluate_cost_multi(sol, costs) for sol in sweep_thresholds(model)]
                    for costs in FIGURE8_COSTS]
        except SolverError as exc:
            cold, want = (type(exc), str(exc)), None
        _pool_data.cache_clear()
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(multi, "_solution", spy)
            for k, costs in enumerate(FIGURE8_COSTS):
                if want is None:
                    with pytest.raises(SolverError) as exc:
                        optimize_threshold(model, costs)
                    assert (type(exc.value), str(exc.value)) == cold, name
                    continue
                best, curve = optimize_threshold(model, costs)
                assert curve.xs == [float(K) for K in range(model.m)], name
                assert hex_list(curve.ys) == hex_list(want[k]), name
                assert best == want[k].index(min(want[k])), name
        if want is None:
            failed.append(name)
            continue
        table = multi._pool(model).table
        assert built == [K for K in range(model.m) if table[K, multi._NEGATIVES]], name
        assert [solution_hex(sol) for sol in sweep_thresholds(model)] == cold, name
    assert failed == [*(f"figure8_m{m}" for m in range(16, 25)), *(f"seed26_m{m}" for m in (18, 21, 24)),
                      "failing_pool"]


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
    assert first == message


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


def test_a_singular_residual_fails_the_pool_not_a_threshold(monkeypatch, on_both_paths):
    # with no residual allowed, the null vector at the first zero fails the
    # shared data; no threshold keeps that failure, so each solve, and each
    # d_roots, builds the set-up again and raises the same message, on both
    # paths
    model = MultiServerModel(**POOL, threshold=2)
    monkeypatch.setattr(multi, "SINGULAR_RTOL", 0.0)

    def raised():
        messages = []
        for call in (solve_threshold, solve_threshold, d_roots, d_roots):
            with pytest.raises(SolverError) as exc:
                call(model)
            messages.append(str(exc.value))
            assert multi._pool(model).solutions == {}
        return messages

    compiled, python = on_both_paths(raised)
    assert compiled == python
    assert len(set(compiled)) == 1
    assert re.fullmatch(r"matrix expected singular has a null-vector residual of "
                        r"\d\.\d{3}e-\d\d times its norm", compiled[0]), compiled[0]


def edited_pool(model, edit):
    """A stand-in for the model's pool whose shared data is a copy of the
    real one, its null vectors at the zeros ((m - 1) x m, at its head)
    handed to edit first."""
    pool = multi._pool(model)
    args, shared, *y2 = pool.data
    shared = shared.copy()
    edit(shared[:(model.m - 1) * model.m].reshape(model.m - 1, model.m))
    data = ((*args[:-1], shared.ctypes.data_as(ctypes.POINTER(ctypes.c_double))), shared, *y2)
    return types.SimpleNamespace(rates=pool.rates, roots=pool.roots, data=data)


def zero_nulls(null):
    null[:] = 0.0


def nan_null(null):
    null[1, 2] = math.nan


def zero_and_nan_nulls(null):
    zero_nulls(null)
    nan_null(null)


def first_pass_errors(model, pool):
    """The type and message that the outcome rows of multi._pool_rows and
    then of reference.solve_rows raise at each threshold of the model on
    pool."""
    raised = []
    for K in range(model.m):
        for solve_rows in (multi._pool_rows, reference.solve_rows):
            with pytest.raises((SolverError, ValueError)) as exc:
                (x, row), = solve_rows(model, [K], pool)
                multi._solution(model, K, x, row, pool)
            raised.append((type(exc.value), str(exc.value)))
    return raised


@pytest.mark.parametrize("edit, error", [
    (zero_nulls, (SolverError, "degenerate parameter set: zero row in the linear system")),
    (nan_null, (ValueError, "array must not contain infs or NaNs")),
    (zero_and_nan_nulls, (ValueError, "array must not contain infs or NaNs")),
], ids=["zero-rows", "nan", "zero-rows-and-nan"])
def test_a_boundary_system_that_fails_its_first_pass_raises_the_references_error(edit, error):
    # zeroed null vectors leave the system's m - 1 zero rows all zeros, and
    # a NaN in one makes its row non-finite, which takes precedence; the
    # compiled loop's first pass must raise what reference.solve_one's row raises
    model = MultiServerModel(**POOL)
    assert first_pass_errors(model, edited_pool(model, edit)) == [error] * 2 * model.m


def test_a_non_finite_right_hand_side_fails_the_first_pass_on_both_paths():
    # the idle-or-stopped identity's right-hand side m - rho1 - rho2 is
    # checked with the entries; a stand-in model with a NaN load makes it NaN
    model = MultiServerModel(**POOL)
    nan_load = types.SimpleNamespace(**POOL, rho1=math.nan, rho2=model.rho2)
    assert first_pass_errors(nan_load, multi._pool(model)) == \
        [(ValueError, "array must not contain infs or NaNs")] * 2 * model.m


def test_a_first_pass_error_keeps_nothing_and_every_call_solves_and_raises_it_again(solves):
    # a ValueError of the first pass is not a SolverError, so no outcome of
    # its threshold is kept: every later sweep, cost curve or solve solves
    # that threshold again and raises the same error, and none returns
    model = MultiServerModel(**POOL)
    pool = multi._pool(model)
    nan_null(pool.data[1][:(model.m - 1) * model.m].reshape(model.m - 1, model.m))
    calls = [sweep_thresholds, solve_threshold,
             *(functools.partial(optimize_threshold, costs=costs) for costs in FIGURE8_COSTS)]
    for round_ in range(1, model.m + 2):
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call(model)
            assert str(exc.value) == "array must not contain infs or NaNs"
            assert pool.solutions == {}
        assert solves[0] == round_ * len(calls)


def test_a_vanishing_drift_raises_the_references_message(monkeypatch, on_both_paths):
    # A1's last diagonal entry holds -lam c1, where c1 is the slope of
    # y1(1 + t) that kernel_root_pair_at_1 hands the set-up, so this c1
    # cancels u^T A1 v
    model = MultiServerModel(**POOL)
    *_, u, v, uA1v = reference.shared_parts(model.m, multi._pool(model).data[1])
    pair = multi.kernel_root_pair_at_1
    c1 = pair(model.lam / (model.m * model.mu1), model.q, multi.SERIES_ORDER)[0].c[1]
    c1 += uA1v / (model.lam * u[-1] * v[-1])

    def drifting(*args):
        y1, y2 = pair(*args)
        y1.c[1] = c1
        return y1, y2
    monkeypatch.setattr(multi, "kernel_root_pair_at_1", drifting)

    def raised():
        with pytest.raises(SolverError) as exc:
            solve_threshold(model)
        return str(exc.value)

    assert on_both_paths(raised) == ("transform system is degenerate at z = 1 (vanishing drift)",) * 2


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


# --- the compiled set-up against reference.pool_setup -----------------------------


def search_outcome(setup, model):
    """The zeros in float.hex with the sign-count and evaluation totals and
    the shared data's bytes, or the type and message of the error, of the
    set-up with the kernel root's terms of the pool."""
    y1 = multi.kernel_root_pair_at_1(model.lam / (model.m * model.mu1), model.q, multi.SERIES_ORDER)[0]
    try:
        roots, counts, evals, shared = setup(model, *y1.c[1:3])
    except RuntimeError as exc:     # SolverError, or brentq's non-convergence
        return type(exc), str(exc)
    return [z.hex() for z in roots], counts, evals, shared.tobytes()


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
        expected = search_outcome(reference.pool_setup, model)
        assert search_outcome(multi._setup_compiled, model) == expected, model
        if len(expected) == 2:
            failed.append(expected[1].split(" at ")[0])
    assert failed == ["Sturm counts read 100, 1, 2", "Sturm counts read 2, 0, 1",
                      "Sturm counts read 50"]


def test_compiled_search_raises_the_python_message(monkeypatch):
    monkeypatch.setattr(multi, "dprime_at_1", lambda model: -1.0)
    model = MultiServerModel(1.5, 1.0, 0.5, 0.3, 3)
    expected = search_outcome(reference.pool_setup, model)
    assert expected == (SolverError, "Sturm counts read 3 at z = 0 and 0 below z = 1, not 3 and 1; "
                                     "D'(1) = -1")
    assert search_outcome(multi._setup_compiled, model) == expected


@pytest.mark.parametrize("status", ["_STACK_FULL", "_DISCRIMINANT"])
def test_a_search_that_stops_early_raises_its_status(status, monkeypatch):
    # a full bisection stack, and a discriminant that the search found
    # nonpositive at z = 0 where _y1_float finds it positive
    stub = KERNELS.compiled()._replace(pool_data=lambda *args: getattr(multi, status))
    monkeypatch.setattr(KERNELS, "compiled", lambda: stub)
    with pytest.raises(SolverError, match=f"^the zero search stopped with status {status}.*; D'\\(1\\) = "):
        multi._setup_compiled(MultiServerModel(**POOL), 0.0, 0.0)


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


# --- each threshold's solve against a LAPACK reference ---------------------------


def svd_null_vectors(lo, d, up):
    """`reference.null_vectors` by scipy.linalg.svd: each tridiagonal
    matrix's last right singular vector, and sigma_min / sigma_max."""
    vectors, ratios = [], []
    for below, diag, above in zip(np.asarray(lo), d, np.asarray(up)):
        _, sv, vt = scipy.linalg.svd(np.diag(diag) + np.diag(below, -1) + np.diag(above, 1))
        vectors.append(vt[-1])
        ratios.append(sv[-1] / sv[0])
    return np.array(vectors).reshape(d.shape), np.array(ratios)


def test_twisted_null_vectors_agree_with_the_svd_ones():
    # the left null vectors at the zeros and A0's null pair, against
    # scipy.linalg.svd's, up to sign
    models = [MultiServerModel(**{k: v for k, v in params.items() if k != "message"})
              for params in (*PINS["pools"].values(), PINS["failing_pool"])]
    worst = 0.0
    for model in models + list(seeded_pools()):
        pool = multi._pool(model)
        null, _, ((lo0, d0, up0), *_), u, v, _ = reference.shared_parts(model.m, pool.data[1])
        below, diag, above = reference.tridiagonal(model, np.array(pool.roots))
        got = [*null, u, v]
        want = [*svd_null_vectors(above, diag, below)[0],
                *svd_null_vectors(np.array([up0, lo0]), np.array([d0] * 2), np.array([lo0, up0]))[0]]
        for x, y in zip(got, want, strict=True):
            worst = max(worst, min(np.abs(x - y).max(), np.abs(x + y).max()))
    assert worst < 1e-13


def reference_solve(model, K, pool):
    """reference.solve_one by LAPACK: the system of reference.pool_fill
    solved by linsys.solve_probability_system (getrf and getrs), which
    raises its errors and clamps, b from reference.pool_taylor, the Taylor
    cascade by the minimum-norm solves of scipy.linalg.lstsq, and the rest
    of the row by reference.finish."""
    states = list(multi._states(model.m, K))
    x = LINSYS.solve_probability_system(*reference.pool_fill(model, K, pool, states)).tolist()
    b0, b1, b2 = reference.pool_taylor(model, K, pool, states, x)
    _, _, tri, u, v, uA1v = reference.shared_parts(model.m, pool.data[1])
    a0, a1, a2 = (reference.dense(*t) for t in tri)
    p0 = scipy.linalg.lstsq(a0, b0)[0]
    c0 = (u @ b1 - u @ a1 @ p0) / uA1v
    g0 = p0 + c0 * v
    p1 = scipy.linalg.lstsq(a0, b1 - a1 @ g0)[0]
    c1 = (u @ b2 - u @ a2 @ g0 - u @ a1 @ p1) / uA1v
    check = [u @ b0, np.abs(b0).max() + np.abs(b1).max()]
    row = [0.0, -1.0, -1.0] + [0.0] * (multi._G + 3 * model.m - 3)
    return x, reference.finish(model, K, pool, x, 0, np.array([g0, p1 + c1 * v]), check, row)


def every_threshold(model):
    """Per threshold, from a cold pool cache, the solution or the error."""
    out = []
    _pool_data.cache_clear()
    for K in range(model.m):
        try:
            out.append(solve_threshold(dataclasses.replace(model, threshold=K)))
        except SolverError as exc:
            out.append(str(exc))
    return out


def test_each_threshold_agrees_with_the_svd_and_lstsq_reference(monkeypatch):
    models = [MultiServerModel(**{k: v for k, v in params.items() if k != "message"})
              for params in (*PINS["pools"].values(), PINS["failing_pool"])]
    failed = []
    for model in models + list(seeded_pools()):
        with monkeypatch.context() as patch:
            patch.setattr(multi, "_setup_compiled", reference.pool_setup)
            patch.setattr(reference, "null_vectors", svd_null_vectors)
            patch.setattr(multi, "_pool_rows",
                          functools.partial(reference.solve_rows, solve=reference_solve))
            expected = every_threshold(model)
        got = every_threshold(model)
        for K, (result, ref) in enumerate(zip(got, expected)):
            if isinstance(result, str):
                failed.append((model.m, K))
            if isinstance(result, str) or isinstance(ref, str):
                continue
            # past m = 8 both methods lose up to 1e-9 absolute to rounding on
            # these pools, and the seeded q = 0 pools most (ROADMAP item 1)
            tol = dict(rtol=1e-10, atol=1e-12) if model.m <= 8 else dict(rtol=2e-8, atol=2e-9)
            for field in ("L", "U", "g_at_1", "p"):
                np.testing.assert_allclose(getattr(result, field), getattr(ref, field), **tol,
                                           err_msg=f"{model} {K} {field}")
    # the failing pool fails at K = 0 .. 18 and the q = 0 pools with m = 18,
    # 21 and 24 at every threshold, on every BLAS kernel; the LAPACK path's
    # failures depend on the kernel (with SkylakeX kernels it fails the
    # failing pool at K = 19 too, with Haswell ones also the m = 9 pool at K = 8)
    assert failed == [(20, K) for K in range(19)] + [(m, K) for m in (18, 21, 24) for K in range(m)]


# --- the compiled loops against their references ---------------------------------


def sweep_block_pools():
    """The pools of one seeded block of the benchmark's threshold_sweep
    workload: figure 8's pool and one pool of its family per m = 2 .. 20."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tasks = workloads.generate("threshold_sweep", 1, workloads.BLOCK_SECONDS["threshold_sweep"])["tasks"]
    return list({workloads.pool_model(t["params"]): None for t in tasks})


def test_both_pool_paths_give_the_same_bits(on_both_paths):
    q_pools = [model for model in seeded_pools() if model.m in (2, 3, 5, 6)]
    assert {model.q for model in q_pools} == {0.0, 1.0}
    block = sweep_block_pools()
    assert sorted(model.m for model in block) == [2, 4, 6, 8, 10, 10, 12, 14, 17, 18, 19, 20]
    figure8 = MultiServerModel(**PINS["pools"]["figure8"])
    assert figure8 in block
    failed = []
    for model in [*block, *q_pools]:
        compiled, python = on_both_paths(lambda: threshold_outcomes(model))
        assert compiled == python, model
        for result in compiled:
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
    assert compiled == message


def test_failing_thresholds_get_the_bits_of_the_reference_condition_estimate(monkeypatch):
    # the estimate that fbq_pool_system books in info[1] from its own
    # factors, which a message quotes to four digits, equals
    # reference.condition of the system of reference.pool_fill in every bit,
    # at each failing threshold of the benchmark block's m = 17 .. 20 pools
    # and of the pinned failing pool
    pin = {k: v for k, v in PINS["failing_pool"].items() if k != "message"}
    models = [model for model in sweep_block_pools() if model.m >= 17] + [MultiServerModel(**pin)]
    estimates, checked = [], multi._checked

    def spy(cond, status, x, pivmin, summary):
        if summary[0] >= 0 or summary[1] >= 0:
            estimates.append(cond)
        return checked(cond, status, x, pivmin, summary)

    monkeypatch.setattr(multi, "_checked", spy)
    _pool_data.cache_clear()
    got = {}
    for model in models:
        for K in range(model.m):
            with contextlib.suppress(SolverError):
                solve_threshold(dataclasses.replace(model, threshold=K))
            if len(estimates) > len(got):
                got[model, K] = estimates[-1]
    assert sorted({model.m for model, _ in got}) == [17, 18, 19, 20]
    assert [K for model, K in got if model == models[-1]] == list(range(19))
    for (model, K), cond in got.items():
        a, _ = reference.pool_fill(model, K, multi._pool(model), list(multi._states(model.m, K)))
        assert cond.hex() == reference.condition(a).hex(), (model, K)


def hex_list(values):
    return [v.hex() for v in values]


def assert_same_rows(got, want, where):
    """(x, row) pairs of multi._pool_rows equal to those of
    reference.solve_rows in float.hex; x is compared where the reference
    solved the system."""
    assert len(got) == len(want), where
    for k, ((x, row), (x_ref, row_ref)) in enumerate(zip(got, want)):
        assert hex_list(row) == hex_list(row_ref), (where, k)
        assert x_ref is None or hex_list(x) == hex_list(x_ref), (where, k)


def pinned_pools():
    """The pools of threshold_sweep_pins.json, the failing one included."""
    return {name: MultiServerModel(**{k: v for k, v in params.items() if k != "message"})
            for name, params in {**PINS["pools"], "failing_pool": PINS["failing_pool"]}.items()}


@pytest.fixture(scope="module")
def sweep_rows():
    """{name: (model, rows, reference rows)}: every threshold of each pool of
    pool_bits and of the pinned pools handed to one call of multi._pool_rows
    and of reference.solve_rows, each on a cold pool cache."""
    out = {}
    for name, model in {**pool_bits.pools(), **pinned_pools()}.items():
        _pool_data.cache_clear()
        every = list(range(model.m))
        out[name] = model, multi._pool_rows(model, every, multi._pool(model)), \
            reference.solve_rows(model, every, multi._pool(model))
    _pool_data.cache_clear()
    return out


def test_one_call_per_sweep_gives_the_reference_rows_row_for_row(sweep_rows):
    # the call stops at the first row that fails, as reference.solve_rows does
    stopped = {}
    for name, (model, rows, want) in sweep_rows.items():
        assert_same_rows(rows, want, name)
        if len(rows) < model.m:
            stopped[name] = len(rows)
    assert stopped == {"figure8_m16": 7, **{f"figure8_m{m}": 1 for m in range(17, 25)},
                       **{f"seed26_m{m}": 1 for m in (18, 21, 24)}, "failing_pool": 1}


def test_every_row_carries_the_least_pivot_of_the_reference_elimination(sweep_rows):
    # the rows of a sweep carry reference.lockstep's least pivot (through
    # reference.solve_one); each threshold that a failing sweep leaves
    # unsolved is solved alone and read against reference.lockstep
    names = [*pinned_pools(), *(f"seed26_m{model.m}" for model in seeded_pools())]
    for name in names:
        model, rows, want = sweep_rows[name]
        assert [row[multi._PIVMIN].hex() for _, row in rows] == \
            [row[multi._PIVMIN].hex() for _, row in want], name
        pool = multi._pool(model)
        for K in range(len(rows), model.m):
            (_, row), = multi._pool_rows(model, [K], pool)
            a, rhs = reference.pool_fill(model, K, pool, list(multi._states(model.m, K)))
            pivmin = reference.lockstep(a[None], rhs[None])[2]
            assert row[multi._PIVMIN].hex() == pivmin[0].hex(), (name, K)


def test_sweeps_solve_only_the_thresholds_they_still_need_on_both_paths(monkeypatch, on_both_paths):
    # a sweep after a solve of K = 3 mixes kept and new thresholds; a
    # failing pool's sweep stops at its first failing threshold and leaves
    # the later ones unsolved, and a repeat sweep solves nothing
    pin = dict(PINS["failing_pool"])
    message = pin.pop("message")
    model, failing = MultiServerModel(**POOL), MultiServerModel(**pin)
    solved, solution = [], multi._solution

    def spy(model, K, *args):
        solved.append((model.m, K))
        return solution(model, K, *args)
    monkeypatch.setattr(multi, "_solution", spy)

    def run():
        solved.clear()
        cold = [solution_hex(sol) for sol in sweep_thresholds(model)]
        _pool_data.cache_clear()
        solve_threshold(dataclasses.replace(model, threshold=3))
        mixed = [solution_hex(sol) for sol in sweep_thresholds(model)]
        raised = []
        for _ in range(2):
            with pytest.raises(SolverError) as exc:
                sweep_thresholds(failing)
            raised.append(str(exc.value))
        return cold, mixed, raised, list(solved), sorted(multi._pool(failing).solutions)

    compiled, python = on_both_paths(run)
    assert compiled == python
    cold, mixed, raised, solved, kept = compiled
    assert mixed == cold
    assert solved == [(6, K) for K in (0, 1, 2, 3, 4, 5, 3, 0, 1, 2, 4, 5)] + [(20, 0)]
    assert raised == [message] * 2 and kept == [0]


def test_every_threshold_outcome_keeps_its_pinned_digest():
    pinned = json.loads(pool_bits.PINS.read_text())
    got = pool_bits.digests()
    assert sorted(got) == sorted(pinned)
    moved = [name for name in pinned if got[name] != pinned[name]]
    assert not moved, f"the outcomes of these pools moved: {', '.join(moved)}"


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS x86 core names")
def test_pool_bits_do_not_depend_on_the_blas_kernel(blas_kernel_bits):
    # one fresh interpreter per OpenBLAS kernel, shared with the family
    # test (conftest.blas_kernel_bits); a pool solve calls no BLAS
    outs = {tuple(bits["pools"]) for bits in blas_kernel_bits.values()}
    assert len(outs) == 1, outs
