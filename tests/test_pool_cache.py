"""The per-pool cache of fbq.multi: what a pool solve shares across thresholds.

Roots, the null vectors at the roots and the z = 1 Taylor data are built once
per (lam, mu1, mu2, q, m) and kept by `_pool_data`; a threshold never enters
the key.  Cold and warm solves must agree exactly, checks must run on every
call, and failures must not be cached.  data/d_roots_pins.json holds, as
float.hex strings, the zeros of the pools of threshold_sweep_pins.json and
their determinant and leading minors at nine points of [0, 1]; they must be
reproduced bit for bit, so a reordered product in either recurrence fails.
"""

import dataclasses
import json
import logging
import math
import pathlib

import pytest

from fbq import multi
from fbq.models import ModelError, MultiServerModel, SolverError, UnstableModelError
from fbq.multi import (
    POOL_CACHE_SIZE,
    _det_at,
    _minor_at,
    _pool_data,
    d_roots,
    solve_threshold,
    sweep_thresholds,
)

DATA = pathlib.Path(__file__).parent / "data"
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


def test_threshold_independent_parts_are_built_once_per_pool(monkeypatch):
    calls = {"_null_vectors": 0, "kernel_root_pair_at_1": 0}

    def counted(name):
        original = getattr(multi, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(multi, name, counted(name))
    model = MultiServerModel(**POOL)
    sweep_thresholds(model)
    sweep_thresholds(model)
    solve_threshold(dataclasses.replace(model, threshold=2))
    # one null vector per root, one null pair of A(1)
    assert calls == {"_null_vectors": model.m, "kernel_root_pair_at_1": 1}


def test_building_a_pool_logs_one_debug_line(caplog):
    with caplog.at_level(logging.DEBUG, logger="fbq.multi"):
        for K in (0, 2):
            solve_threshold(MultiServerModel(**POOL, threshold=K))
    lines = [r.getMessage() for r in caplog.records if r.name == "fbq.multi"]
    assert len(lines) == 1
    assert lines[0].startswith("m = 6: 5 zeros isolated, ")


def test_returned_roots_are_a_new_list_each_call():
    model = MultiServerModel(**POOL)
    roots = d_roots(model)
    expected = list(roots)
    roots[0] = -1.0
    roots.append(2.0)
    assert d_roots(model) == expected
    assert solve_threshold(model).roots == expected


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
        minors = [[_minor_at(model, i, z).hex() for i in range(1, model.m)] for z in zs]
        assert minors == RECURRENCE_PINS["minors"][name], name


def test_failing_pool_raises_the_pinned_error_every_time():
    pin = dict(PINS["failing_pool"])
    message = pin.pop("message")
    model = MultiServerModel(**pin)
    for _ in range(2):
        with pytest.raises(SolverError) as exc:
            sweep_thresholds(model)
        assert str(exc.value) == message


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
