"""Truncated-CTMC oracle (fbq.ctmc): the fixed-state stationary solve, the
edge j = n of the rectangle, error reporting and the growth log.

data/ctmc_pins.json holds L, L1, L2, U, energy_rate, g0_at_1 and the boundary
probabilities of 21 models (c02/c03 samples, q = 0, q = 0.9, a zero-speed
profile and pools with thresholds), recorded with the earlier solver, which
normalised through a dense all-ones row and blocked every jump past the
edge.  The fixed-state solve must agree to 1e-10 relative, beyond the
truncation error n * edge_mass that redirecting the edge jumps may move.
"""

import json
import logging
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

from fbq.ctmc import _grow, _pool_rates, _single_rates, _transitions, ctmc_solve
from fbq.models import CoxianService, MultiServerModel, SingleServerModel, SolverError, SpeedProfile
from fbq.multi import solve_threshold
from fbq.single import solve_general, solve_k1_closed_form

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "ctmc_pins.json").read_text())


def _model(spec):
    if spec["kind"] == "single":
        return SingleServerModel(spec["lam"], CoxianService(spec["nu1"], spec["nu2"], spec["q"]),
                                 SpeedProfile(tuple(spec["levels"]), spec["alpha"]))
    return MultiServerModel(spec["lam"], spec["mu1"], spec["mu2"], spec["q"], spec["m"],
                            threshold=spec["threshold"])


@pytest.mark.parametrize("pin", PINS["models"], ids=lambda p: p["label"])
def test_matches_pinned_oracle(pin):
    sol = ctmc_solve(_model(pin["model"]))
    assert list(sol.truncation) == pin["truncation"]
    slack = pin["truncation"][0] * pin["edge_mass"]
    pairs = [(getattr(sol, f), pin[f]) for f in ("L", "L1", "L2", "U", "energy_rate", "g0_at_1")]
    pairs += [(sol.boundary[(i, j)], v) for i, j, v in pin["boundary"]]
    for got, want in pairs:
        assert abs(got - want) <= 1e-10 * abs(want) + slack + 1e-15, (got, want)
    assert sum(sol.p) + sol.tail_mass == pytest.approx(1.0, abs=1e-12)


def _loop_rates(model, n):
    """Per-state loop over the rectangle, the reference for the builders."""
    rows, cols, rates = [], [], []

    def add(i, j, i2, j2, rate):
        if rate > 0.0 and 0 <= i2 <= n and 0 <= j2 <= n:
            rows.append(i * (n + 1) + j)
            cols.append(i2 * (n + 1) + j2)
            rates.append(rate)

    q = model.q
    for i in range(n + 1):
        for j in range(n + 1):
            add(i, j, i + 1, j, model.lam)
            if isinstance(model, SingleServerModel):
                levels, K = model.speeds.levels, model.K
                fg = model.service.nu1 * levels[min(i + j, K)] if i > 0 else 0.0
                bg = model.service.nu2 * levels[min(j, K)] if i == 0 else 0.0
            elif i + j > model.threshold:
                fg = min(i, model.m) * model.mu1
                bg = min(j, max(model.m - i, 0)) * model.mu2
            else:
                continue
            if i > 0:
                add(i, j, i - 1, j, fg * (1.0 - q))
                add(i, j, i - 1, min(j + 1, n), fg * q)
            if j > 0:
                add(i, j, i, j - 1, bg)
    return rows, cols, rates


def _dense(rows, cols, rates, n):
    return sp.coo_matrix((rates, (rows, cols)), shape=((n + 1) ** 2,) * 2).toarray()


@pytest.mark.parametrize("model", [
    SingleServerModel(1.1, CoxianService(4.0, 1.5, 0.3), SpeedProfile((0.0, 0.4, 0.7, 1.0))),
    SingleServerModel(0.5, CoxianService(5.0, 1.0, 1.0), SpeedProfile((0.5, 1.0))),
    SingleServerModel(1.5, CoxianService(5.0, 1.0, 0.0), SpeedProfile((0.0, 0.0, 1.0))),
    MultiServerModel(2.0, 1.0, 0.6, 0.4, 3, threshold=1),
    MultiServerModel(1.2, 1.0, 0.6, 1.0, 4, threshold=0),
    MultiServerModel(1.2, 1.0, 0.6, 0.0, 4, threshold=3),
], ids=["single-K3", "single-q1", "single-zero-speed-q0", "pool-m3", "pool-q1", "pool-q0"])
def test_builders_match_the_per_state_loop(model):
    build = _single_rates if isinstance(model, SingleServerModel) else _pool_rates
    for n in (1, 5):
        got, want = _dense(*build(model, n), n), _dense(*_loop_rates(model, n), n)
        np.testing.assert_array_equal(got, want)
        assert np.count_nonzero(got.diagonal()) == 0


# With q = 1 every foreground completion joins the background queue.  On the
# edge j = n that jump used to be blocked, leaving the states (i, n) with
# arrivals only, and the solve returned a negative probability.  The same
# edge drifted to i = n whenever (1 - q) * m * mu1 < lam.
Q1_SINGLE = SingleServerModel(0.5, CoxianService(5.0, 1.0, 1.0), SpeedProfile((0.5, 1.0)))


def test_q1_single_server_matches_closed_form():
    sol, ref = ctmc_solve(Q1_SINGLE), solve_k1_closed_form(Q1_SINGLE)
    for f in ("L", "L1", "L2", "g0_at_1"):
        assert getattr(sol, f) == pytest.approx(getattr(ref, f), rel=1e-10)


@pytest.mark.parametrize("lam,q,K", [(1.2, 1.0, 0), (1.2, 1.0, 2), (1.0, 0.8, 2)])
def test_background_feeding_pools_match_solve_threshold(lam, q, K):
    model = MultiServerModel(lam, 1.0, 0.6, q, 4, threshold=K)
    sol, ref = ctmc_solve(model), solve_threshold(model)
    for f in ("L", "L1", "L2", "U"):
        assert getattr(sol, f) == pytest.approx(getattr(ref, f), rel=1e-8)


def test_reducible_chain_raises_at_first_size():
    # no foreground service on the edge j = n and q = 1: the states (i, n)
    # only see arrivals, so (n, n) is absorbing and reachable from (0, 0)
    def build(n):
        i, j = np.indices((n + 1, n + 1))
        fg = np.where((i > 0) & (j < n), 5.0, 0.0)
        bg = np.where(i == 0, 1.0, 0.0)
        return _transitions(n, 0.5, 1.0, fg, bg)

    with pytest.raises(SolverError, match=r"singular at n = 64\b"):
        _grow(build, (0, 0), max_n=2048)


def test_high_load_matches_solve_general():
    model = SingleServerModel(1.8, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 0.8, 1.0)))
    sol, ref = ctmc_solve(model), solve_general(model)
    assert model.offered_load() == pytest.approx(0.9)
    assert sol.truncation == (256, 256)
    for f in ("L", "L1", "L2"):
        assert getattr(sol, f) == pytest.approx(getattr(ref, f), rel=1e-8)


def test_debug_log_has_one_line_per_size(caplog):
    model = SingleServerModel(1.6, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 0.8, 1.0)))
    with caplog.at_level(logging.DEBUG, logger="fbq.ctmc"):
        sol = ctmc_solve(model)
    lines = [r.getMessage() for r in caplog.records if r.name == "fbq.ctmc"]
    assert sol.truncation == (128, 128)
    assert [line.split(":")[0] for line in lines] == ["n = 64", "n = 128"]
    assert "16641 states" in lines[1] and f"edge mass {sol.edge_mass:.3e}" in lines[1]
