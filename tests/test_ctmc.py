"""Truncated-CTMC oracle (fbq.ctmc): the fixed-state stationary solve, its
band LU against SuperLU, the compiled rectangle (search, fill and dgbsv in
one call) against its numpy reference (`reference.rectangle`) on the
rectangles of the benchmark's oracle traffic and of seeded extreme-rate
chains, the one normalisation (`ctmc._finish`) of every rectangle, the edge
j = n2 of the rectangle, the size of each axis, error reporting and the
growth log.

data/ctmc_pins.json holds L, L1, L2, U, energy_rate, g0_at_1 and the boundary
probabilities of 21 models (c02/c03 samples, q = 0, q = 0.9, a zero-speed
profile and pools with thresholds), recorded with the earlier solver, which
normalised through a dense all-ones row and blocked every jump past the
edge.  The fixed-state solve must agree to 1e-10 relative, beyond the
truncation error n * edge_mass that redirecting the edge jumps may move.
Those pins were solved on the square n = 64; the fitted rectangle
must instead keep both axes' edge masses below TAIL_TOL with the foreground
axis at its closed-form size.
"""

import importlib.util
import json
import logging
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp

import reference
from fbq import ctmc
from fbq.ctmc import (
    MAX_N,
    START_N2,
    TAIL_TOL,
    _chain,
    _foreground_size,
    _grow,
    _rates,
    _stationary,
    _transitions,
    ctmc_solve,
)
from fbq.models import CoxianService, MultiServerModel, SingleServerModel, SolverError, SpeedProfile
from fbq.multi import solve_threshold
from fbq.single import solve_general, solve_k1_closed_form
from test_family_solve import raised

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "ctmc_pins.json").read_text())
WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _model(spec):
    if spec["kind"] == "single":
        return SingleServerModel(spec["lam"], CoxianService(spec["nu1"], spec["nu2"], spec["q"]),
                                 SpeedProfile(tuple(spec["levels"]), spec["alpha"]))
    return MultiServerModel(spec["lam"], spec["mu1"], spec["mu2"], spec["q"], spec["m"],
                            threshold=spec["threshold"])


def _foreground_n(model):
    _, level, _, ratio = _chain(model)
    return _foreground_size(level, ratio)


def _grid(model, n1, n2):
    """Stationary grid of `model` grown from the rectangle (n1, n2)."""
    fixed, *_ = _chain(model)
    return _grow(model, fixed, n1, n2, MAX_N)[0]


@pytest.mark.parametrize("pin", PINS["models"], ids=lambda p: p["label"])
def test_matches_pinned_oracle(pin):
    model = _model(pin["model"])
    sol = ctmc_solve(model)
    assert sol.edge_mass < TAIL_TOL and sol.truncation[0] == _foreground_n(model)
    slack = pin["truncation"][0] * pin["edge_mass"]
    pairs = [(getattr(sol, f), pin[f]) for f in ("L", "L1", "L2", "U", "energy_rate", "g0_at_1")]
    pairs += [(sol.boundary[(i, j)], v) for i, j, v in pin["boundary"]]
    for got, want in pairs:
        assert abs(got - want) <= 1e-10 * abs(want) + slack + 1e-15, (got, want)
    assert sum(sol.p) + sol.tail_mass == pytest.approx(1.0, abs=1e-12)


def _loop_rates(model, n1, n2):
    """Per-state loop over the rectangle, the reference for the builders."""
    rows, cols, rates = [], [], []

    def add(i, j, i2, j2, rate):
        if rate > 0.0 and 0 <= i2 <= n1 and 0 <= j2 <= n2:
            rows.append(i * (n2 + 1) + j)
            cols.append(i2 * (n2 + 1) + j2)
            rates.append(rate)

    q = model.q
    for i in range(n1 + 1):
        for j in range(n2 + 1):
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
                add(i, j, i - 1, min(j + 1, n2), fg * q)
            if j > 0:
                add(i, j, i, j - 1, bg)
    return rows, cols, rates


def _dense(rows, cols, rates, n1, n2):
    return sp.coo_matrix((rates, (rows, cols)), shape=((n1 + 1) * (n2 + 1),) * 2).toarray()


@pytest.mark.parametrize("model", [
    SingleServerModel(1.1, CoxianService(4.0, 1.5, 0.3), SpeedProfile((0.0, 0.4, 0.7, 1.0))),
    SingleServerModel(0.5, CoxianService(5.0, 1.0, 1.0), SpeedProfile((0.5, 1.0))),
    SingleServerModel(1.5, CoxianService(5.0, 1.0, 0.0), SpeedProfile((0.0, 0.0, 1.0))),
    MultiServerModel(2.0, 1.0, 0.6, 0.4, 3, threshold=1),
    MultiServerModel(1.2, 1.0, 0.6, 1.0, 4, threshold=0),
    MultiServerModel(1.2, 1.0, 0.6, 0.0, 4, threshold=3),
], ids=["single-K3", "single-q1", "single-zero-speed-q0", "pool-m3", "pool-q1", "pool-q0"])
def test_builders_match_the_per_state_loop(model):
    for n1, n2 in ((1, 5), (5, 1), (5, 5)):
        got = _dense(*_transitions(*_rates(model, n1, n2)), n1, n2)
        want = _dense(*_loop_rates(model, n1, n2), n1, n2)
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


def _absorbing_edge(n1, n2):
    # no foreground service on the edge j = n2 and q = 1: the states (i, n2)
    # only see arrivals, so (n1, n2) is absorbing and reachable from (0, 0)
    i, j = np.indices((n1 + 1, n2 + 1))
    fg = np.where((i > 0) & (j < n2), 5.0, 0.0)
    bg = np.where(i == 0, 1.0, 0.0)
    return 0.5, 1.0, fg, bg


class _AbsorbingEdge:
    """`_absorbing_edge` on the rectangle (30, 16) as a model for `_grow`."""

    lam, q = 0.5, 1.0

    def rates(self, i, j):
        return 0, np.where((i > 0) & (j < 16), 5.0, 0.0), np.where(i == 0, 1.0, 0.0)


def test_reducible_chain_raises_at_first_size():
    with pytest.raises(SolverError, match=r"singular at truncation \(30, 16\)"):
        _grow(_AbsorbingEdge(), (0, 0), 30, 16, max_n=2048)


@pytest.mark.parametrize("n1,n2", [(30, 16), (16, 30)])
def test_reducible_chain_raises_the_same_error_on_both_paths(n1, n2, monkeypatch):
    messages = []
    for band_max in (ctmc.BAND_MAX, 0):
        monkeypatch.setattr(ctmc, "BAND_MAX", band_max)
        with pytest.raises(SolverError, match=rf"singular at truncation \({n1}, {n2}\)") as err:
            _stationary(*_absorbing_edge(n1, n2), 0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_zero_arrival_rate_leaves_only_the_fixed_state():
    # no state is reachable from the fixed one, so no system is solved
    single = SingleServerModel(0.0, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 1.0)))
    pool = MultiServerModel(0.0, 1.0, 0.5, 0.3, 3, threshold=1)
    assert ctmc_solve(single).L == 0.0 and ctmc_solve(pool).L == 1.0


@pytest.mark.parametrize("q", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("model", [
    SingleServerModel(1.1, CoxianService(4.0, 3.0, 0.0), SpeedProfile((0.0, 0.4, 0.7, 1.0))),
    SingleServerModel(1.1, CoxianService(4.0, 3.0, 0.0), SpeedProfile((0.0, 0.0, 0.7, 1.0))),
    MultiServerModel(1.2, 1.0, 2.0, 0.0, 4, threshold=2),
    MultiServerModel(1.5, 1.0, 2.0, 0.0, 3, threshold=0),
], ids=["single-K3", "single-zero-speed", "pool-m4-K2", "pool-m3"])
def test_foreground_marginal_is_geometric_above_the_modulation_level(model, q):
    # the premise of the closed-form foreground size: the cut between
    # levels i and i + 1 gives lam P(i) = (foreground rate at i + 1) P(i + 1)
    if isinstance(model, SingleServerModel):
        model = SingleServerModel(model.lam, CoxianService(4.0, 3.0, q), model.speeds)
        first, rate = model.K - 1, lambda i: model.mu1
    else:
        model = MultiServerModel(model.lam, model.mu1, model.mu2, q, model.m, model.threshold)
        first, rate = model.threshold, lambda i: min(i + 1, model.m) * model.mu1
    marginal = _grid(model, _foreground_n(model), START_N2).sum(axis=1)
    # levels of mass below 1e-6 carry the solve's absolute roundoff
    for i in range(first, len(marginal) - 1):
        if marginal[i + 1] > 1e-6:
            assert marginal[i + 1] / marginal[i] == pytest.approx(model.lam / rate(i), rel=1e-12)


def _accuracy_models():
    """Seeded pools (m = 2..8, every threshold) and single servers (K = 1..8)
    at loads up to 0.95, with q cycling through 0, 1 and a drawn value; the
    single servers from K = 4 on have zero speeds below k = K // 2 + 1."""
    rng = np.random.default_rng(16)
    for m in range(2, 9):
        for K in range(m):
            q = (0.0, 1.0, rng.uniform(0.05, 0.95))[(m + K) % 3]
            mu1, mu2, load = rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0), rng.uniform(0.2, 0.95)
            model = MultiServerModel(load * m / (1 / mu1 + q / mu2), mu1, mu2, q, m, threshold=K)
            yield pytest.param(model, id=f"pool-m{m}-K{K}")
    for K in range(1, 9):
        q = (0.0, 1.0, rng.uniform(0.05, 0.95))[K % 3]
        nu1, nu2, load = rng.uniform(1.0, 8.0), rng.uniform(0.3, 3.0), rng.uniform(0.2, 0.95)
        levels = np.sort(rng.uniform(0.2, 1.0, K + 1))
        levels[-1], levels[:K // 2] = 1.0, 0.0
        model = SingleServerModel(load / (1 / nu1 + q / nu2), CoxianService(nu1, nu2, q),
                                  SpeedProfile(tuple(levels)))
        yield pytest.param(model, id=f"single-K{K}")


@pytest.mark.parametrize("model", _accuracy_models())
def test_fitted_rectangle_matches_a_larger_one(model):
    sol = ctmc_solve(model)
    n1, n2 = sol.truncation
    grid = _grid(model, n1 + 16, 2 * n2)
    L1 = grid.sum(axis=1) @ np.arange(grid.shape[0])
    L2 = grid.sum(axis=0) @ np.arange(grid.shape[1])
    assert sol.L1 == pytest.approx(L1, rel=1e-10)
    assert sol.L2 == pytest.approx(L2, rel=1e-10)
    assert sol.L == pytest.approx(L1 + L2, rel=1e-10)
    for (i, j), v in sol.boundary.items():
        assert v == pytest.approx(grid[i, j], rel=1e-10), (i, j)


@pytest.mark.parametrize("q,ordering", [(0.4, "MMD_AT_PLUS_A"), (1.0, "COLAMD")])
def test_column_order_unless_every_foreground_completion_feeds_back(q, ordering, monkeypatch):
    solve, seen = ctmc.spla.spsolve, []

    def spy(a, b, order):
        seen.append(order)
        return solve(a, b, order)

    monkeypatch.setattr(ctmc.spla, "spsolve", spy)
    # a 71 x 71 rectangle is wider than the band LU takes, so SuperLU solves it
    model = SingleServerModel(0.5, CoxianService(5.0, 1.0, q), SpeedProfile((0.5, 1.0)))
    _stationary(*_rates(model, 70, 70), 0)
    assert seen and set(seen) == {ordering}


@pytest.mark.parametrize("n1,n2", [(12, 30), (30, 12)], ids=["wide", "tall"])
@pytest.mark.parametrize("model", _accuracy_models())
def test_band_lu_matches_superlu(model, n1, n2, monkeypatch):
    # the band LU in both numberings (foreground-major when n2 > n1) against
    # SuperLU on the same rectangle; thresholds, q = 0 and zero speeds leave
    # unreachable states out of the system
    (i, j), levels, fields, _ = _chain(model)
    solved = []
    for band_max, solver in ((ctmc.BAND_MAX, "band LU"), (0, "SuperLU")):
        monkeypatch.setattr(ctmc, "BAND_MAX", band_max)
        grid, _, how = _stationary(*_rates(model, n1, n2), i * (n2 + 1) + j)
        assert how.startswith(solver)
        fg_marginal = grid.sum(axis=1)
        L1 = fg_marginal @ np.arange(n1 + 1)
        L2 = grid.sum(axis=0) @ np.arange(n2 + 1)
        # p feeds only the energy rate and U
        solved.append(([L1, L2, L1 + L2], fields(model, grid, fg_marginal, [0.0] * levels)["boundary"]))
    (band, band_boundary), (superlu, superlu_boundary) = solved
    assert band == pytest.approx(superlu, rel=1e-12)
    for state, v in superlu_boundary.items():
        assert band_boundary[state] == pytest.approx(v, rel=1e-12), state


def _stationary_bits(model, n1, n2):
    """`_stationary` on the rectangle (n1, n2): the bytes of the grid and of
    its marginals, and the factorisation."""
    (i, j), *_ = _chain(model)
    grid, marginals, solver = _stationary(*_rates(model, n1, n2), i * (n2 + 1) + j)
    return grid.tobytes(), [m.tobytes() for m in marginals], solver


# lam = 0, q = 0 and q = 1, and zero speeds below the third job, beside the
# seeded models: chains where the fixed state reaches few or no states
EDGE_MODELS = [
    pytest.param(SingleServerModel(0.0, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 1.0))),
                 id="single-lam0"),
    pytest.param(MultiServerModel(0.0, 1.0, 0.5, 0.3, 3, threshold=1), id="pool-lam0"),
    *(pytest.param(SingleServerModel(1.1, CoxianService(4.0, 3.0, q), SpeedProfile((0.0, 0.0, 0.7, 1.0))),
                   id=f"single-zero-speed-q{q:g}") for q in (0.0, 1.0)),
    *(pytest.param(MultiServerModel(1.2, 1.0, 0.6, q, 4, threshold=2), id=f"pool-K2-q{q:g}")
      for q in (0.0, 1.0)),
]


@pytest.mark.parametrize("n1,n2", [(12, 30), (30, 12)], ids=["wide", "tall"])
@pytest.mark.parametrize("model", [*_accuracy_models(), *EDGE_MODELS])
def test_stationary_is_equal_on_both_assemblies(model, n1, n2, on_both_paths):
    # the grid and its marginals, signed zeros included
    compiled, python = on_both_paths(lambda: _stationary_bits(model, n1, n2))
    assert compiled == python
    # lam = 0 leaves no equation to assemble, so SuperLU's path solves it
    assert compiled[2].startswith("SuperLU" if model.lam == 0 else "band LU")


@pytest.mark.parametrize("model", [*(pytest.param(_model(p["model"]), id=p["label"]) for p in PINS["models"]),
                                   *EDGE_MODELS])
def test_ctmc_solve_is_equal_on_both_assemblies(model, on_both_paths):
    compiled, python = on_both_paths(lambda: ctmc_solve(model))
    assert compiled == python


@pytest.mark.parametrize("n1,n2", [(30, 16), (16, 30)])
def test_reducible_chain_raises_the_same_error_on_both_assemblies(n1, n2, on_both_paths):
    def message():
        with pytest.raises(SolverError, match=rf"singular at truncation \({n1}, {n2}\)") as err:
            _stationary(*_absorbing_edge(n1, n2), 0)
        return str(err.value)

    compiled, python = on_both_paths(message)
    assert compiled == python


def _rectangle_bits(out):
    """A rectangle's outcome (`ctmc._band_rectangle` or
    `reference.rectangle`) with its arrays and the offending value as
    bytes."""
    if out is None:
        return None
    status, value, grid, marginals, solver = out
    arrays = [] if grid is None else [grid, *marginals]
    return status, np.float64(value).tobytes(), [a.tobytes() for a in arrays], solver


def _oracle_models(seed):
    """The distinct models that the benchmark's oracle_check traffic of this
    seed hands to ctmc_solve."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tasks = workloads.generate("oracle_check", seed, 20)["tasks"]
    build = {"ctmc_single": workloads.single_model, "ctmc_pool": workloads.pool_model}
    return [build[t["kind"]](t["params"]) for t in tasks if t["kind"] in build]


def test_compiled_rectangle_equals_the_numpy_path_on_the_oracle_traffic(monkeypatch):
    # every rectangle that ctmc_solve visits for the benchmark's oracle
    # traffic on two seeds and for the pinned models: grid, marginals and
    # factorisation, signed zeros included
    compiled, rectangles = ctmc._band_rectangle, []

    def spy(*args):
        rectangles.append(args)
        return compiled(*args)

    models = [*_oracle_models(1), *_oracle_models(9001), *(_model(p["model"]) for p in PINS["models"])]
    monkeypatch.setattr(ctmc, "_band_rectangle", spy)
    for model in models:
        ctmc_solve(model)
    assert len(models) == 291 and len(rectangles) > 500
    # and rectangles of the widest band, whose half-width of 65 takes
    # LAPACK's blocked band LU
    for model in models[-6:]:
        (i, j), *_ = _chain(model)
        for n1, n2 in ((64, 300), (300, 64)):
            rectangles.append((*_rates(model, n1, n2), i * (n2 + 1) + j))
    for args in rectangles:
        got, want = _rectangle_bits(compiled(*args)), _rectangle_bits(reference.rectangle(*args))
        assert got == want and got[0] == 0


def _extreme_chains(count):
    """Seeded chains on small rectangles whose rates span up to 600 decades,
    with some rates zero: the band LU meets zero pivots, overflow and
    cancellation there."""
    rng = np.random.default_rng(42)
    for _ in range(count):
        shape = tuple(rng.integers(2, 7, 2))
        span = rng.uniform(1, 300)

        def rates():
            return 10.0 ** rng.uniform(-span, span, shape) * (rng.random(shape) < 0.8)

        fg, bg = rates(), rates()
        lam, q = 10.0 ** rng.uniform(-span, span), rng.choice([0.0, 1.0, rng.random()])
        yield lam, q, fg, bg, int(rng.integers(0, fg.size))


def test_compiled_rectangle_equals_the_numpy_path_on_extreme_rates(on_both_paths):
    seen = set()
    with np.errstate(all="ignore"):
        for chain in _extreme_chains(3_000):
            got = _rectangle_bits(ctmc._band_rectangle(*chain))
            assert got == _rectangle_bits(reference.rectangle(*chain)), chain
            if got is not None and got[0] not in seen:
                seen.add(got[0])
                if got[0]:   # and the message that _stationary raises on each failure
                    compiled, python = on_both_paths(lambda: raised(lambda: _stationary(*chain)))
                    assert compiled == python
    assert seen == {0, ctmc._SINGULAR, ctmc._TOTAL, ctmc._NEGATIVE}


@pytest.mark.parametrize("band_max, solver", [(ctmc.BAND_MAX, "band LU"), (0, "SuperLU")])
def test_every_rectangle_is_normalised_by_one_finish(band_max, solver, monkeypatch):
    # whichever solver solves a rectangle, `_finish` alone normalises it,
    # once: [its shape, the shapes that `_finish` saw, its solver] per rectangle
    finish, stationary, rectangles = ctmc._finish, ctmc._stationary, []

    def spy_finish(pi, shape):
        rectangles[-1][1].append(shape)
        return finish(pi, shape)

    def spy_stationary(lam, q, fg, bg, fixed):
        rectangles.append([fg.shape, []])
        out = stationary(lam, q, fg, bg, fixed)
        rectangles[-1].append(out[2])
        return out

    monkeypatch.setattr(ctmc, "BAND_MAX", band_max)
    monkeypatch.setattr(ctmc, "_finish", spy_finish)
    monkeypatch.setattr(ctmc, "_stationary", spy_stationary)
    ctmc_solve(SingleServerModel(1.6, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 0.8, 1.0))))
    ctmc_solve(MultiServerModel(1.2, 1.0, 0.6, 1.0, 4, threshold=2))
    assert [shape for shape, *_ in rectangles] == [(30, 17), (30, 65), (30, 109),
                                                    (30, 17), (30, 65), (30, 162)]
    for shape, finished, how in rectangles:
        assert finished == [shape] and how.startswith(solver)


def test_compiled_assembly_rejects_rate_grids_of_different_shapes():
    with pytest.raises(ValueError, match=r"shapes \(3, 4\) and \(3, 1\)"):
        ctmc._band_rectangle(1.0, 0.5, np.ones((3, 4)), np.ones((3, 1)), 0)


def test_high_load_matches_solve_general():
    model = SingleServerModel(1.8, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 0.8, 1.0)))
    sol, ref = ctmc_solve(model), solve_general(model)
    assert model.offered_load() == pytest.approx(0.9)
    n1, n2 = sol.truncation
    assert (n1 + 1) * (n2 + 1) < 257**2 / 4  # the square the oracle once solved
    for f in ("L", "L1", "L2"):
        assert getattr(sol, f) == pytest.approx(getattr(ref, f), rel=1e-8)


def test_debug_log_has_one_line_per_size(caplog):
    model = SingleServerModel(1.6, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 0.8, 1.0)))
    with caplog.at_level(logging.DEBUG, logger="fbq.ctmc"):
        sol = ctmc_solve(model)
    lines = [r.getMessage() for r in caplog.records if r.name == "fbq.ctmc"]
    assert sol.truncation == (29, 108)
    assert [line.split(":")[0] for line in lines] == ["(29, 16)", "(29, 64)", "(29, 108)"]
    assert "3270 states" in lines[2] and f"{sol.edge_mass:.3e} background" in lines[2]


def test_debug_log_names_the_factorisation(caplog, monkeypatch):
    # the band's half-width is the short axis + 1: n2 + 1 while the
    # foreground axis is longer, n1 + 1 once the numbering turns
    model = SingleServerModel(1.6, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 0.8, 1.0)))
    for band_max, want in ((ctmc.BAND_MAX, ["band LU kl=17 ku=17"] + 2 * ["band LU kl=29 ku=30"]),
                           (0, 3 * ["SuperLU MMD_AT_PLUS_A"])):
        monkeypatch.setattr(ctmc, "BAND_MAX", band_max)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fbq.ctmc"):
            ctmc_solve(model)
        lines = [r.getMessage() for r in caplog.records if r.name == "fbq.ctmc"]
        assert [line.rsplit(", ", 1)[1] for line in lines] == want


def test_debug_log_names_the_assembly(caplog, monkeypatch, on_both_paths):
    # the factorisation names the assembly too: `fbq_ctmc_rectangle` (or its
    # reference) fills every band system, `_solve_sparse` every SuperLU one
    model = SingleServerModel(1.6, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 0.8, 1.0)))

    def solvers(band_max):
        monkeypatch.setattr(ctmc, "BAND_MAX", band_max)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="fbq.ctmc"):
            ctmc_solve(model)
        return [r.getMessage().rsplit(", ", 1)[1].split()[0] for r in caplog.records if r.name == "fbq.ctmc"]

    band_max = ctmc.BAND_MAX
    compiled, python = on_both_paths(lambda: (solvers(band_max), solvers(0)))
    assert compiled == python == (3 * ["band"], 3 * ["SuperLU"])
