import copy
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest
from scipy.integrate import quad

from fbq.models import (
    CostCoefficients,
    CoxianService,
    FrozenDict,
    ModelError,
    MultiServerModel,
    SingleServerModel,
    SpeedProfile,
    check_stability_multi,
    check_stability_single,
    multi_model_from_json,
    multi_model_to_json,
    single_model_from_json,
    single_model_to_json,
)
from fbq.baselines import _las_terms
from fbq.ctmc import ctmc_solve
from fbq.multi import evaluate_cost_multi, solve_threshold
from fbq.simulation import ThreePhaseModel
from fbq.single import (evaluate_cost_single, solve_general, solve_k1_closed_form, solve_speed_family,
                        solve_zero_speed)


def density(svc):
    """The length density of svc, the first column of baselines._las_terms,
    which las_L integrates."""
    return lambda t: float(_las_terms(1.0, svc, t)[0])


def single(lam, nu1, nu2, q, speeds=(1.0, 1.0), alpha=1.0):
    return SingleServerModel(lam, CoxianService(nu1, nu2, q), SpeedProfile(speeds, alpha))


class TestValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(ModelError):
            CoxianService(0.0, 1.0, 0.5)
        with pytest.raises(ModelError):
            CoxianService(1.0, -2.0, 0.5)
        with pytest.raises(ModelError):
            CoxianService(1.0, 1.0, 1.5)

    def test_rejects_bad_speeds(self):
        with pytest.raises(ModelError):
            SpeedProfile((1.0,))           # K >= 1 needed
        with pytest.raises(ModelError):
            SpeedProfile((0.5, 0.4))       # decreasing
        with pytest.raises(ModelError):
            SpeedProfile((0.0, 0.0))       # zero top speed
        with pytest.raises(ModelError):
            SpeedProfile((0.0, 1.0), alpha=-1.0)

    def test_zero_low_speeds_representable(self):
        sp = SpeedProfile((0.0, 0.0, 1.0))
        assert sp.K == 2

    def test_rejects_bad_multi(self):
        with pytest.raises(ModelError):
            MultiServerModel(1.0, 1.0, 1.0, 0.1, 0)
        with pytest.raises(ModelError):
            MultiServerModel(1.0, 1.0, 1.0, 0.1, 3, threshold=3)
        with pytest.raises(ModelError):
            CostCoefficients(-1.0, 0.0)

    @pytest.mark.parametrize("field, value", [("m", 2.5), ("m", 3.0), ("m", True),
                                              ("threshold", 1.5), ("threshold", 1.0),
                                              ("threshold", False)])
    def test_multi_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ModelError, match=rf"^{field} must be an integer"):
            MultiServerModel(1.0, 1.0, 0.5, 0.2, **{"m": 3, "threshold": 1, field: value})
        doc = {"lambda": 1, "mu1": 1, "mu2": 0.5, "q": 0.2, "m": 3, "threshold": 2}
        assert multi_model_from_json(doc) == MultiServerModel(1.0, 1.0, 0.5, 0.2, 3, threshold=2)

    @pytest.mark.parametrize("field, value", [("m", 2.5), ("threshold", 1.5), ("m", True),
                                              ("threshold", "1"), ("m", None)])
    def test_multi_json_rejects_fractional_counts_by_name(self, field, value):
        doc = {"lambda": 1, "mu1": 1, "mu2": 0.5, "q": 0.2, "m": 3, "threshold": 1, field: value}
        with pytest.raises(ModelError, match=rf"^{field} must be an integer, got {value!r}$"):
            multi_model_from_json(doc)

    def test_multi_json_reads_whole_floats_as_counts(self):
        doc = {"lambda": 1, "mu1": 1, "mu2": 0.5, "q": 0.2, "m": 3.0, "threshold": 2.0}
        model = multi_model_from_json(doc)
        assert model == MultiServerModel(1.0, 1.0, 0.5, 0.2, 3, threshold=2)
        assert type(model.m) is type(model.threshold) is int


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_arrival_rate_of_every_model_class(self, bad):
        makers = [
            lambda: single(bad, 5.0, 1.0, 0.1),
            lambda: MultiServerModel(bad, 1.0, 0.5, 0.2, 3),
            lambda: ThreePhaseModel(bad, 5.0, 1.0, 0.5, 0.1, 0.5),
        ]
        for make in makers:
            with pytest.raises(ModelError, match=r"^lam must be finite"):
                make()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_speed_levels_and_alpha(self, bad):
        with pytest.raises(ModelError, match=r"^speed s_0 must be finite"):
            SpeedProfile((bad, 1.0))
        with pytest.raises(ModelError, match=r"^speed s_2 must be finite"):
            SpeedProfile((0.0, 0.5, bad))
        with pytest.raises(ModelError, match=r"^alpha must be finite"):
            SpeedProfile((0.0, 1.0), alpha=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cost_coefficients(self, bad):
        with pytest.raises(ModelError, match=r"^c1 must be finite"):
            CostCoefficients(bad, 1.0)
        with pytest.raises(ModelError, match=r"^c2 must be finite"):
            CostCoefficients(1.0, bad)

    def test_service_rates(self):
        with pytest.raises(ModelError, match=r"^nu2 must be finite"):
            CoxianService(1.0, math.inf, 0.5)
        with pytest.raises(ModelError, match=r"^mu1 must be finite"):
            MultiServerModel(1.0, math.inf, 0.5, 0.2, 3)


class TestStability:
    def test_single_examples(self):
        # load = 2*(1/5 + 0.1/1) = 0.6
        assert check_stability_single(single(2.0, 5.0, 1.0, 0.1))
        # boundary lambda = mu1 with q = 0 is not stable
        assert not check_stability_single(single(5.0, 5.0, 1.0, 0.0))
        # load = 3.4*(1/5 + 0.1) = 1.02
        assert not check_stability_single(single(3.4, 5.0, 1.0, 0.1))

    def test_multi_examples(self):
        # rho1 + rho2 = 5 + 2.5 = 7.5 < 10
        assert check_stability_multi(MultiServerModel(5.0, 1.0, 0.2, 0.1, 10))
        assert check_stability_multi(MultiServerModel(0.0, 1.0, 1.0, 0.5, 1))
        # rho1 + rho2 = 2 + 2 = 4 >= 2
        assert not check_stability_multi(MultiServerModel(2.0, 1.0, 1.0, 1.0, 2))

    def test_derived_rates_scale_with_speed(self):
        m = single(1.0, 4.0, 2.0, 0.3, speeds=(0.25, 0.5, 1.0))
        assert m.mu1 == 4.0 and m.mu2 == 2.0


class TestCoxian:
    def test_survival_at_zero_and_monotone(self):
        svc = CoxianService(3.0, 0.7, 0.4)
        assert svc.survival(0.0) == 1.0
        ts = np.linspace(0.0, 8.0, 50)
        vals = [svc.survival(t) for t in ts]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_pure_exponential_when_q_zero(self):
        svc = CoxianService(2.5, 1.0, 0.0)
        for t in (0.1, 1.0, 3.0):
            assert svc.survival(t) == pytest.approx(math.exp(-2.5 * t), rel=1e-14)

    def test_survival_matches_density_quadrature(self):
        # tail probability equals the integrated density
        svc = CoxianService(5.0, 1.0, 0.1)
        t = 1.0
        tail, _ = quad(density(svc), t, 60.0, epsabs=1e-13, limit=200)
        assert svc.survival(t) == pytest.approx(tail, abs=1e-10)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            CoxianService(1.0, 1.0, 0.5).survival(-0.1)

    @pytest.mark.parametrize("seed", range(6))
    def test_density_normalises_and_mean_matches_tail_integral(self, seed):
        rng = np.random.default_rng(seed)
        svc = CoxianService(rng.uniform(0.5, 6.0), rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.0))
        hi = 40.0 / min(svc.nu1, svc.nu2)
        total, _ = quad(density(svc), 0.0, hi, epsabs=1e-12, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)
        mean_from_tail, _ = quad(svc.survival, 0.0, hi, epsabs=1e-12, limit=300)
        assert svc.mean() == pytest.approx(mean_from_tail, abs=1e-8)

    def test_equal_rate_limit_is_continuous(self):
        base = CoxianService(2.0, 2.0 + 1e-7, 0.6)
        lim = CoxianService(2.0, 2.0, 0.6)
        for t in (0.2, 1.0, 4.0):
            assert lim.survival(t) == pytest.approx(base.survival(t), rel=1e-6)
            assert density(lim)(t) == pytest.approx(density(base)(t), rel=1e-6)

    def test_moments(self):
        svc = CoxianService(5.0, 1.0, 0.1)
        assert svc.mean() == pytest.approx(0.3)
        assert svc.second_moment() == pytest.approx(0.32)


class TestJson:
    def test_single_round_trip(self):
        m = single(2.0, 5.0, 1.0, 0.1, speeds=(0.0, 0.6, 1.0), alpha=2.0)
        doc = single_model_to_json(m)
        assert set(doc) == {"lambda", "nu1", "nu2", "q", "speeds", "alpha"}
        assert single_model_from_json(doc) == m

    def test_multi_round_trip(self):
        m = MultiServerModel(5.0, 1.0, 0.2, 0.1, 10, threshold=3)
        doc = multi_model_to_json(m)
        assert set(doc) == {"lambda", "mu1", "mu2", "q", "m", "threshold"}
        assert multi_model_from_json(doc) == m

    def test_missing_field(self):
        with pytest.raises(ModelError):
            single_model_from_json({"lambda": 1.0})

    @pytest.mark.parametrize("field, value, name", [
        ("lambda", True, "lambda"), ("nu1", "5", "nu1"), ("nu2", None, "nu2"), ("q", False, "q"),
        ("alpha", "2", "alpha"), ("speeds", [0.5, True], "speeds[1]"), ("speeds", ["0", 1.0], "speeds[0]"),
        ("speeds", "0,1", "speeds")])
    def test_single_rejects_booleans_and_strings_by_name(self, field, value, name):
        doc = {"lambda": 1.0, "nu1": 5.0, "nu2": 1.0, "q": 0.1, "speeds": [0.5, 1.0], "alpha": 2.0,
               field: value}
        with pytest.raises(ModelError, match=rf"^{re.escape(name)} must be a"):
            single_model_from_json(doc)

    @pytest.mark.parametrize("field, value", [("lambda", "1"), ("mu1", True), ("mu2", None), ("q", False)])
    def test_multi_rejects_booleans_and_strings_by_name(self, field, value):
        doc = {"lambda": 1, "mu1": 1, "mu2": 0.5, "q": 0.2, "m": 3, "threshold": 1, field: value}
        with pytest.raises(ModelError, match=rf"^{field} must be a number, got {re.escape(repr(value))}$"):
            multi_model_from_json(doc)

    def test_numpy_counts_are_stored_as_ints_and_dump(self):
        m = MultiServerModel(1.0, 1.0, 0.5, 0.2, np.int64(3), threshold=np.int64(1))
        assert type(m.m) is type(m.threshold) is int
        assert json.loads(json.dumps(multi_model_to_json(m))) == multi_model_to_json(m)
        doc = json.loads(json.dumps(solve_threshold(m).to_json()))
        assert doc["threshold"] == 1


def _rate_models():
    for levels in ((0.5, 1.0), (0.2, 0.4, 0.6, 0.8, 1.0), (0.0, 0.5, 1.0), (0.0, 0.0, 0.3, 0.7, 1.0)):
        for q in (0.0, 1.0):
            yield pytest.param(single(0.7, 3.0, 1.3, q, speeds=levels), id=f"single-{levels}-q{q}")
    for m in (1, 4):
        for threshold in sorted({0, m - 1}):
            for q in (0.0, 1.0):
                yield pytest.param(MultiServerModel(2.0, 1.1, 0.7, q, m, threshold=threshold),
                                   id=f"pool-m{m}-K{threshold}-q{q}")
    yield pytest.param(ThreePhaseModel(1.5, 5.0, 1.0, 0.5, 0.4, 0.5), id="three-phase")


@pytest.mark.parametrize("model", _rate_models())
def test_rates_on_index_arrays_equal_the_per_state_calls(model):
    # the CTMC oracle calls `rates` on index arrays and the simulator on
    # clamped states; both must see the same floats, on a grid past K or m
    if isinstance(model, ThreePhaseModel):
        shape = (4, 4, 4)
    else:
        n = (model.m if isinstance(model, MultiServerModel) else model.K) + 3
        shape = (n, n)
    idx = np.indices(shape)
    servers, *phases = (np.broadcast_to(r, shape) for r in model.rates(*idx))
    for state in np.ndindex(shape):
        got = model.rates(*state)
        assert got[0] == servers[state]
        assert all(g == r[state] for g, r in zip(got[1:], phases)), state
    for count, rate in zip(idx, phases):
        assert not rate[count == 0].any()  # no completion from an empty phase
    if isinstance(model, MultiServerModel):
        np.testing.assert_array_equal(servers, model.m * (idx.sum(axis=0) > model.threshold))
    else:
        assert not servers.any()


# --- solutions are read-only values that survive pickle and deepcopy ----------


def _family():
    return solve_speed_family(single(0.6, 1.0, 0.5, 0.3, speeds=(0.2, 0.5, 1.0)), [[0.3], [0.5], [0.8]])


POOL = MultiServerModel(2.0, 1.1, 0.7, 0.4, 4, threshold=2)
SOLUTIONS = {
    "multi": lambda: solve_threshold(POOL),
    "single": lambda: _family().solution(1),
    "zero_speed": lambda: solve_zero_speed(single(0.6, 1.0, 0.5, 0.3, speeds=(0.0, 0.0, 1.0))),
    "family": _family,
    "ctmc_pool": lambda: ctmc_solve(POOL),
    "ctmc_single": lambda: ctmc_solve(single(0.6, 1.0, 0.5, 0.3, speeds=(0.2, 0.5, 1.0))),
}


def _fields(sol):
    return {f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)}


def _assert_read_only(sol):
    for name, value in _fields(sol).items():
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0
        elif isinstance(value, dict):
            with pytest.raises(TypeError, match="read-only"):
                value[next(iter(value))] = 0.0
            with pytest.raises(TypeError, match="read-only"):
                value.update({})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sol, name, value)
    for value in _fields(sol).values():
        assert not isinstance(value, (list, set)), value


@pytest.mark.parametrize("name", SOLUTIONS)
def test_solutions_reject_edits(name):
    _assert_read_only(SOLUTIONS[name]())


@pytest.mark.parametrize("name", SOLUTIONS)
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_solutions_survive_pickle_and_deepcopy_with_equal_fields(name, clone):
    sol = SOLUTIONS[name]()
    twin = clone(sol)
    assert type(twin) is type(sol)
    for field, value in _fields(sol).items():
        got = getattr(twin, field)
        assert type(got) is type(value), field
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(got, value)
        else:
            assert got == value, field
    _assert_read_only(twin)


# --- every exact and oracle solution has one shape ----------------------------


SHARED_FIELDS = ("L1", "L2", "L", "p", "tail_mass", "energy_rate", "boundary")
EXACT = {
    "general K=2": (solve_general, single(2.5, 5.0, 1.0, 0.1, speeds=(0.0, 0.6, 1.0), alpha=2.0)),
    "closed form K=1": (solve_k1_closed_form, single(2.5, 5.0, 1.0, 0.1, speeds=(0.2, 1.0), alpha=2.0)),
    "zero speed K=3": (solve_zero_speed, single(2.5, 5.0, 1.0, 0.1, speeds=(0.0, 0.0, 0.0, 1.0))),
    "pool K=2": (solve_threshold, MultiServerModel(2.0, 1.0, 0.5, 0.25, 4, threshold=2)),
}


@pytest.mark.parametrize("name", EXACT)
def test_exact_and_oracle_solutions_share_one_shape(name):
    solver, model = EXACT[name]
    exact, oracle = solver(model), ctmc_solve(model)
    costs = CostCoefficients(1.0, 20.0)
    for sol in (exact, oracle):
        for field in SHARED_FIELDS:
            assert hasattr(sol, field), (type(sol).__name__, field)
        assert type(sol.boundary) is FrozenDict
        assert all(isinstance(state, tuple) and len(state) == 2 for state in sol.boundary)
        if isinstance(model, SingleServerModel):
            # the boundary of a single server is the triangle i + j <= K
            K = model.K
            assert set(sol.boundary) == {(i, t - i) for t in range(K + 1) for i in range(t + 1)}
        assert evaluate_cost_single(sol, costs) == evaluate_cost_multi(sol, costs)
    assert set(exact.boundary) == set(oracle.boundary)
    for field in SHARED_FIELDS[:-1]:
        assert getattr(exact, field) == pytest.approx(getattr(oracle, field), rel=1e-10, abs=1e-10), field
