"""Cross-checks between the two independent oracles (event simulation and
truncated chain) and the closed forms they are meant to referee."""

import math

import numpy as np
import pytest

from fbq.ctmc import ctmc_solve
from fbq.models import (
    CoxianService,
    ModelError,
    MultiServerModel,
    SingleServerModel,
    SolverError,
    SpeedProfile,
)
from fbq.multi import mmm_marginal
from fbq.simulate import (
    SimConfig,
    SimEstimate,
    ThreePhaseModel,
    match_three_phase,
    simulate,
    two_phase_approximation,
)

K1_MODEL = SingleServerModel(2.1, CoxianService(5.0, 1.0, 0.1), SpeedProfile((1.0, 1.0)))
K1_L = 1.415004659832246  # closed form, exact rational arithmetic


class TestCtmc:
    def test_k1_reference(self):
        sol = ctmc_solve(K1_MODEL)
        assert sol.L == pytest.approx(K1_L, abs=1e-6)
        assert sol.boundary[(0, 0)] == pytest.approx(1 - 0.42 - 0.21, abs=1e-9)

    def test_mm1_when_q_zero(self):
        m = SingleServerModel(1.0, CoxianService(2.0, 1.0, 0.0), SpeedProfile((1.0, 1.0)))
        sol = ctmc_solve(m)
        assert sol.L == pytest.approx(1.0, abs=1e-8)
        assert sol.L2 == pytest.approx(0.0, abs=1e-12)

    def test_mmm_when_q_zero(self):
        m = MultiServerModel(1.5, 1.0, 1.0, 0.0, 3)
        sol = ctmc_solve(m)
        p, L1 = mmm_marginal(3, 1.5)
        assert sol.L1 == pytest.approx(L1, abs=1e-8)
        assert sol.fg_marginal[0] == pytest.approx(p[0], abs=1e-8)

    def test_truncation_reporting(self):
        sol = ctmc_solve(K1_MODEL)
        assert sol.edge_mass < 1e-10
        # a load-0.9 model that needs n = 256 (tests/test_ctmc.py)
        heavy = SingleServerModel(1.8, CoxianService(5.0, 1.0, 0.3), SpeedProfile((0.5, 0.8, 1.0)))
        with pytest.raises(SolverError, match="truncation cap 64 reached"):
            ctmc_solve(heavy, max_n=64)

    def test_solution_is_a_distribution(self):
        sol = ctmc_solve(K1_MODEL)
        assert sum(sol.p) + sol.tail_mass == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0 for _, v in sol.boundary.items())


class TestSimulator:
    def test_deterministic_given_seed(self):
        cfg = SimConfig(model=K1_MODEL, jobs=50_000, warmup_jobs=5_000, seed=99)
        assert simulate(cfg) == simulate(cfg)
        other = SimConfig(model=K1_MODEL, jobs=50_000, warmup_jobs=5_000, seed=100)
        assert simulate(other) != simulate(cfg)

    def test_empty_when_no_arrivals(self):
        cfg = SimConfig(model=SingleServerModel(0.0, CoxianService(1, 1, 0.5),
                                                SpeedProfile((1, 1))),
                        jobs=1000, warmup_jobs=0, seed=1)
        est = simulate(cfg)
        assert est.L == est.L1 == est.L2 == 0.0

    def test_single_server_calibration(self):
        est = simulate(SimConfig(model=K1_MODEL, jobs=300_000, warmup_jobs=30_000, seed=4))
        assert est.ci_halfwidth > 0
        assert abs(est.L - K1_L) < 3 * est.ci_halfwidth

    def test_against_chain_oracle(self):
        rng = np.random.default_rng(12)
        hits = 0
        cases = []
        for _ in range(10):
            nu1 = rng.uniform(1.0, 6.0)
            nu2 = rng.uniform(0.4, 2.0)
            q = rng.uniform(0.05, 0.5)
            K = int(rng.integers(1, 4))
            levels = np.sort(rng.uniform(0.3, 1.0, K + 1))
            levels[-1] = 1.0
            lam = rng.uniform(0.2, 0.6) / (1 / nu1 + q / nu2)
            m = SingleServerModel(lam, CoxianService(nu1, nu2, q), SpeedProfile(tuple(levels)))
            est = simulate(SimConfig(model=m, jobs=120_000, warmup_jobs=12_000,
                                     seed=int(rng.integers(1 << 30))))
            exact = ctmc_solve(m).L
            cases.append((est.L, exact, est.ci_halfwidth))
            hits += abs(est.L - exact) < 3 * est.ci_halfwidth
        assert hits >= 9, cases

    def test_multi_threshold_dynamics(self):
        model = MultiServerModel(1.0, 1.0, 0.5, 0.5, 4, threshold=2)
        est = simulate(SimConfig(model=model, jobs=250_000, warmup_jobs=25_000, seed=7))
        exact = ctmc_solve(model)
        assert abs(est.L - exact.L) < 4 * est.ci_halfwidth
        assert est.U == pytest.approx(exact.U, rel=0.02)

    @pytest.mark.parametrize("model, seed", [
        (MultiServerModel(2.0, 1.0, 0.5, 0.0, 3, threshold=1), 21),
        (MultiServerModel(1.0, 1.5, 0.5, 1.0, 4, threshold=2), 22),
    ], ids=["q0", "q1"])
    def test_switch_off_pool_against_chain_oracle(self, model, seed):
        est = simulate(SimConfig(model=model, jobs=200_000, warmup_jobs=20_000, seed=seed))
        exact = ctmc_solve(model)
        for f in ("L", "L1", "L2"):
            assert abs(getattr(est, f) - getattr(exact, f)) < 4 * est.ci_halfwidth, f
        assert est.U == pytest.approx(exact.U, rel=0.02)

    def test_config_validation(self):
        with pytest.raises(ModelError):
            SimConfig(model=K1_MODEL, jobs=1000, warmup_jobs=500)
        with pytest.raises(ModelError):
            SimConfig(model=K1_MODEL, jobs=10_000, warmup_jobs=0, batch_count=5)

    def test_estimate_json_schema(self):
        est = SimEstimate(L=1.0, L1=0.6, L2=0.4, ci_halfwidth=0.05, jobs_completed=10, seed=3)
        assert set(est.to_json()) == {"L", "L1", "L2", "ci", "jobs", "seed"}


class TestThreePhase:
    def test_matched_rate_examples(self):
        assert match_three_phase(1.0, 0.5, 0.5) == pytest.approx(0.5, rel=1e-14)
        assert match_three_phase(1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert match_three_phase(3.0, 3.0, 0.8) == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_approximation_preserves_first_moment(self):
        tp = ThreePhaseModel(1.5, 5.0, 1.0, 0.5, 0.1, 0.5)
        two = two_phase_approximation(tp)
        mean3 = 1 / 5 + 0.1 / 1 + 0.1 * 0.5 / 0.5
        assert two.service.mean() == pytest.approx(mean3, rel=1e-13)
        assert two.service.q == tp.q1

    def test_light_load_tracks_approximation(self):
        tp = ThreePhaseModel(1.5, 5.0, 1.0, 0.5, 0.1, 0.5)
        est = simulate(SimConfig(model=tp, jobs=200_000, warmup_jobs=20_000, seed=11))
        from fbq.single import solve_k1_closed_form

        approx = solve_k1_closed_form(two_phase_approximation(tp)).L
        assert abs(est.L - approx) / approx < 0.05

    def test_q2_zero_matches_two_phase_closed_form(self):
        tp = ThreePhaseModel(1.5, 5.0, 1.0, 0.5, 0.1, 0.0)  # the third phase is never entered
        est = simulate(SimConfig(model=tp, jobs=200_000, warmup_jobs=20_000, seed=13))
        from fbq.single import solve_k1_closed_form

        exact = solve_k1_closed_form(two_phase_approximation(tp)).L
        assert abs(est.L - exact) < 4 * est.ci_halfwidth
