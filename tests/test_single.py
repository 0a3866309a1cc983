import logging
import math
import warnings

import numpy as np
import pytest

from fbq import ctmc
from fbq.ctmc import ctmc_solve
from fbq.experiments import solve
from fbq.models import (
    CostCoefficients,
    CoxianService,
    ModelError,
    SingleServerModel,
    SpeedProfile,
    UnstableModelError,
)
from fbq.single import (
    evaluate_cost_single,
    solve_general,
    solve_k1_closed_form,
    solve_zero_speed,
    verify_single,
)
from fbq.series import kernel_root_series
from test_acceptance import sample_single

# reference values computed with the truncated-chain oracle (ctmc_solve,
# edge mass < 1e-10); kept frozen so regressions are loud
K2_EXAMPLE = dict(L=2.6301679033, L1=1.0886713073, L2=1.5414965960,
                  p0=0.1519405454, p1=0.2451486365, g0=0.1694142986)
ZERO_K3_EXAMPLE = dict(L2=2.6, pi_0_3=0.1211102551, pi_1_2=0.1508643878)


def single(lam, nu1, nu2, q, speeds, alpha=1.0):
    return SingleServerModel(lam, CoxianService(nu1, nu2, q), SpeedProfile(speeds, alpha))


# deep staircases: nu = (5, 1), q = 0.3 and 33 evenly spaced speeds from 0.3
# to 1 (K = 32) at loads lam (1/5 + 0.3/1) = 0.5 and 0.3, and one drawn model
# at each of K = 24, 32 and 40
DEEP_MODELS = {
    **{f"staircase-K32-load{load}": single(load / 0.5, 5.0, 1.0, 0.3, tuple(np.linspace(0.3, 1.0, 33)))
       for load in (0.5, 0.3)},
    **{f"sampled-K{K}": sample_single(np.random.default_rng(K), K, umax=0.6) for K in (24, 32, 40)},
}


def random_stable_model(rng, K):
    nu1 = rng.uniform(1.0, 8.0)
    nu2 = rng.uniform(0.3, 3.0)
    q = rng.uniform(0.02, 0.6)
    levels = np.sort(rng.uniform(0.2, 1.0, K + 1))
    levels[-1] = 1.0
    if rng.random() < 0.3:
        levels[0] = 0.0
    cap = 1.0 / (1.0 / nu1 + q / nu2)
    lam = rng.uniform(0.15, 0.65) * cap
    return single(lam, nu1, nu2, q, tuple(levels), alpha=rng.uniform(0.5, 3.0))


class TestKernelRootOp:
    def test_at_one(self):
        m = single(2.0, 5.0, 1.0, 0.1, (1, 1))
        s = kernel_root_series(m.rho1, m.q, 1.0, 2)
        assert s.c[0] == 1.0
        assert s.c[1] * math.factorial(1) == pytest.approx(0.1 / 0.6, rel=1e-14)
        assert s.c[2] * math.factorial(2) == pytest.approx(2 * 0.4 * 0.01 / 0.6**3, rel=1e-13)


class TestClosedFormK1:
    def test_reference_point(self):
        sol = solve_k1_closed_form(single(2.0, 5.0, 1.0, 0.1, (0, 1)))
        assert sol.boundary[(0, 0)] == pytest.approx(0.4, abs=1e-12)
        assert sol.L1 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert sol.L2 == pytest.approx(0.6, rel=1e-12)
        assert sol.L == pytest.approx(1.2666666667, rel=1e-9)
        assert sol.g0_at_1 == pytest.approx(0.2, rel=1e-12)

    def test_comparison_grid_point(self):
        # exact rational arithmetic gives L1 = 21/29, L2 = 7413/10730
        sol = solve_k1_closed_form(single(2.1, 5.0, 1.0, 0.1, (1, 1)))
        assert sol.L1 == pytest.approx(0.7241379310344828, rel=1e-13)
        assert sol.L2 == pytest.approx(0.6908667287977632, rel=1e-13)
        assert sol.L == pytest.approx(1.415004659832246, rel=1e-13)

    def test_light_traffic_limit(self):
        sol = solve_k1_closed_form(single(1e-8, 5.0, 1.0, 0.1, (0, 1)))
        assert sol.boundary[(0, 0)] == pytest.approx(1.0, abs=1e-7)
        assert sol.L == pytest.approx(0.0, abs=1e-7)

    def test_mm1_when_q_zero(self):
        sol = solve_k1_closed_form(single(1.0, 2.0, 1.0, 0.0, (1, 1)))
        assert sol.boundary[(0, 0)] == pytest.approx(0.5, rel=1e-13)
        assert sol.L == pytest.approx(1.0, rel=1e-13)
        assert sol.L2 == pytest.approx(0.0, abs=1e-13)

    def test_requires_k1(self):
        with pytest.raises(ModelError):
            solve_k1_closed_form(single(1.0, 5.0, 1.0, 0.1, (0, 0.5, 1)))


class TestGeneralSolver:
    def test_k1_equals_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m = random_stable_model(rng, 1)
            gen = solve_general(m)
            cf = solve_k1_closed_form(m)
            for pick in ("L", "L1", "L2", "g0_at_1", "tail_mass", "energy_rate"):
                a, b = getattr(gen, pick), getattr(cf, pick)
                assert a == pytest.approx(b, rel=1e-10, abs=1e-12), pick

    def test_k2_reference_point(self):
        m = single(2.5, 5.0, 1.0, 0.1, (0.0, 0.6, 1.0))
        sol = solve_general(m)
        assert sol.L == pytest.approx(K2_EXAMPLE["L"], rel=1e-6)
        assert sol.L1 == pytest.approx(K2_EXAMPLE["L1"], rel=1e-6)
        assert sol.L2 == pytest.approx(K2_EXAMPLE["L2"], rel=1e-6)
        assert sol.p[0] == pytest.approx(K2_EXAMPLE["p0"], rel=1e-6)
        assert sol.p[1] == pytest.approx(K2_EXAMPLE["p1"], rel=1e-6)
        assert sol.g0_at_1 == pytest.approx(K2_EXAMPLE["g0"], rel=1e-6)
        res = verify_single(m, sol)
        assert res["flow_balance"] < 1e-9
        assert res["normalization"] < 1e-10

    def test_q_zero_reduces_to_mm1(self):
        for K in (1, 2, 3):
            m = single(1.4, 2.0, 1.0, 0.0, (1.0,) * (K + 1))
            sol = solve_general(m)
            rho = 0.7
            assert sol.L2 == pytest.approx(0.0, abs=1e-12)
            assert sol.L1 == pytest.approx(rho / (1 - rho), rel=1e-10)

    def test_flat_profile_matches_unmodulated_model(self):
        # equal speeds everywhere: the staircase is invisible, so a deeper
        # staircase must reproduce the plain two-speed solution
        flat3 = solve_general(single(1.8, 5.0, 1.0, 0.2, (0.8, 0.8, 0.8, 0.8)))
        flat1 = solve_k1_closed_form(single(1.8, 5.0, 1.0, 0.2, (0.8, 0.8)))
        assert flat3.L == pytest.approx(flat1.L, rel=1e-10)
        assert flat3.L1 == pytest.approx(flat1.L1, rel=1e-10)
        assert flat3.L2 == pytest.approx(flat1.L2, rel=1e-10)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_matches_oracle(self, K):
        rng = np.random.default_rng(100 + K)
        for _ in range(3):
            m = random_stable_model(rng, K)
            sol = solve_general(m)
            ora = ctmc_solve(m)
            assert sol.L == pytest.approx(ora.L, rel=1e-5)
            assert sol.L1 == pytest.approx(ora.L1, rel=1e-5)
            assert sol.L2 == pytest.approx(ora.L2, rel=1e-5, abs=1e-9)
            for state, val in sol.boundary.items():
                assert val == pytest.approx(ora.boundary[state], abs=1e-8)

    @pytest.mark.parametrize("name", DEEP_MODELS)
    def test_deep_staircase_matches_oracle(self, name, monkeypatch):
        # the oracle grows its rectangle until the edge mass is below 1e-16,
        # so its truncation stays far below the tolerances
        monkeypatch.setattr(ctmc, "TAIL_TOL", 1e-16)
        m = DEEP_MODELS[name]
        sol, ora = solve_general(m), ctmc_solve(m)
        for pick in ("L", "L1", "L2"):
            assert getattr(sol, pick) == pytest.approx(getattr(ora, pick), rel=1e-10, abs=0), pick
        assert sol.g0_at_1 == pytest.approx(ora.g0_at_1, rel=0, abs=1e-12)

    def test_q_zero_roundoff_clamps_log_no_warning(self, caplog):
        # with q = 0 every state with j > 0 has probability 0 and the solve
        # returns it as +-roundoff; clamping that is routine, so debug only
        with caplog.at_level(logging.DEBUG, logger="fbq"):
            for K in range(2, 7):
                solve_general(single(1.0, 5.0, 1.0, 0.0, tuple(np.linspace(0.2, 1.0, K + 1))))
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert any(r.getMessage().startswith("clamping") for r in caplog.records)

    def test_identities_on_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            m = random_stable_model(rng, int(rng.integers(1, 5)))
            sol = solve_general(m)
            res = verify_single(m, sol)
            assert res["normalization"] < 1e-10
            assert res["flow_balance"] < 1e-9
            assert res["g0_leading_coeffs"] < 1e-12
            assert res["pi0K_recovery"] < 1e-9
            # boundary-combination residual shrinks proportionally to z
            assert res["maclaurin_decay"] < 0.3 or res["maclaurin_at_1e3"] < 1e-12
            if all(s > 0 for s in m.speeds.levels):
                # sub-threshold states are all reachable
                assert all(v > 0 for (i, j), v in sol.boundary.items()
                           if i + j < m.K)

    def test_rejects_unstable_and_zero_speed(self):
        with pytest.raises(UnstableModelError):
            solve_general(single(4.0, 5.0, 1.0, 0.1, (0, 1)))
        with pytest.raises(ModelError):
            solve_general(single(1.0, 5.0, 1.0, 0.1, (0.0, 0.0, 1.0)))
        with pytest.raises(ModelError):
            # mixed zero and positive sub-threshold speeds fit neither solver
            solve_general(single(1.0, 5.0, 1.0, 0.1, (0.0, 0.0, 0.5, 1.0)))

    @pytest.mark.parametrize("K", [1, 2, 5])
    def test_rejects_q_one_by_name(self, K):
        # y1(0) = 0 at q = 1, so every Maclaurin row is zero
        m = single(0.5, 4.0, 1.0, 1.0, tuple(np.linspace(0.5, 1.0, K + 1)))
        with pytest.raises(ModelError, match=r"q < 1.*y1\(0\) is 0"):
            solve_general(m)

    def test_q_one_k1_still_solves_by_closed_form(self):
        m = single(0.5, 4.0, 1.0, 1.0, (0.5, 1.0))
        sol = solve(m)
        assert sol.L == solve_k1_closed_form(m).L
        assert sol.L == pytest.approx(ctmc_solve(m).L, rel=1e-9)

    def test_raising_speed_never_slows_the_system(self):
        # expected property of the modulated chain; warn rather than fail
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = random_stable_model(rng, 2)
            if m.speeds.levels[1] >= 0.95:
                continue
            bumped = SpeedProfile((m.speeds.levels[0], m.speeds.levels[1] + 0.05, 1.0),
                                  m.speeds.alpha)
            L_lo = solve_general(m).L
            L_hi = solve_general(SingleServerModel(m.lam, m.service, bumped)).L
            if L_hi > L_lo + 1e-9:
                warnings.warn(f"mean count rose from {L_lo} to {L_hi} after a speed increase")


class TestZeroSpeed:
    def test_k1_reduces_to_closed_form(self):
        m = single(2.0, 5.0, 1.0, 0.1, (0.0, 1.0))
        a, b = solve_zero_speed(m), solve_k1_closed_form(m)
        for pick in ("L", "L1", "L2", "g0_at_1", "tail_mass"):
            assert getattr(a, pick) == pytest.approx(getattr(b, pick), rel=1e-12)

    def test_k3_reference_point(self):
        # the frozen-state diagonal forces the background queue above K-1,
        # so the mean background count is (K-1) + (two-speed value 0.6)
        m = single(2.0, 5.0, 1.0, 0.1, (0.0, 0.0, 0.0, 1.0))
        sol = solve_zero_speed(m)
        assert sol.L1 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert sol.L2 == pytest.approx(ZERO_K3_EXAMPLE["L2"], rel=1e-12)
        assert sol.boundary[(0, 2)] == pytest.approx(0.4, rel=1e-12)
        assert sol.boundary[(0, 3)] == pytest.approx(ZERO_K3_EXAMPLE["pi_0_3"], rel=1e-7)
        assert sol.boundary[(1, 2)] == pytest.approx(ZERO_K3_EXAMPLE["pi_1_2"], rel=1e-7)

    @pytest.mark.parametrize("K,q", [(2, 0.0), (2, 0.1), (4, 0.2)])
    def test_matches_oracle(self, K, q):
        m = single(2.0, 5.0, 1.0, q, (0.0,) * K + (1.0,))
        sol = solve_zero_speed(m)
        ora = ctmc_solve(m)
        assert sol.L == pytest.approx(ora.L, rel=1e-8)
        assert sol.L2 == pytest.approx(ora.L2, rel=1e-8)
        for state, val in sol.boundary.items():
            assert val == pytest.approx(ora.boundary[state], abs=1e-9)

    def test_requires_all_zero(self):
        with pytest.raises(ModelError):
            solve_zero_speed(single(1.0, 5.0, 1.0, 0.1, (0.0, 0.5, 1.0)))


def work_done(model, sol):
    """Work done per unit time: speed s_min(n,K) whenever n >= 1 jobs are present."""
    s = model.speeds.levels
    return sum(p * s[n] for n, p in enumerate(sol.p) if n >= 1) + s[-1] * sol.tail_mass


class TestWorkConservation:
    """Every solver does the arriving work lam E[S]; only solve_general
    imposes it, so the closed forms must satisfy it on their own."""

    @pytest.mark.parametrize("K,q", [(1, 0.1), (2, 0.0), (3, 0.4), (5, 1.0)])
    def test_zero_speed(self, K, q):
        m = single(0.6, 5.0, 1.0, q, (0.0,) * K + (1.0,))
        assert work_done(m, solve_zero_speed(m)) == pytest.approx(m.lam * m.service.mean(), rel=1e-12)

    @pytest.mark.parametrize("s0,q", [(0.0, 0.1), (0.3, 0.5), (0.5, 1.0)])
    def test_k1_closed_form(self, s0, q):
        m = single(0.5, 4.0, 1.0, q, (s0, 1.0))
        assert work_done(m, solve_k1_closed_form(m)) == pytest.approx(m.lam * m.service.mean(), rel=1e-12)

    @pytest.mark.parametrize("K", range(2, 9))
    @pytest.mark.parametrize("idle_speed", [False, True])
    def test_general(self, K, idle_speed):
        rng = np.random.default_rng(100 * K + idle_speed)
        for _ in range(4):
            m = random_stable_model(rng, K)
            levels = (m.speeds.levels[1] / 2 if idle_speed else 0.0,) + m.speeds.levels[1:]
            m = SingleServerModel(m.lam, m.service, SpeedProfile(levels))
            assert work_done(m, solve_general(m)) == pytest.approx(m.lam * m.service.mean(), rel=1e-12)


class TestCost:
    def test_holding_only(self):
        m = single(2.0, 5.0, 1.0, 0.1, (0, 1))
        sol = solve_k1_closed_form(m)
        assert evaluate_cost_single(sol, CostCoefficients(2.0, 0.0)) == pytest.approx(2 * sol.L)

    def test_energy_normalises_for_flat_profile(self):
        m = single(2.0, 5.0, 1.0, 0.1, (0.7, 0.7), alpha=1.0)
        sol = solve_k1_closed_form(m)
        c = evaluate_cost_single(sol, CostCoefficients(0.0, 3.0))
        assert c == pytest.approx(3.0 * 0.7)

    def test_solution_energy_field_matches(self):
        m = single(2.5, 5.0, 1.0, 0.1, (0.0, 0.6, 1.0), alpha=2.0)
        sol = solve_general(m)
        s = m.speeds.levels
        energy = sum(p * s[n] ** 2.0 for n, p in enumerate(sol.p)) + s[-1] ** 2.0 * sol.tail_mass
        assert sol.energy_rate == pytest.approx(energy, rel=1e-12)
        assert evaluate_cost_single(sol, CostCoefficients(0.0, 1.0)) == sol.energy_rate
