import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fbq import baselines
from fbq.baselines import _las_terms, fcfs_L, las_L, priority_two_class_L
from fbq.models import (CoxianService, SingleServerModel, SolverError, SpeedProfile,
                        UnstableModelError)
from fbq.single import solve_k1_closed_form

SERVICE = CoxianService(5.0, 1.0, 0.1)
FIG3_LAMBDAS = [2.1 + 0.1 * k for k in range(12)]


def schrage_reference(lam, service, dps=30):
    """Schrage's LAS mean count, lam times the integral of f(x) T(x) over
    [0, inf), by mpmath's tanh-sinh quadrature at `dps` digits."""
    with mp.workdps(dps):
        lam, nu1, nu2, q = (mp.mpf(v) for v in (lam, service.nu1, service.nu2, service.q))

        def integrand(x):
            if service._equal_rates():   # the mixture's confluent limit nu2 -> nu1
                e = mp.exp(-nu1 * x)
                ramp = (1 - e * (1 + nu1 * x)) / nu1**2                        # int_0^x t e^{-nu1 t}
                square = (2 - e * (nu1**2 * x**2 + 2 * nu1 * x + 2)) / nu1**3  # int_0^x t^2 e^{-nu1 t}
                dens = nu1 * e * (1 - q + q * nu1 * x)
                load = lam * ((1 - e) / nu1 + q * nu1 * ramp)
                m2 = 2 * (ramp + q * nu1 * square)
            else:
                c = nu1 * q / (nu1 - nu2)
                e1, e2 = mp.exp(-nu1 * x), mp.exp(-nu2 * x)
                dens = (1 - c) * nu1 * e1 + c * nu2 * e2
                load = lam * ((1 - c) * (1 - e1) / nu1 + c * (1 - e2) / nu2)
                m2 = 2 * ((1 - c) * (1 - e1 * (1 + nu1 * x)) / nu1**2 + c * (1 - e2 * (1 + nu2 * x)) / nu2**2)
            return dens * (x / (1 - load) + lam * m2 / (2 * (1 - load) ** 2))

        return float(lam * mp.quad(integrand, [0, 1 / max(nu1, nu2), 1 / min(nu1, nu2), mp.inf]))


def fb_L(lam, service):
    return solve_k1_closed_form(SingleServerModel(lam, service, SpeedProfile((1.0, 1.0)))).L


class TestFcfs:
    def test_reference_point(self):
        # exact arithmetic: rho = 0.63, M2 = 0.32
        assert fcfs_L(2.1, SERVICE) == pytest.approx(2.537027027027027, rel=1e-13)

    def test_mm1_when_q_zero(self):
        svc = CoxianService(2.0, 1.0, 0.0)
        for lam in (0.2, 1.0, 1.8):
            rho = lam / 2.0
            assert fcfs_L(lam, svc) == pytest.approx(rho / (1 - rho), rel=1e-13)

    def test_light_traffic(self):
        assert fcfs_L(1e-9, SERVICE) == pytest.approx(0.0, abs=1e-8)

    def test_overload_rejected(self):
        with pytest.raises(UnstableModelError):
            fcfs_L(3.4, SERVICE)


class TestLas:
    def test_equals_fcfs_for_exponential_service(self):
        svc = CoxianService(5.0, 5.0, 0.0)
        for lam in (1.0, 3.0, 4.5):
            assert las_L(lam, svc) == pytest.approx(fcfs_L(lam, svc), abs=1e-8)

    def test_reference_point(self):
        # the comparison figure reads ~1.48 at its first grid point
        assert las_L(2.1, SERVICE) == pytest.approx(1.48732, abs=5e-2)
        assert las_L(2.1, SERVICE) == pytest.approx(1.4873204108, rel=1e-8)

    def test_density_normalises_on_the_same_support(self):
        total, _ = quad(lambda t: _las_terms(2.1, SERVICE, t)[0], 0.0, 14 * np.log(10) / 1.0 + 10, epsabs=1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_overload_rejected(self):
        with pytest.raises(UnstableModelError):
            las_L(3.4, SERVICE)

    @pytest.mark.parametrize("lam", FIG3_LAMBDAS)
    def test_figure3_loads_match_30_digit_reference(self, lam):
        assert las_L(lam, SERVICE) == pytest.approx(schrage_reference(lam, SERVICE), rel=1e-13, abs=0)

    @pytest.mark.parametrize("lam, svc", [
        (0.8, CoxianService(2.0, 2.0, 0.5)),                    # equal rates: the confluent branch
        (0.5 / (1e-4 + 0.05), CoxianService(1e4, 1.0, 0.05)),   # a fast phase 1e4 times the slow one
    ], ids=["equal-rates", "rate-ratio-1e4"])
    def test_edge_services_match_30_digit_reference(self, lam, svc):
        assert las_L(lam, svc) == pytest.approx(schrage_reference(lam, svc), rel=1e-13, abs=0)

    def test_speed_search_draws_match_30_digit_reference(self):
        # the services and loads of the speed_search benchmark's figure-3 tasks
        rng = np.random.default_rng(21)
        for _ in range(4):
            svc = CoxianService(rng.uniform(2.0, 8.0), rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.5))
            lam = rng.uniform(0.63, 0.96) / svc.mean()
            assert las_L(lam, svc) == pytest.approx(schrage_reference(lam, svc), rel=1e-13, abs=0)

    def test_q_zero_is_mm1(self):
        svc = CoxianService(2.0, 1.0, 0.0)
        for lam in (0.2, 1.0, 1.8):
            assert las_L(lam, svc) == pytest.approx(fcfs_L(lam, svc), rel=1e-13, abs=0)

    def test_disagreeing_rules_raise(self, monkeypatch):
        monkeypatch.setattr(baselines, "_LAS_CHECK_NODES", 2)
        with pytest.raises(RuntimeError, match="rules differ"):
            las_L(2.1, SERVICE)

    def test_disagreeing_rules_raise_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(baselines, "LAS_ABS_TOL", 0.0)
        with pytest.raises(SolverError, match=r"^the 48- and 32-node rules differ by .*, "
                                              r"above 0e\+00$"):
            las_L(2.1, SERVICE)

    @pytest.mark.parametrize("ratio", [3e4, 1e5, 1e6])
    @pytest.mark.parametrize("fast", ["nu1", "nu2"])
    def test_wide_rate_ratios_match_30_digit_reference(self, ratio, fast):
        svc = CoxianService(ratio, 1.0, 0.05) if fast == "nu1" else CoxianService(1.0, ratio, 0.5)
        lam = 0.5 / svc.mean()
        assert las_L(lam, svc) == pytest.approx(schrage_reference(lam, svc), rel=0,
                                                abs=baselines.LAS_ABS_TOL)

    def test_panels_grow_only_above_a_rate_ratio_of_1e3(self):
        panels = [baselines._las_panels(svc) for svc in (
            SERVICE, CoxianService(1e3, 1.0, 0.05), CoxianService(1.0, 1e3, 0.5),
            CoxianService(1e6, 1.0, 0.0), CoxianService(1.001e3, 1.0, 0.05),
            CoxianService(1e6, 1.0, 0.05))]
        assert panels == [12, 12, 12, 12, 13, 22]


def test_import_does_not_load_scipy_integrate(fresh_import):
    assert "scipy.integrate" not in fresh_import["loaded"]


def test_import_does_not_load_scipy_optimize(fresh_import):
    # no code in fbq calls brentq; only the tests' reference zero search does
    assert "scipy.optimize" not in fresh_import["loaded"]


class TestTruncatedLoad:
    """The closed forms of baselines._las_terms, which las_L integrates."""

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_forms_match_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        svc = CoxianService(rng.uniform(0.5, 6.0), rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.0))
        lam = 0.8 / svc.mean() * rng.uniform(0.2, 1.0)
        for x in rng.uniform(0.01, 6.0, 5):
            _, load, m2 = _las_terms(lam, svc, x)
            load_num = lam * quad(svc.survival, 0.0, x, epsabs=1e-13, limit=200)[0]
            m2_num = 2 * quad(lambda t: t * svc.survival(t), 0.0, x, epsabs=1e-13, limit=200)[0]
            assert load == pytest.approx(load_num, abs=1e-9)
            assert m2 == pytest.approx(m2_num, abs=1e-9)

    def test_limits(self):
        assert _las_terms(2.1, SERVICE, 0.0)[1] == 0.0
        _, load, m2 = _las_terms(2.1, SERVICE, 200.0)
        assert load == pytest.approx(2.1 * SERVICE.mean(), rel=1e-12)
        assert m2 == pytest.approx(SERVICE.second_moment(), rel=1e-12)

    def test_monotone(self):
        loads = _las_terms(2.1, SERVICE, np.linspace(0, 10, 40))[1]
        assert (np.diff(loads) >= 0).all()

    def test_equal_rate_branch(self):
        svc = CoxianService(2.0, 2.0, 0.5)
        _, load, m2 = _las_terms(0.8, svc, 2.0)
        load_num = 0.8 * quad(svc.survival, 0.0, 2.0, epsabs=1e-13)[0]
        m2_num = 2 * quad(lambda t: t * svc.survival(t), 0.0, 2.0, epsabs=1e-13)[0]
        assert load == pytest.approx(load_num, abs=1e-10)
        assert m2 == pytest.approx(m2_num, abs=1e-10)


class TestPriorityLimit:
    def test_mm1_when_q_zero(self):
        svc = CoxianService(2.0, 1.0, 0.0)
        assert priority_two_class_L(1.0, svc) == pytest.approx(1.0, rel=1e-12)

    def test_close_to_two_queue_chain_when_coupling_weak(self):
        svc = CoxianService(5.0, 0.5, 0.05)
        pr = priority_two_class_L(2.1, svc)
        fb = fb_L(2.1, svc)
        assert abs(pr - fb) / fb < 0.05

    def test_light_traffic(self):
        assert priority_two_class_L(1e-9, SERVICE) == pytest.approx(0.0, abs=1e-8)


class TestOrdering:
    GRID = [2.1 + 0.1 * k for k in range(12)]

    def test_base_grid(self):
        for lam in self.GRID:
            f, l, b = fcfs_L(lam, SERVICE), las_L(lam, SERVICE), fb_L(lam, SERVICE)
            assert f > l > b

    def test_weak_and_strong_coupling_grids(self):
        weak = CoxianService(5.0, 0.5, 0.05)
        strong = CoxianService(5.0, 2.0, 0.2)
        for lam in self.GRID:
            gap_base = las_L(lam, SERVICE) - fb_L(lam, SERVICE)
            f, l, b = fcfs_L(lam, weak), las_L(lam, weak), fb_L(lam, weak)
            assert f > l > b
            assert l - b < gap_base  # weaker coupling narrows the gap
            f, l, b = fcfs_L(lam, strong), las_L(lam, strong), fb_L(lam, strong)
            assert f > l > b
            assert l - b > gap_base  # stronger coupling widens it
