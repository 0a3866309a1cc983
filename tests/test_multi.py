import math

import mpmath
import numpy as np
import pytest

from fbq import multi
from fbq.ctmc import ctmc_solve
from fbq.models import (CostCoefficients, ModelError, MultiServerModel, SolverError,
                        UnstableModelError)
from fbq.multi import (
    _det_at,
    d_roots,
    dprime_at_1,
    evaluate_cost_multi,
    mmm_marginal,
    solve_threshold,
    verify_multi,
)
from fbq.series import kernel_root_pair_at_1
from reference import dense_matrix, isolate_roots, sign_changes, sturm_sequence

# frozen truncated-chain oracle values (edge mass < 1e-10)
M3_EXAMPLE = dict(L=4.7286157247, L1=1.7368421053, L2=2.9917736195)
M4_K2_EXAMPLE = dict(L=3.1428571429, L1=1.4246197660, L2=1.7182373770, U=2.2857142857)


def random_stable_multi(rng, m, threshold=0, umax=0.6):
    mu1 = rng.uniform(0.5, 3.0)
    mu2 = rng.uniform(0.2, 2.0)
    q = rng.uniform(0.05, 0.6)
    lam = rng.uniform(0.15, umax) * m / (1.0 / mu1 + q / mu2)
    return MultiServerModel(lam, mu1, mu2, q, m, threshold=threshold)


class TestRoots:
    def test_single_server_has_none(self):
        assert d_roots(MultiServerModel(0.5, 1.0, 1.0, 0.5, 1)) == ()

    def test_two_servers_match_brute_force(self):
        model = MultiServerModel(1.0, 1.0, 1.0, 0.5, 2)
        roots = d_roots(model)
        assert len(roots) == 1
        zs = np.linspace(1e-4, 1 - 1e-4, 10001)
        signs = np.sign([_det_at(model, z) for z in zs])
        assert int((np.diff(signs) != 0).sum()) == 1
        k = int(np.argmax(np.diff(signs) != 0))
        assert zs[k] <= roots[0] <= zs[k + 1]

    def test_ten_servers_nine_roots(self):
        model = MultiServerModel(5.0, 1.0, 0.2, 0.1, 10)
        roots = d_roots(model)
        assert len(roots) == 9
        scale = max(abs(_det_at(model, z)) for z in np.linspace(0.01, 0.99, 99))
        for z in roots:
            assert 0 < z < 1
            assert abs(_det_at(model, z)) < 1e-10 * scale

    @pytest.mark.parametrize("seed", range(15))
    def test_lemma_on_random_models(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        model = random_stable_multi(rng, m, umax=0.85)
        roots = d_roots(model)
        assert len(roots) == m - 1
        assert all(0 < z < 1 for z in roots)
        assert all(b - a > 1e-10 for a, b in zip(roots, roots[1:]))

    def test_unstable_rejected(self):
        with pytest.raises(UnstableModelError):
            d_roots(MultiServerModel(5.0, 1.0, 1.0, 1.0, 2))

    def test_counts_and_signs_are_checked(self, monkeypatch):
        model = MultiServerModel(1.5, 1.0, 0.5, 0.3, 3)
        with monkeypatch.context() as patch:
            patch.setattr(multi, "dprime_at_1", lambda model: -1.0)
            with pytest.raises(SolverError, match=r"^Sturm counts read 3 at z = 0 and 0 below "
                                                  r"z = 1, not 3 and 1; D'\(1\) = -1$"):
                isolate_roots(model)
        monkeypatch.setattr(multi, "_det_at", lambda model, z: 1.0)
        with pytest.raises(SolverError, match=r"^determinant has no sign change on \[0, .*\], "
                                              r"where the Sturm counts read 3 and 2; D'\(1\) = "):
            isolate_roots(model)


class TestTransformMatrix:
    MODEL = MultiServerModel(1.5, 1.0, 0.5, 0.3, 3)

    def test_entries(self):
        a = dense_matrix(self.MODEL, 0.5)
        lam, mu1, mu2, m = 1.5, 1.0, 0.5, 3
        z = 0.5
        assert a.shape == (3, 3)
        assert a[0, 0] == pytest.approx(lam * z + m * mu2 * (z - 1))
        assert a[1, 1] == pytest.approx(lam * z + mu1 * z + 2 * mu2 * (z - 1))
        assert a[1, 0] == a[2, 1] == pytest.approx(-lam * z)
        assert a[0, 1] == pytest.approx(-mu1 * z * (1 - 0.3 + 0.3 * z))
        assert a[1, 2] == pytest.approx(-2 * mu1 * z * (1 - 0.3 + 0.3 * z))

    def test_singular_at_one(self):
        scale = max(abs(_det_at(self.MODEL, z)) for z in np.linspace(0.05, 0.95, 19))
        assert abs(_det_at(self.MODEL, 1.0)) < 1e-12 * scale

    def test_determinant_matches_dense(self):
        for z in (0.2, 0.7, 0.95):
            assert _det_at(self.MODEL, z) == pytest.approx(
                np.linalg.det(dense_matrix(self.MODEL, z)), rel=1e-10)

    def test_minors_match_dense_leading_blocks(self):
        z = 0.6
        a = dense_matrix(self.MODEL, z)
        seq = sturm_sequence(self.MODEL, z)
        assert len(seq) == 4 and seq[0] == 1.0
        for i in (1, 2):
            assert seq[i] == pytest.approx(np.linalg.det(a[:i, :i]), rel=1e-12)
        assert seq[3] == pytest.approx(_det_at(self.MODEL, z), rel=1e-12)


class TestMinorSigns:
    @pytest.mark.parametrize("seed", range(5))
    def test_sign_pattern_at_grid_points(self, seed):
        rng = np.random.default_rng(40 + seed)
        m = int(rng.integers(3, 8))
        model = random_stable_multi(rng, m, umax=0.8)

        def q_values(z):
            # the leading minors Q_0 .. Q_(m-1) of the Sturm sequence; at
            # z <= 1 the kernel root of its last entry D is real
            return sturm_sequence(model, z)[:m]

        # alternating at the origin, positive at one; far out on the side
        # where the diagonal entries all go negative, alternating again
        # (at +1e3 the off-diagonal cubic dominates instead and the printed
        # alternation pattern demonstrably fails)
        for i, qi in enumerate(q_values(0.0)):
            assert math.copysign(1, qi) == (-1) ** i
        assert all(qi > 0 for qi in q_values(1.0))
        far = q_values(-1e3)
        for i in range(1, m):
            assert math.copysign(1, far[i]) == (-1) ** i

    @pytest.mark.parametrize("seed", range(5))
    def test_sign_count_falls_by_one_at_each_zero(self, seed):
        # m sign changes at the origin, one just below z = 1, and one fewer
        # past each zero of D
        rng = np.random.default_rng(60 + seed)
        m = int(rng.integers(2, 12))
        model = random_stable_multi(rng, m, umax=0.9)
        roots = d_roots(model)
        for z in np.linspace(0.0, 1.0, 201)[:-1]:
            below = sum(zk < z for zk in roots)
            assert sign_changes(sturm_sequence(model, z)) == m - below, z
        assert sign_changes(sturm_sequence(model, 1.0 - 1e-9)) == 1


class TestDerivativeAtOne:
    def test_single_server_reduction(self):
        model = MultiServerModel(0.6, 2.0, 1.0, 0.5, 1)
        rho1, rho2 = model.rho1, model.rho2
        want = model.mu2 * (1 - rho1 - rho2) / (1 - rho1)
        assert dprime_at_1(model) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_difference(self, seed):
        rng = np.random.default_rng(200 + seed)
        model = random_stable_multi(rng, int(rng.integers(1, 9)), umax=0.8)
        h = 1e-6
        fd = (_det_at(model, 1 + h) - _det_at(model, 1 - h)) / (2 * h)
        assert dprime_at_1(model) == pytest.approx(fd, rel=1e-6)
        assert dprime_at_1(model) > 0  # stable models only

    # stable pools whose Erlang sums overflow a float: rho1**j overflows in
    # the first and the m = 170..172 pools, j! does not convert in the second;
    # mmm_marginal takes its recurrence there instead (TestErlangMarginal)
    @pytest.mark.parametrize("model", [
        MultiServerModel(7.197034580073093, 0.035985213688173506, 0.00026963221185348913, 1e-09, 200),
        MultiServerModel(11.45790235908757, 0.24143902141107626, 186.63123484344524, 1e-09, 200),
        *(MultiServerModel(0.5 * m, 1.0, 0.5, 0.2, m) for m in (170, 171, 172)),
    ], ids=["rho1-power", "factorial", "m170", "m171", "m172"])
    def test_overflowing_erlang_sums_raise_a_solver_error(self, model):
        for solve in (dprime_at_1, d_roots, solve_threshold):
            with pytest.raises(SolverError, match=f"Erlang sums of the m = {model.m} pool overflow"):
                solve(model)
        p, L1 = mmm_marginal(model.m, model.rho1)
        assert math.isfinite(L1) and all(math.isfinite(x) and x >= 0 for x in p)


class TestErlangMarginal:
    """mmm_marginal against the Erlang-C marginals in 50-digit arithmetic,
    where its closed form's powers and factorials overflow a float."""

    @pytest.mark.parametrize("m", [171, 400])
    def test_overflowing_closed_form_takes_the_recurrence(self, m):
        rho1 = 0.5 * m
        p, L1 = mmm_marginal(m, rho1)
        with mpmath.workdps(50):
            r = mpmath.mpf(rho1)
            terms = [r**k / mpmath.factorial(k) for k in range(m + 1)]
            total = mpmath.fsum(terms[:m]) + m * terms[m] / (m - r)
            ref = [t / total for t in terms]
            ref_L1 = r + ref[m] * (r / m) / (1 - r / m) ** 2
        assert len(p) == m + 1
        for got, want in zip(p, ref):
            assert abs(got - want) <= 1e-12 * want
        assert abs(L1 - ref_L1) <= 1e-12 * ref_L1

    def test_pools_whose_recurrence_overflows_raise_a_solver_error(self):
        with pytest.raises(SolverError, match="Erlang sums of the m = 800 pool overflow"):
            mmm_marginal(800, 750.0)

    @pytest.mark.parametrize("m, rho1", [(3, 1.5), (10, 5.0), (150, 75.0)])
    def test_values_in_range_keep_the_closed_form(self, m, rho1):
        p0 = 1.0 / (sum(rho1**k / math.factorial(k) for k in range(m))
                    + m * rho1**m / ((m - rho1) * math.factorial(m)))
        p, _ = mmm_marginal(m, rho1)
        assert [x.hex() for x in p] == [(p0 * rho1**i / math.factorial(i)).hex() for i in range(m + 1)]


class TestKernelRootPair:
    @pytest.mark.parametrize("seed", range(5))
    def test_large_root_identities(self, seed):
        rng = np.random.default_rng(300 + seed)
        model = random_stable_multi(rng, int(rng.integers(1, 7)))
        rho = model.lam / (model.m * model.mu1)
        y1, y2 = kernel_root_pair_at_1(rho, model.q, 3)
        assert y2.c[0] == pytest.approx(model.m * model.mu1 / model.lam, rel=1e-13)

        def exact_y2(z):
            disc = (1 - rho) ** 2 - 4 * rho * model.q * (z - 1)
            return (1 + rho + math.sqrt(disc)) / (2 * rho)

        # the exact root annihilates the kernel at sampled points
        for z in (0.92, 1.0, 1.03):
            y = exact_y2(z)
            resid = rho * y * y - (1 + rho) * y + (1 - model.q + model.q * z)
            assert abs(resid) < 1e-12 * max(1.0, 1 / rho)
        h = 1e-6
        fd = (exact_y2(1 + h) - exact_y2(1 - h)) / (2 * h)
        assert y2.c[1] * math.factorial(1) == pytest.approx(fd, rel=1e-6)


class TestUncontrolledPool:
    def test_mm2_empty_probability(self):
        # with rho1 = 1 the two-server foreground idles a third of the time
        model = MultiServerModel(1.0, 1.0, 0.5, 0.3, 2)
        sol = solve_threshold(model)
        assert sol.g_at_1[0] == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_q_zero_is_erlang(self):
        model = MultiServerModel(1.5, 1.0, 0.7, 0.0, 3)
        sol = solve_threshold(model)
        p, L1 = mmm_marginal(3, 1.5)
        assert sol.L2 == pytest.approx(0.0, abs=1e-12)
        assert sol.L1 == pytest.approx(L1, rel=1e-12)
        for i in range(3):
            assert sol.g_at_1[i] == pytest.approx(p[i], rel=1e-10)

    def test_reference_point(self):
        model = MultiServerModel(1.5, 1.0, 0.5, 0.3, 3)
        sol = solve_threshold(model)
        assert sol.L == pytest.approx(M3_EXAMPLE["L"], rel=1e-5)
        assert sol.L1 == pytest.approx(M3_EXAMPLE["L1"], rel=1e-5)
        assert sol.L2 == pytest.approx(M3_EXAMPLE["L2"], rel=1e-5)

    def test_single_server_pool_matches_two_queue_chain(self):
        pool = solve_threshold(MultiServerModel(2.0, 5.0, 1.0, 0.1, 1))
        assert pool.L1 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert pool.L2 == pytest.approx(0.6, rel=1e-10)


class TestThresholdPolicy:
    def test_reference_point(self):
        model = MultiServerModel(1.0, 1.0, 0.5, 0.5, 4, threshold=2)
        sol = solve_threshold(model)
        assert sol.L == pytest.approx(M4_K2_EXAMPLE["L"], rel=1e-5)
        assert sol.U == pytest.approx(M4_K2_EXAMPLE["U"], rel=1e-5)
        assert sol.L1 == pytest.approx(M4_K2_EXAMPLE["L1"], rel=1e-5)
        assert sol.L2 == pytest.approx(M4_K2_EXAMPLE["L2"], rel=1e-5)

    @pytest.mark.parametrize("m,K", [(2, 1), (3, 2), (5, 3)])
    def test_matches_oracle(self, m, K):
        rng = np.random.default_rng(m * 10 + K)
        model = random_stable_multi(rng, m, threshold=K)
        sol = solve_threshold(model)
        ora = ctmc_solve(model)
        assert sol.L == pytest.approx(ora.L, rel=1e-5)
        assert sol.U == pytest.approx(ora.U, rel=1e-5)
        for state, val in sol.boundary.items():
            assert val == pytest.approx(ora.boundary[state], abs=1e-8)

    def test_transient_states_carry_no_mass(self):
        model = MultiServerModel(1.0, 1.0, 0.5, 0.5, 4, threshold=2)
        sol = solve_threshold(model)
        assert all(i + j >= 2 for (i, j) in sol.boundary)
        assert sol.p[0] == 0.0 and sol.p[1] == 0.0

    def test_identities_on_random_models(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            model = random_stable_multi(rng, m, threshold=int(rng.integers(0, m)))
            res = verify_multi(model, solve_threshold(model))
            assert res["idle_server_identity"] < 1e-9
            assert res["normalization"] < 1e-10
            assert res["geometric_tail"] < 1e-8
            if model.threshold == 0:
                assert res["fg_marginal"] < 1e-8


class TestCost:
    def test_holding_only(self):
        model = MultiServerModel(1.5, 1.0, 0.5, 0.3, 3)
        sol = solve_threshold(model)
        assert evaluate_cost_multi(sol, CostCoefficients(2.0, 0.0)) == pytest.approx(2 * sol.L)

    def test_light_traffic_energy_vanishes(self):
        model = MultiServerModel(1e-9, 1.0, 0.5, 0.3, 3)
        sol = solve_threshold(model)
        c = evaluate_cost_multi(sol, CostCoefficients(0.0, 1.0))
        assert c == pytest.approx(0.0, abs=1e-6)  # empty pool is switched off

    def test_threshold_out_of_range(self):
        with pytest.raises(ModelError):
            MultiServerModel(1.0, 1.0, 1.0, 0.5, 3, threshold=3)
