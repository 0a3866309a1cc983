"""Acceptance gate: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are pinned here and
nowhere else.

Criterion 8's second clause (the 20% bound on the marginal gain of a second
intermediate speed level) is implemented exactly as stated and is expected
to fail: the reproduced cost curves match the published figure to plot
resolution, and on that data the bound itself is false.  See the decisions
ledger for the full analysis.
"""

import math
import time

import numpy as np
import pytest

from fbq import _kernels
from fbq.baselines import fcfs_L, las_L
from fbq.ctmc import ctmc_solve
from fbq.experiments import COST_ALPHA, optimize_intermediate_speeds, optimize_threshold, reproduce_figure
from fbq.models import (
    CostCoefficients,
    CoxianService,
    MultiServerModel,
    SingleServerModel,
    SpeedProfile,
)
from fbq.multi import (
    _det_at,
    d_roots,
    dprime_at_1,
    mmm_marginal,
    solve_threshold,
    verify_multi,
)
from fbq.simulation import SimConfig, simulate
from fbq.single import solve_general, solve_k1_closed_form, verify_single

SERVICE_FIG3 = CoxianService(5.0, 1.0, 0.1)
FB_FIRST_POINT = 1.415004659832246
FCFS_FIRST_POINT = 2.537027027027027


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def sample_single(rng, K, umax=0.6):
    nu1 = rng.uniform(1.0, 8.0)
    nu2 = rng.uniform(0.3, 3.0)
    q = rng.uniform(0.02, 0.6)
    levels = np.sort(rng.uniform(0.2, 1.0, K + 1))
    levels[-1] = 1.0
    if rng.random() < 0.3:
        levels[0] = 0.0
    lam = rng.uniform(0.15, umax) / (1.0 / nu1 + q / nu2)
    return SingleServerModel(lam, CoxianService(nu1, nu2, q),
                             SpeedProfile(tuple(levels), alpha=rng.uniform(0.5, 3.0)))


def sample_multi(rng, m, threshold=0, umax=0.6):
    mu1 = rng.uniform(0.5, 3.0)
    mu2 = rng.uniform(0.2, 2.0)
    q = rng.uniform(0.05, 0.6)
    lam = rng.uniform(0.15, umax) * m / (1.0 / mu1 + q / mu2)
    return MultiServerModel(lam, mu1, mu2, q, m, threshold=threshold)


def test_c01_closed_form_vs_general():
    rng = np.random.default_rng(2024_01)
    _kernels.compiled()  # a cold cache builds the compiled loops here, outside the timed solves
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        model = sample_single(rng, 1, umax=0.8)
        gen = solve_general(model)
        cf = solve_k1_closed_form(model)
        fields = [
            (gen.L, cf.L), (gen.L1, cf.L1), (gen.L2, cf.L2),
            (gen.g0_at_1, cf.g0_at_1), (gen.tail_mass, cf.tail_mass),
            (gen.energy_rate, cf.energy_rate), (gen.p[0], cf.p[0]),
        ]
        fields += [(v, cf.boundary[state]) for state, v in gen.boundary.items()]
        for a, b in fields:
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    took = time.time() - t0
    _report(1, worst < 1e-10 and took < 1.0,
            f"50 models, every field within {worst:.2e} relative, {took:.2f}s")


def test_c02_single_server_oracle_equivalence():
    rng = np.random.default_rng(2024_02)
    t0 = time.time()
    worst = 0.0
    for K in (1, 2, 3, 4):
        for _ in range(50):
            model = sample_single(rng, K)
            sol = solve_general(model)
            ora = ctmc_solve(model)
            for a, b in ((sol.L, ora.L), (sol.L1, ora.L1), (sol.L2, ora.L2)):
                worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
    took = time.time() - t0
    _report(2, worst < 1e-5 and took < 30.0,
            f"200 models over K=1..4, worst relative gap {worst:.2e}, {took:.1f}s")


def test_c03_multiserver_oracle_equivalence():
    rng = np.random.default_rng(2024_03)
    t0 = time.time()
    worst = 0.0
    runs = 0
    while runs < 30 or runs % 14 != 0:  # cover every (m, threshold) pair
        for m in (2, 3, 4, 5):
            for K in range(m):
                model = sample_multi(rng, m, threshold=K)
                sol = solve_threshold(model)
                ora = ctmc_solve(model)
                for a, b in ((sol.L, ora.L), (sol.L1, ora.L1),
                             (sol.L2, ora.L2), (sol.U, ora.U)):
                    worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
                runs += 1
        if runs >= 30:
            break
    took = time.time() - t0
    _report(3, worst < 1e-5 and took < 60.0,
            f"{runs} threshold models over m=2..5, worst relative gap {worst:.2e}, {took:.1f}s")


def test_c04_root_isolation():
    rng = np.random.default_rng(2024_04)
    t0 = time.time()
    checked = 0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        model = sample_multi(rng, m, umax=0.85)
        roots = d_roots(model)
        assert len(roots) == m - 1, f"{model} produced {len(roots)} roots"
        assert all(0.0 < z < 1.0 for z in roots)
        assert all(b - a > 1e-10 for a, b in zip(roots, roots[1:]))
        scale = max(abs(_det_at(model, z)) for z in np.linspace(0.005, 0.995, 199))
        assert max(abs(_det_at(model, z)) for z in roots) < 1e-9 * scale
        checked += 1
    _report(4, checked == 100, f"100 models m<=8, always m-1 isolated zeros, {time.time() - t0:.1f}s")


def test_c05_determinant_slope_closed_form():
    rng = np.random.default_rng(2024_05)
    worst = 0.0
    for _ in range(50):
        model = sample_multi(rng, int(rng.integers(1, 9)), umax=0.8)
        h = 1e-6
        fd = (_det_at(model, 1 + h) - _det_at(model, 1 - h)) / (2 * h)
        worst = max(worst, abs(dprime_at_1(model) - fd) / abs(fd))
    _report(5, worst < 1e-6, f"50 models, worst relative gap to finite differences {worst:.2e}")


def test_c06_policy_comparison_grid():
    lams = [2.1 + 0.1 * k for k in range(12)]
    ordering = True
    for lam in lams:
        f = fcfs_L(lam, SERVICE_FIG3)
        l = las_L(lam, SERVICE_FIG3)
        b = solve_k1_closed_form(
            SingleServerModel(lam, SERVICE_FIG3, SpeedProfile((1.0, 1.0)))).L
        ordering = ordering and f > l > b
    f0 = fcfs_L(2.1, SERVICE_FIG3)
    b0 = solve_k1_closed_form(
        SingleServerModel(2.1, SERVICE_FIG3, SpeedProfile((1.0, 1.0)))).L
    ok = ordering and abs(f0 - 2.537) <= 1e-3 and abs(b0 - 1.4151) <= 1e-4
    _report(6, ok, f"FCFS > LAS > FB pointwise; first points {f0:.6f} / {b0:.6f}")


def test_c07_intermediate_speed_optimum():
    base = SingleServerModel(2.5, SERVICE_FIG3, SpeedProfile((0.0, 0.5, 1.0), alpha=COST_ALPHA))
    profile, _, curve = optimize_intermediate_speeds(base, 2, CostCoefficients(1.0, 20.0))
    s1 = profile.levels[1]
    coarse = [(x, y) for x, y in zip(curve.xs, curve.ys)
              if abs(x * 10 - round(x * 10)) < 1e-9 and x >= 0.1 - 1e-12]
    diffs = [b[1] - a[1] for a, b in zip(coarse, coarse[1:])]
    unimodal = sum(1 for a, b in zip(diffs, diffs[1:]) if a * b < 0) <= 1
    _report(7, 0.55 <= s1 <= 0.65 and unimodal,
            f"optimal intermediate speed {s1:.3f}, unimodal on the 0.1-step grid: {unimodal}")


@pytest.fixture(scope="module")
def figure5():
    return reproduce_figure(5)


def test_c08a_speed_staircase_ordering(figure5):
    unopt, k2, k3 = figure5.curves
    ok = all(c3 <= c2 + 1e-9 <= c1 + 2e-9
             for c1, c2, c3 in zip(unopt.ys, k2.ys, k3.ys))
    _report(8, ok, "cost(K=3 optimized) <= cost(K=2 optimized) <= cost(K=1) pointwise")


def test_c08b_second_level_gain_below_20_percent(figure5):
    # Stated bound; fails on the reproduced (plot-exact) data. Ledgered.
    unopt, k2, k3 = figure5.curves
    ratios = [(c2 - c3) / (c1 - c2) if c1 - c2 > 0 else 0.0
              for c1, c2, c3 in zip(unopt.ys, k2.ys, k3.ys)]
    _report(8, max(ratios) < 0.20,
            f"K=3-over-K=2 gain vs K=2-over-K=1 gain: max ratio {max(ratios):.3f} "
            f"(bound 0.20; measured data matches the published curves)")


def test_c09_switch_off_threshold_optima():
    base = MultiServerModel(5.0, 1.0, 0.2, 0.1, 10)
    hard1, _ = optimize_threshold(base, CostCoefficients(1.0, 0.5))
    hard2, _ = optimize_threshold(base, CostCoefficients(1.0, 1.5))
    soft, _ = optimize_threshold(base, CostCoefficients(1.0, 1.0))
    if soft != 5:
        print(f"ACCEPTANCE 9 (soft): optimum at c2=1 is {soft}, expected 5")
    _report(9, hard1 == 3 and hard2 == 7,
            f"optima K*={hard1} (c2=0.5), K*={soft} (c2=1, soft), K*={hard2} (c2=1.5)")


def test_c10_simulator_calibration_and_three_phase():
    model = SingleServerModel(2.1, SERVICE_FIG3, SpeedProfile((1.0, 1.0)))
    est = simulate(SimConfig(model=model, jobs=1_000_000, warmup_jobs=50_000, seed=42))
    calibrated = abs(est.L - FB_FIRST_POINT) < 3 * est.ci_halfwidth

    fig6 = reproduce_figure(6)
    approx, sim = fig6.curves
    dev = max(abs(a - s) / s for x, a, s in zip(approx.xs, approx.ys, sim.ys)
              if x <= 2.1 + 1e-9)

    fig7 = reproduce_figure(7)
    approx7, sim7 = fig7.curves
    under = all(a < s for x, a, s in zip(approx7.xs, approx7.ys, sim7.ys)
                if x >= 1.4 - 1e-9)
    _report(10, calibrated and dev < 0.05 and under,
            f"|L_sim - L| = {abs(est.L - FB_FIRST_POINT):.4f} vs 3ci = {3 * est.ci_halfwidth:.4f}; "
            f"3-phase max deviation {dev * 100:.2f}% (< 5%); heavy-load underestimate: {under}")


def test_c11_identity_suite():
    rng = np.random.default_rng(2024_11)
    worst = {"normalization": 0.0, "flow_balance": 0.0, "idle_server": 0.0,
             "fg_marginal": 0.0, "geometric_tail": 0.0}
    for _ in range(20):
        model = sample_single(rng, int(rng.integers(1, 5)))
        sol = solve_general(model)
        res = verify_single(model, sol)
        worst["normalization"] = max(worst["normalization"], res["normalization"])
        worst["flow_balance"] = max(worst["flow_balance"], res["flow_balance"])
    for _ in range(20):
        m = int(rng.integers(2, 6))
        model = sample_multi(rng, m, threshold=int(rng.integers(0, m)))
        sol = solve_threshold(model)
        res = verify_multi(model, sol)
        worst["normalization"] = max(worst["normalization"], res["normalization"])
        worst["idle_server"] = max(worst["idle_server"], res["idle_server_identity"])
        worst["geometric_tail"] = max(worst["geometric_tail"], res["geometric_tail"])
        if model.threshold == 0:
            worst["fg_marginal"] = max(worst["fg_marginal"], res["fg_marginal"])
    ok = (worst["normalization"] < 1e-10 and worst["flow_balance"] < 1e-9
          and worst["idle_server"] < 1e-9 and worst["fg_marginal"] < 1e-8
          and worst["geometric_tail"] < 1e-8)
    _report(11, ok, "worst residuals " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))
