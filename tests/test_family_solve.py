"""Family solves of speed profiles (fbq.single.solve_speed_family) and the
stacked solves under them (fbq.linsys).

data/family_solve_pins.json holds searches and figure-5 points recorded from
the search that solved its grid one profile at a time with solve_general.
The family solve must return the same speed levels, and costs and curves
within 1e-12 relative.  The compiled family loop (fill, lockstep LU and
finish) does the same float operations as its Python reference
(reference.family_solve: the numpy assembly, reference.lockstep,
reference.finish_sums and reference.metrics), so every result, error
message included, must be
equal on the two paths, not close; and a profile's lockstep solve must not
depend on its position in the family or on the other systems there.  The
pool tests run on both paths compare the compiled zero search and boundary
fill of fbq.multi with their Python references, which must be equal too.
"""

import ctypes
import itertools
import json
import os
import pathlib
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import fbq
from fbq.experiments import (
    COARSE_STEP,
    FINE_STEP,
    _coarse_grid,
    _figure5_point,
    _fine_grid,
    optimize_intermediate_speeds,
    optimize_threshold,
    reproduce_figure,
)
from fbq.linsys import solve_probability_system
from fbq.models import (
    CostCoefficients,
    CoxianService,
    ModelError,
    SingleServerModel,
    SolverError,
    SpeedProfile,
)
from fbq.multi import sweep_thresholds
from fbq import single
from fbq.single import solve_general, solve_speed_family
from reference import condition, family_stack, finish_sums, lockstep, metrics, solve_probability_stack

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "family_solve_pins.json").read_text())
SWEEP_PINS = json.loads((pathlib.Path(__file__).parent / "data" / "threshold_sweep_pins.json").read_text())
FIELDS = ("L", "L1", "L2", "energy_rate")
KERNELS = sys.modules["fbq._kernels"]
LINSYS = sys.modules["fbq.linsys"]
EXPERIMENTS = sys.modules["fbq.experiments"]
SRC = str(pathlib.Path(fbq.__file__).resolve().parent.parent)


def raised(run):
    with pytest.raises(SolverError) as exc:
        run()
    return str(exc.value)


def base_model(b, levels=None):
    return SingleServerModel(b["lam"], CoxianService(b["nu1"], b["nu2"], b["q"]),
                             SpeedProfile(levels or (b["s0"], b["top"]), alpha=b["alpha"]))


@pytest.mark.parametrize("pin", PINS["searches"], ids=lambda p: f"{p['base']}-K{p['K']}")
def test_search_matches_pinned_values(pin):
    b = PINS["bases"][pin["base"]]
    profile, cost, curve = optimize_intermediate_speeds(base_model(b), pin["K"],
                                                        CostCoefficients(b["c1"], b["c2"]))
    assert list(profile.levels) == pin["levels"]
    assert profile.alpha == b["alpha"]
    assert cost == pytest.approx(pin["cost"], rel=1e-12, abs=0)
    assert curve.label == pin["label"]
    assert curve.xs == pin["xs"]
    np.testing.assert_allclose(curve.ys, pin["ys"], rtol=1e-12, atol=0)


@pytest.mark.parametrize("pin", PINS["figure5"], ids=lambda p: f"lambda={p['lam']}")
def test_figure5_point_matches_pinned_values(pin):
    np.testing.assert_allclose(_figure5_point(pin["lam"]), pin["costs"], rtol=1e-12, atol=0)


@pytest.mark.parametrize("pin", PINS["searches"], ids=lambda p: f"{p['base']}-K{p['K']}")
def test_search_is_equal_on_both_lu_paths(pin, on_both_paths):
    b = PINS["bases"][pin["base"]]
    compiled, python = on_both_paths(lambda: optimize_intermediate_speeds(
        base_model(b), pin["K"], CostCoefficients(b["c1"], b["c2"])))
    assert compiled == python


@pytest.mark.parametrize("pin", PINS["figure5"], ids=lambda p: f"lambda={p['lam']}")
def test_figure5_point_is_equal_on_both_lu_paths(pin, on_both_paths):
    compiled, python = on_both_paths(lambda: _figure5_point(pin["lam"]))
    assert compiled == python


FAMILY_FIELDS = ("levels", "boundary", "g0_at_1", "L1", "L2", "L", "p", "tail_mass", "energy_rate")
# seed7 has s_0 > 0; at q = 0 every pi_ij with j > 0 is 0 and its roundoff
# negatives are clamped, alpha = 0 takes the stopped-processor power, and
# from K = 4 on a row sum has 8 or more terms
STRADDLING = {"seed7": {}, "q=0": {"q": 0.0}, "alpha=0": {"alpha": 0.0}, "s0=0": {"s0": 0.0}}


def test_family_straddling_a_chunk_is_equal_on_both_lu_paths(on_both_paths):
    rng = np.random.default_rng(18)
    for name, change in STRADDLING.items():
        b = dict(PINS["bases"]["seed7"], **change)
        for K in (2, 3, 4, 8):
            inter = np.sort(rng.uniform(b["s0"], b["top"], (256 + 12, K - 1)), axis=1)
            compiled, python = on_both_paths(lambda: solve_speed_family(base_model(b), inter))
            for f in FAMILY_FIELDS:   # bytes, so that a zero keeps its sign
                assert getattr(compiled, f).tobytes() == getattr(python, f).tobytes(), (name, K, f)


# q = 0 with a slow phase 2: s_1 = 1e-20 gives a singular system, s_1 = 1e-8
# a solved probability below -NEG_PROB_TOL, and (0.3, 0.6) a good one
FAILING_BASE = dict(lam=1.2, nu1=170.0, nu2=0.6, q=0.0, s0=0.0, top=1.0, alpha=2.0)
SINGULAR, NEGATIVE, GOOD = (1e-20, 0.5), (1e-8, 0.04), (0.3, 0.6)


@pytest.mark.parametrize("second_chunk, fails_as", [
    ([GOOD, NEGATIVE, GOOD, SINGULAR, GOOD], SINGULAR),   # singular wins over an earlier negative
    ([GOOD, GOOD, NEGATIVE], NEGATIVE),
], ids=["singular-and-negative", "negative"])
def test_failing_profiles_in_a_later_chunk_raise_the_same_error_on_both_lu_paths(second_chunk, fails_as,
                                                                                 on_both_paths):
    model = base_model(FAILING_BASE)
    inter = [GOOD] * 256 + second_chunk
    compiled, python = on_both_paths(lambda: raised(lambda: solve_speed_family(model, inter)))
    assert compiled == python == raised(lambda: solve_speed_family(model, [fails_as]))
    assert compiled.startswith("singular" if fails_as is SINGULAR else "solved probability"), compiled


def test_a_singular_profile_wins_over_an_earlier_negative_one_however_far_apart(on_both_paths):
    # one rule whatever the family's size: the first singular system raises
    # before the first negative value, 301 profiles earlier here
    model = base_model(FAILING_BASE)
    inter = [NEGATIVE] + [GOOD] * 300 + [SINGULAR]
    compiled, python = on_both_paths(lambda: raised(lambda: solve_speed_family(model, inter)))
    assert compiled == python == raised(lambda: solve_speed_family(model, [SINGULAR]))
    assert compiled.startswith("singular linear system"), compiled


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("s0", [0.0, 0.137, 0.6], ids=["s0=0", "s0=0.137", "s0=0.6"])
def test_index_built_grids_equal_the_itertools_grids(K, s0):
    # the fractions and the refinement axes as optimize_intermediate_speeds makes them
    lo_frac = max(COARSE_STEP, s0)
    fracs = [f for f in (round(k * COARSE_STEP, 10) for k in range(1, round(1.0 / COARSE_STEP) + 1))
             if f >= lo_frac]
    coarse = np.array(list(itertools.combinations_with_replacement(fracs, K - 1)))
    got = _coarse_grid(fracs, K)
    assert (got.shape, got.dtype, got.tobytes()) == (coarse.shape, coarse.dtype, coarse.tobytes())
    width = round(COARSE_STEP / FINE_STEP)
    span = [round(d * FINE_STEP, 10) for d in range(-width + 1, width)]
    for best_x in coarse[[0, len(coarse) // 2, -2, -1]].tolist():
        around = [[f for f in (round(x + d, 10) for d in span) if lo_frac <= f <= 1.0] for x in best_x]
        fine = np.array([x for x in itertools.product(*around) if all(a <= b for a, b in zip(x, x[1:]))])
        got = _fine_grid(around)
        assert (got.shape, got.dtype, got.tobytes()) == (fine.shape, fine.dtype, fine.tobytes()), best_x


def test_figure8_is_equal_on_both_pool_paths(on_both_paths):
    # the compiled set-up and boundary fill (fbq_pool_data and
    # fbq_pool_system) against reference.pool_setup and the Python fill
    # (reference.pool_fill and pool_taylor); both paths make the same LAPACK calls
    compiled, python = on_both_paths(lambda: reproduce_figure(8).curves)
    assert compiled == python


def test_failing_pool_raises_the_same_error_on_both_pool_paths(on_both_paths):
    # as for figure 8, the paths differ in the pool's zero search and fill
    pin = dict(SWEEP_PINS["failing_pool"])
    message = pin.pop("message")
    model = fbq.MultiServerModel(**pin)
    for run in (lambda: sweep_thresholds(model),
                lambda: optimize_threshold(model, CostCoefficients(1.0, 0.5))):
        compiled, python = on_both_paths(lambda: raised(run))
        assert compiled == python
        assert compiled == message


def test_import_neither_builds_nor_loads_the_lu_loop(fresh_import):
    assert fresh_import["lookups"] == 0 and not fresh_import["cache made"]  # nothing built, loaded or looked up
    assert fresh_import["lookups after a solve"] == 1  # the first stack solve does both
    (lib,) = fresh_import["cache after a solve"]
    assert lib.endswith(".so")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS x86 core names")
def test_family_bits_do_not_depend_on_the_blas_kernel(blas_kernel_bits):
    # one fresh interpreter per OpenBLAS kernel, shared with the pool test
    # (conftest.blas_kernel_bits); a family solve calls no BLAS
    outs = {bits["family"] for bits in blas_kernel_bits.values()}
    assert len(outs) == 1


def test_profile_result_independent_of_its_batch():
    b = PINS["bases"]["seed7"]
    model = base_model(b)
    rng = np.random.default_rng(7)
    inter = np.sort(rng.uniform(b["s0"], b["top"], (256 + 12, 2)), axis=1)
    family = solve_speed_family(model, inter)
    shifted = solve_speed_family(model, inter[5:])            # moves every tile boundary
    boundary = solve_speed_family(model, inter[256 - 2:256 + 2])
    for k in (0, 6, 256 - 1, 256, 256 + 11):
        alone = solve_speed_family(model, inter[k:k + 1])
        one = solve_general(base_model(b, (b["s0"], *inter[k], b["top"])))
        for f in FIELDS:
            got = [getattr(family, f)[k], getattr(one, f)]
            if k >= 5:
                got.append(getattr(shifted, f)[k - 5])
            assert got == [getattr(alone, f)[0]] * len(got), f"{k} {f}"
    for k in range(4):
        alone = solve_speed_family(model, inter[256 - 2 + k:256 - 1 + k])
        for f in FIELDS:
            assert getattr(boundary, f)[k] == getattr(alone, f)[0]


@pytest.mark.parametrize("s0,bad", [
    (0.2, (0.0, 0.5)),    # zero intermediate speed above a positive idle speed
    (0.0, (0.0, 0.5)),    # zero intermediate speed: not positive above idle
    (0.0, (0.0, 0.0)),    # every sub-threshold speed zero
    (0.0, (0.6, 0.4)),    # decreasing pair
])
def test_one_invalid_profile_fails_the_family_as_it_fails_alone(s0, bad):
    b = dict(PINS["bases"]["figure4"], s0=s0)
    with pytest.raises(ModelError) as alone:
        solve_general(base_model(b, (s0, *bad, b["top"])))
    inter = [(0.3, 0.4)] * 300 + [bad] + [(0.5, 0.7)] * 5
    with pytest.raises(ModelError) as family:
        solve_speed_family(base_model(b), inter)
    assert type(family.value) is type(alone.value)


def per_row_level_checks(levels):
    """The per-row scans of single._check_levels, as they would run on every
    family without its whole-array test: None, or the ModelError's message."""
    K = levels.shape[1] - 1
    for bad, message in ((~np.isfinite(levels).all(axis=1), "speeds must be finite"),
                         ((levels < 0).any(axis=1), "speeds must be nonnegative"),
                         ((levels[:, 1:] < levels[:, :-1]).any(axis=1), "speeds must be nondecreasing")):
        if bad.any():
            return f"{message}: {tuple(levels[np.flatnonzero(bad)[0]].tolist())}"
    stopped = (levels[:, 1:] <= 0).any(axis=1)
    if stopped.any():
        if (levels[np.flatnonzero(stopped)[0], :K] == 0).all():
            return "all sub-threshold speeds are zero: use solve_zero_speed"
        return "speed levels 1..K must be positive for the general solver"
    return None


def level_check_outcome(levels):
    try:
        single._check_levels(levels)
    except ModelError as exc:
        return str(exc)
    return None


# (row, level, value) put into a valid family
LEVEL_FAULTS = {
    "valid": [], "nan-s0": [(3, 0, np.nan)], "nan-inner": [(40, 2, np.nan)], "nan-top": [(0, 3, np.nan)],
    "negative-s0": [(7, 0, -0.1)], "decreasing": [(11, 2, 0.01)], "zero-s1-below-s0": [(5, 1, 0.0)],
    "all-zero": [(9, 1, 0.0), (9, 2, 0.0), (9, 0, 0.0)], "zero-s0-and-s1": [(2, 1, 0.0), (2, 0, 0.0)],
    "decreasing-before-negative": [(4, 2, 0.01), (30, 0, -1.0)],
    "nan-and-decreasing": [(1, 1, np.nan), (6, 2, 0.01)],
}


@pytest.mark.parametrize("faults", LEVEL_FAULTS.values(), ids=LEVEL_FAULTS)
def test_level_checks_give_the_per_row_outcome(faults):
    rng = np.random.default_rng(31)
    levels = np.column_stack([np.full(50, 0.05), np.sort(rng.uniform(0.1, 1.0, (50, 2)), axis=1), np.ones(50)])
    for row, level, value in faults:
        levels[row, level] = value
    assert level_check_outcome(levels) == per_row_level_checks(levels)
    assert (level_check_outcome(levels) is None) == (faults == [])


@pytest.mark.parametrize("inter", [[[np.nan]], [[0.5]] * 20 + [[np.nan]], [[np.inf]]],
                         ids=["nan", "late-nan", "inf"])
def test_a_non_finite_speed_fails_the_family_naming_its_profile(inter):
    # as SpeedProfile rejects a non-finite speed, before any system is filled
    b = PINS["bases"]["figure4"]
    with pytest.raises(ModelError, match=rf"speeds must be finite: \(0\.0, {inter[-1][0]}, 1\.0\)"):
        solve_speed_family(base_model(b), inter)


def test_family_needs_profiles():
    with pytest.raises(ModelError):
        solve_speed_family(base_model(PINS["bases"]["figure4"]), np.empty((0, 2)))


class TestStackChecks:
    """The checks and their order, with a lone system solved by LAPACK in
    solve_probability_system and a stack by the reference lockstep;
    TestStackChecksPythonLoop repeats them with the lone system solved by
    the lockstep too."""

    GOOD = (np.eye(3), np.full(3, 1 / 3))
    CASES = {
        "zero row": (np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 1]]), np.ones(3)),
        "singular": (np.array([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]]), np.ones(3)),
        "negative": (np.eye(3), np.array([-0.5, 1.0, 0.5])),
    }

    lone = staticmethod(solve_probability_system)

    @pytest.mark.parametrize("case", CASES)
    def test_failing_system_raises_inside_a_stack(self, case):
        a, b = self.CASES[case]
        with pytest.raises(SolverError) as alone:
            self.lone(a, b)
        stack_a = np.stack([self.GOOD[0], a, self.GOOD[0]])
        stack_b = np.stack([self.GOOD[1], b, self.GOOD[1]])
        with pytest.raises(SolverError) as stacked:
            solve_probability_stack(stack_a, stack_b)
        assert str(stacked.value) == str(alone.value)

    def test_negative_probability_message_names_value_and_condition(self):
        with pytest.raises(SolverError, match=r"-5\.000e-01 is below -1e-09; condition estimate") as err:
            self.lone(*self.CASES["negative"])
        assert "formulation bug" not in str(err.value)

    def test_roundoff_negatives_are_clamped_in_every_system(self):
        b = np.array([[-1e-12, 0.5, 0.5], [0.2, -1e-11, 0.8]])
        x = solve_probability_stack(np.stack([np.eye(3)] * 2), b)
        assert (x >= 0).all()
        assert x[0, 0] == 0.0 and x[1, 1] == 0.0

    def test_mismatched_shapes_raise_before_any_loop_runs(self):
        for solve, a, b in ((self.lone, np.eye(3), np.ones(2)),
                            (solve_probability_stack, np.eye(3), np.ones(3)),
                            (solve_probability_stack, np.ones((2, 3, 3)), np.ones((2, 4)))):
            with pytest.raises(ValueError, match="does not match right-hand sides"):
                solve(a, b)

    def test_zero_row_late_in_the_stack_wins_over_a_tiny_pivot_earlier(self):
        tiny_pivot = np.array([[1.0, 1, 0], [1, 1 + 1e-14, 0], [0, 0, 1]])
        zero_row, b = self.CASES["zero row"]
        with pytest.raises(SolverError, match="pivot"):
            self.lone(tiny_pivot, np.ones(3))
        with pytest.raises(SolverError, match="zero row"):
            solve_probability_stack(np.stack([tiny_pivot, self.GOOD[0], zero_row]),
                                    np.stack([np.ones(3), self.GOOD[1], b]))


def crafted_stack(*faults):
    """A (8, 4, 4) stack of well-conditioned systems with known solutions in
    (0.1, 1), and the named faults put in: "nan" in b of system 6, a "zero
    row" in system 5, a nearly "singular" system 3 (pivot below 1e-12), a
    "negative" solution -0.5 in system 1 and "roundoff" negatives in
    [-1e-9, 0) in systems 2 and 6."""
    rng = np.random.default_rng(21)
    a = rng.uniform(-1.0, 1.0, (8, 4, 4)) + 4.0 * np.eye(4)
    x = rng.uniform(0.1, 1.0, (8, 4))
    if "negative" in faults:
        x[1, 2] = -0.5
    if "roundoff" in faults:
        x[2, 0], x[6, 3] = -5e-10, -1e-12
    if "singular" in faults:
        a[3, 1] = a[3, 0] + 1e-14 * a[3, 2]
    b = np.einsum("kij,kj->ki", a, x)
    if "zero row" in faults:
        a[5, 2] = 0.0
    if "nan" in faults:
        b[6, 1] = np.nan
    return a, b


def stack_outcome(a, b):
    """solve_probability_stack's solution on copies of a and b, or the type
    and message of the error it raises."""
    try:
        return solve_probability_stack(a.copy(), b.copy())
    except (ValueError, SolverError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("faults, expected", [
    (("nan", "zero row", "singular", "negative"), (ValueError, "array must not contain infs or NaNs")),
    (("zero row", "singular", "negative"),
     (SolverError, "degenerate parameter set: zero row in the linear system")),
])
def test_checked_raises_first_pass_errors_first(faults, expected):
    assert stack_outcome(*crafted_stack(*faults)) == expected


def test_checked_raises_a_later_singular_system_before_an_earlier_negative_one():
    a, b = crafted_stack("singular", "negative")
    got = stack_outcome(a, b)
    cond = condition(a[3])
    assert cond > 1e12
    assert got[0] is SolverError
    assert got[1].startswith("singular linear system (pivot ")
    assert got[1].endswith(f"cond ~ {cond:.3e}); degenerate parameter set")
    assert stack_outcome(a[1:2], b[1:2])[1].startswith("solved probability -5.000e-01")


def test_condition_estimate_equals_its_reference_and_lapacks_estimate():
    # Hager's estimate, as LAPACK's dlacn2 runs it: reference.condition
    # equals the dgecon estimate of the same row-scaled system S, factored
    # as S^T, to its rounding.  solve_probability_system quotes dgecon's
    # estimate from its own factors of S; each system's right-hand side makes
    # a solved value -0.5, so that the solve fails and quotes it.  On a
    # well-conditioned system the two estimates agree to the message's
    # rounding; on the nearly singular one, whose estimate is above 1 / eps,
    # the factors of S and S^T round apart and the estimates agree only in
    # magnitude.  The compiled lu_condition's bits are checked where the
    # loops book it.
    rng = np.random.default_rng(34)
    systems = [crafted_stack("singular")[0][3], *crafted_stack()[0],
               *(rng.uniform(-1.0, 1.0, (n, n)) + d * np.eye(n) for n, d in ((1, 0.5), (2, 0.0), (7, 1.0),
                                                                            (30, 0.1)))]
    for a in systems:
        expected = condition(a)
        scaled = a / np.abs(a).max(axis=1)[:, None]
        norm = np.abs(scaled).sum(axis=1).max()
        lu, _, _ = scipy.linalg.lapack.dgetrf(scaled.T)
        assert expected == pytest.approx(1.0 / scipy.linalg.lapack.dgecon(lu, norm, norm="1")[0], rel=1e-6)
        lu, _, _ = scipy.linalg.lapack.dgetrf(scaled)
        own = 1.0 / scipy.linalg.lapack.dgecon(lu, norm, norm="I")[0]
        x = np.linspace(-0.5, 1.0, len(a))
        message = raised(lambda: solve_probability_system(a, a @ x))
        assert re.search(r"(?:cond ~|row-scaled system) ([^);]+)", message).group(1) == f"{own:.3e}"
        if expected < 1.0 / np.finfo(float).eps:
            assert own == pytest.approx(expected, rel=1e-4)
        else:
            assert own > 1.0 / np.finfo(float).eps


def test_checked_clamps_roundoff_negatives_of_a_stack():
    a, b = crafted_stack("roundoff")
    got = stack_outcome(a, b)
    assert (got >= 0).all() and got[2, 0] == 0.0 and got[6, 3] == 0.0
    np.testing.assert_allclose(got[0], np.linalg.solve(a[0], b[0]), rtol=1e-13)


def pinned_search_families(monkeypatch):
    """Every (family, speed levels) that the pinned searches solve."""
    families = []
    solve = single._Family.solve

    def spy(family, levels):
        families.append((family, levels.copy()))
        return solve(family, levels)
    with monkeypatch.context() as m:
        m.setattr(single._Family, "solve", spy)
        for pin in PINS["searches"]:
            b = PINS["bases"][pin["base"]]
            optimize_intermediate_speeds(base_model(b), pin["K"], CostCoefficients(b["c1"], b["c2"]))
    return families


def pinned_search_stacks(monkeypatch):
    """Every stack, (a, b), of the pinned searches, as the numpy assembly
    reference.family_stack builds them (the compiled family loop fills the
    same systems tile by tile)."""
    stacks = [family_stack(family, levels) for family, levels in pinned_search_families(monkeypatch)]
    assert {a.shape[1] for a, _ in stacks} == {6, 10}   # the K = 2 and K = 3 families
    return stacks


def family_call(loops, family, levels, threads):
    """(status, x, pivmin, summary, p, out, cond) of the compiled
    fbq_speed_family on the profiles `levels` of `family`, run on up to
    `threads` threads; out holds the tail mass, g0(1), L1, L2, L and the
    energy rate, and cond the condition estimate of a failing profile."""
    levels = np.ascontiguousarray(levels, dtype=float)
    power = (levels != 0.0).astype(float) if family.alpha == 0.0 else levels**family.alpha
    count, n = len(levels), len(family.layout.states)
    x, pivmin, summary = np.empty((count, n)), np.empty(count), np.empty(3, dtype=np.int64)
    p, out, cond = np.empty((count, family.K)), np.empty((6, count)), ctypes.c_double()
    dbl, i64 = ctypes.c_double.from_buffer, ctypes.c_int64.from_buffer
    status = loops.speed_family(count, family.K, len(family.at), i64(family.at), dbl(family.coef),
                                dbl(family.shared), family.work, family.rho1, family.rho2, family.q,
                                dbl(levels), dbl(power), LINSYS.PIVOT_RTOL, LINSYS.NEG_PROB_TOL, threads,
                                dbl(x), dbl(pivmin), i64(summary), dbl(p), dbl(out), ctypes.byref(cond))
    return status, x, pivmin, summary.tolist(), p, out, cond.value


def family_loop(loops, family, levels):
    """(status, x, pivmin, summary) of the compiled fbq_speed_family on one
    thread, its finish dropped: its elimination is the compiled twin of
    reference.lockstep."""
    return family_call(loops, family, levels, 1)[:4]


def assert_same_loop_results(got, expected):
    status, x, pivmin, summary = got
    assert (status, list(summary)) == (expected[0], list(expected[3]))
    # bytes, so that a zero keeps its sign
    assert x.tobytes() == expected[1].tobytes() and pivmin.tobytes() == expected[2].tobytes()


def test_lockstep_loops_are_equal_on_the_pinned_searches_stacks(monkeypatch, compiled_loops):
    for family, levels in pinned_search_families(monkeypatch):
        assert_same_loop_results(family_loop(compiled_loops, family, levels),
                                 lockstep(*family_stack(family, levels)))


def test_lockstep_agrees_with_scipy_lu_on_the_pinned_searches_stacks(monkeypatch):
    for a, b in pinned_search_stacks(monkeypatch):
        x = solve_probability_stack(a, b)
        reference = np.array([scipy.linalg.lu_solve(scipy.linalg.lu_factor(a[k]), b[k]) for k in range(len(a))])
        # relative to each system's largest value: its smallest ones, down
        # to 1e-6 of it, are known to fewer digits by either solve
        assert (np.abs(x - reference).max(axis=1) <= 1e-12 * np.abs(reference).max(axis=1)).all()


def pivoting_stack(count, shared):
    """count random 5 x 5 systems whose largest entry in each column lies off
    the diagonal, so that partial pivoting swaps rows.  With shared, every
    system is one matrix with its entries scaled by up to 1%, so the tile's
    systems pivot alike; else each system has its own row order."""
    rng = np.random.default_rng(24 + count)
    base = rng.uniform(-1.0, 1.0, (5, 5)) + 3.0 * np.eye(5)[::-1]
    a = base * rng.uniform(0.99, 1.01, (count, 5, 5))
    if not shared:
        a = np.stack([m[rng.permutation(5)] for m in a])
    return a, rng.uniform(0.0, 1.0, (count, 5))


def seed7_profiles(count, shared, K=3):
    """count K-level profiles of the seed7 family and the family: with
    shared, one profile with its inner speeds moved by up to 1%, so that the
    tile's systems pivot alike; else inner speeds drawn across the family's
    range."""
    b = PINS["bases"]["seed7"]
    rng = np.random.default_rng(42 + count)
    if shared:
        inter = np.linspace(0.4, 0.7, K - 1) * rng.uniform(0.99, 1.01, (count, K - 1))
    else:
        inter = np.sort(rng.uniform(b["s0"], b["top"], (count, K - 1)), axis=1)
    levels = np.column_stack([np.full(count, b["s0"]), inter, np.full(count, b["top"])])
    return single._Family(base_model(b), K), levels


@pytest.mark.parametrize("shared", [True, False], ids=["shared-pivots", "own-pivots"])
@pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 17])
def test_lockstep_is_equal_on_both_loops_wherever_a_system_sits(count, shared):
    # bytes throughout, so that a zero keeps its sign
    a, b = pivoting_stack(count, shared)
    assert (np.abs(a).argmax(axis=1) != np.arange(5)).any(axis=1).all()   # every system pivots
    other_a, other_b = pivoting_stack(3, not shared)
    expected = lockstep(a.copy(), b.copy())
    np.testing.assert_allclose(expected[1], np.linalg.solve(a, b[..., None])[..., 0], rtol=1e-13)
    shifted = lockstep(np.concatenate([other_a, a]), np.concatenate([other_b, b]))[1]
    assert shifted[3:].tobytes() == expected[1].tobytes()
    for k in range(count):
        assert lockstep(a[k:k + 1].copy(), b[k:k + 1].copy())[1][0].tobytes() == expected[1][k].tobytes()
    # the compiled elimination, inside the family loop: the profiles' systems
    # alone, after three other profiles, and one at a time; a tile's rows
    # share one envelope, the union over its lanes, which own pivots at
    # K = 6 and 8 widen most
    loops = KERNELS.compiled()
    for K in (3,) if shared else (3, 6, 8):
        family, levels = seed7_profiles(count + 3, shared, K)
        expected = lockstep(*family_stack(family, levels[3:]))
        assert_same_loop_results(family_loop(loops, family, levels[3:]), expected)
        assert family_loop(loops, family, levels)[1][3:].tobytes() == expected[1].tobytes(), K
        for k in range(count):
            alone = family_loop(loops, family, levels[3 + k:4 + k])[1][0]
            assert alone.tobytes() == expected[1][k].tobytes(), K


@pytest.mark.parametrize("faults", [("nan", "zero row", "singular", "negative"),
                                    ("zero row", "singular", "negative"), ("singular", "negative"),
                                    ("negative",), ("roundoff",)])
def test_checked_keeps_its_error_order_in_a_longer_stack(faults):
    a, b = crafted_stack(*faults)
    good_a, good_b = crafted_stack()
    long_a, long_b = np.concatenate([good_a[:3], a, good_a[:6]]), np.concatenate([good_b[:3], b, good_b[:6]])
    short, long = stack_outcome(a, b), stack_outcome(long_a, long_b)
    if isinstance(short, tuple):
        assert long == short     # the same error from the 8 systems alone or among 17
    else:
        assert np.array_equal(long[3:11], short)


class TestStackChecksPythonLoop(TestStackChecks):
    @staticmethod
    def lone(a, b):
        return solve_probability_stack(np.asarray(a, dtype=float)[None], np.asarray(b, dtype=float)[None])[0]


# --- the family loop on several threads ---------------------------------------

# fbq_speed_family splits a family over up to `threads` threads, as many as
# get FAMILY_SHARE profiles each, so from SPLIT profiles on; the tests below
# ask for no more than three
SPLIT = 2 * int(re.search(r"FAMILY_SHARE = (\d+)", KERNELS._SOURCE.read_text()).group(1))
THREADS = (1, 2, 3)


def task_count():
    """The threads of this process, or None where /proc does not list them."""
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None


def coarse_k3_family(b):
    """The coarse 5,050-profile K = 3 family of optimize_intermediate_speeds
    on the base b (s0 = 0), and its speed levels."""
    fracs = [round(k * COARSE_STEP, 10) for k in range(1, round(1.0 / COARSE_STEP) + 1)]
    inter = _coarse_grid(fracs, 3) * b["top"]
    levels = np.column_stack([np.full(len(inter), b["s0"]), inter, np.full(len(inter), b["top"])])
    return single._Family(base_model(b), 3), levels


def assert_same_bits(got, expected, what):
    assert (got[0], got[3]) == (expected[0], expected[3]), what
    for a, b in zip(got[1:], expected[1:]):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes(), what


def test_families_are_byte_equal_on_any_thread_count(monkeypatch, compiled_loops):
    families = [(f, levels) for f, levels in pinned_search_families(monkeypatch) if len(levels) >= SPLIT]
    # solve_general's one-profile families, all of the oracle traffic, stay below the split
    assert 1 < SPLIT and 5050 in {len(levels) for _, levels in families}
    # at q = 0 the roundoff negatives of many systems are clamped, so the
    # threads' counts of negative values decide the clamp of the finish
    clamped = coarse_k3_family(dict(PINS["bases"]["figure4"], q=0.0))
    before = task_count()
    for family, levels in [*families, clamped]:
        outs = [family_call(compiled_loops, family, levels, threads) for threads in THREADS]
        assert outs[0][0] == 0
        for threads, out in zip(THREADS[1:], outs[1:]):
            assert_same_bits(out, outs[0], (family.K, len(levels), threads))
    assert outs[0][3][2] > 0
    assert task_count() == before   # every thread was joined within its call


def fault_levels(count, faults):
    """count K = 3 profiles of FAILING_BASE, GOOD but for faults {index:
    levels}, and their family."""
    levels = np.tile([0.0, *GOOD, 1.0], (count, 1))
    for k, row in faults.items():
        levels[k] = row
    return single._Family(base_model(FAILING_BASE), 3), levels


# speed levels (s_0 .. s_3) of FAILING_BASE profiles: an all-zero profile
# has an all-zero work-conservation row, a NaN speed gives NaN entries
ZERO_ROW, NOT_FINITE = (0.0, 0.0, 0.0, 0.0), (0.0, np.nan, 0.5, 1.0)
SINGULAR_ROW, NEGATIVE_ROW = (0.0, *SINGULAR, 1.0), (0.0, *NEGATIVE, 1.0)
LATE = 2048 - 10    # in the last claim, far from the first


@pytest.mark.parametrize("faults, status", [
    ({3: ZERO_ROW, LATE: NOT_FINITE}, 1),
    ({3: SINGULAR_ROW, LATE: ZERO_ROW}, 2),
    ({3: NEGATIVE_ROW, LATE: SINGULAR_ROW}, 0),
    ({40: SINGULAR_ROW, 700: NEGATIVE_ROW, 1040: SINGULAR_ROW, 1500: SINGULAR_ROW, LATE: SINGULAR_ROW}, 0),
], ids=["late-not-finite-before-early-zero-row", "late-zero-row-before-early-tiny-pivot",
        "late-singular-before-early-negative", "lowest-of-several-singular"])
def test_the_outcome_of_a_split_family_is_the_one_thread_outcome(faults, status, compiled_loops, monkeypatch):
    family, levels = fault_levels(2048, faults)
    expected = lockstep(*family_stack(family, levels))
    assert expected[0] == status
    if status == 0:   # the first singular profile and the first negative one
        assert list(expected[3][:2]) == [min(k for k, row in faults.items() if row == fault)
                                         for fault in (SINGULAR_ROW, NEGATIVE_ROW)]
    for threads in THREADS:
        for _ in range(5):   # which thread claims which tiles varies from call to call
            got = family_call(compiled_loops, family, levels, threads)
            assert (got[0], got[3]) == (expected[0], list(expected[3])), threads
    if status == 0:
        messages = set()
        for cpus in THREADS:
            monkeypatch.setattr(KERNELS, "cpus", lambda: cpus)
            messages.add(raised(lambda: solve_speed_family(base_model(FAILING_BASE), levels[:, 1:-1])))
        assert messages == {raised(lambda: solve_speed_family(base_model(FAILING_BASE), [SINGULAR]))}


# the pinned messages of a lone SINGULAR_ROW and NEGATIVE_ROW profile, which
# the profile raises wherever it sits in a family and on any thread count
FAILING_MESSAGES = {
    SINGULAR_ROW: "singular linear system (pivot 1.110e-16, cond ~ 1.020e+21); degenerate parameter set",
    NEGATIVE_ROW: "solved probability -2.329e-08 is below -1e-09; condition estimate of the row-scaled "
                  "system 3.410e+11",
}


@pytest.mark.parametrize("row", FAILING_MESSAGES, ids=["singular", "negative"])
@pytest.mark.parametrize("count, k, threads", [(1, 0, 1), (9, 8, 1), (300, 290, 1), (300, 290, 2)],
                         ids=["alone", "last-tile-of-9", "later-tile-of-300",
                              "later-tile-of-300-on-2-threads"])
def test_a_failing_family_books_the_estimate_of_its_failing_profile(row, count, k, threads,
                                                                    compiled_loops, monkeypatch):
    # fbq_speed_family fills the failing profile's system again after the
    # merge and books lu_condition's estimate of it, which the message quotes
    family, levels = fault_levels(count, {k: row})
    got = family_call(compiled_loops, family, levels, threads)
    assert got[0] == 0
    assert (got[3][0] == k) if row == SINGULAR_ROW else (got[3][:2] == [-1, k])
    assert got[6].hex() == condition(family_stack(family, levels)[0][k]).hex()
    monkeypatch.setattr(KERNELS, "cpus", lambda: threads)
    message = raised(lambda: solve_speed_family(base_model(FAILING_BASE), levels[:, 1:-1]))
    assert message == FAILING_MESSAGES[row]


# --- the compiled finish -------------------------------------------------------

# numpy sums a row of fewer than 8 terms in turn and a longer one in 8
# accumulators, so the energy sums of K = 1 .. 7 and of K >= 8 differ in kind
FINISH_K = (*range(1, 13), 16, 24)


@pytest.mark.parametrize("alpha", [0.0, 1.5, 2.0])
def test_the_compiled_finish_equals_its_numpy_twin(alpha, monkeypatch):
    # seed7 has s_0 > 0; the q = 0 coarse K = 3 family is clamped, and its
    # s_0 = 0 draws no power at alpha = 0
    b = dict(PINS["bases"]["seed7"], alpha=alpha)
    rng = np.random.default_rng(39)
    families = []
    for K in FINISH_K:
        count = SPLIT + 8 if K <= 12 else 24   # split over threads up to K = 12
        inter = np.sort(rng.uniform(b["s0"], b["top"], (count, K - 1)), axis=1)
        families.append((single._Family(base_model(b), K),
                         np.column_stack([np.full(count, b["s0"]), inter, np.full(count, b["top"])])))
    clamped = coarse_k3_family(dict(PINS["bases"]["figure4"], q=0.0, alpha=alpha))
    assert family_call(KERNELS.compiled(), *clamped, 1)[3][2] > 0
    for family, levels in [*families, clamped]:
        for threads in (1, 2):
            monkeypatch.setattr(KERNELS, "cpus", lambda: threads)
            got = family.solve(levels)
            x = got["boundary"]
            expected = metrics(family, x, levels, *finish_sums(family.K, levels, x))
            assert sorted(got) == sorted(expected)
            for f, value in expected.items():   # bytes, so that a zero keeps its sign
                assert got[f].tobytes() == value.tobytes(), (family.K, len(levels), threads, f)


def test_a_search_builds_one_family_and_its_grids_once_per_lower_bound(monkeypatch):
    calls = {"_Family": 0, "_coarse_grid": 0}
    init, coarse = single._Family.__init__, EXPERIMENTS._coarse_grid

    def counted_init(family, *args):
        calls["_Family"] += 1
        init(family, *args)

    def counted_grid(*args):
        calls["_coarse_grid"] += 1
        return coarse(*args)
    monkeypatch.setattr(single._Family, "__init__", counted_init)
    monkeypatch.setattr(EXPERIMENTS, "_coarse_grid", counted_grid)
    EXPERIMENTS._search_grids.cache_clear()
    b = PINS["bases"]["figure4"]
    optimize_intermediate_speeds(base_model(b), 3, CostCoefficients(b["c1"], b["c2"]))
    assert calls == {"_Family": 1, "_coarse_grid": 1}   # one family for the coarse and the fine grid
    # another model with the same lower bound reuses the grids
    optimize_intermediate_speeds(base_model(dict(b, lam=2.0)), 3, CostCoefficients(b["c1"], 5.0))
    assert calls == {"_Family": 2, "_coarse_grid": 1}
    fracs, grid, span = EXPERIMENTS._search_grids(COARSE_STEP, 3)
    assert not grid.flags.writeable and len(grid) == 5050
    assert isinstance(fracs, tuple) and isinstance(span, tuple)


AFFINITY_PROBE = """
import hashlib, os, sys
import fbq
from fbq import _kernels
from fbq.experiments import COARSE_STEP, _coarse_grid, reproduce_figure
from fbq.single import solve_speed_family
if sys.argv[1] != "free":
    os.sched_setaffinity(0, {int(sys.argv[1])})
model = fbq.SingleServerModel(2.5, fbq.CoxianService(5.0, 1.0, 0.1), fbq.SpeedProfile((0.0, 1.0), alpha=2.0))
fracs = [round(k * COARSE_STEP, 10) for k in range(1, round(1.0 / COARSE_STEP) + 1)]
family = solve_speed_family(model, _coarse_grid(fracs, 3))
digest = hashlib.sha256(b"".join(array.tobytes() for array in vars(family).values()))
digest.update(repr(reproduce_figure(6, sim_jobs=20_000).curves).encode())
print(_kernels.cpus(), digest.hexdigest())
"""


def test_a_process_pinned_to_one_cpu_gets_the_same_bits():
    # sched_setaffinity in the child acts on that child only
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = [subprocess.Popen([sys.executable, "-c", AFFINITY_PROBE, arg], env=env, stdout=subprocess.PIPE, text=True)
            for arg in ("free", str(cpu))]
    (free_cpus, free), (pinned_cpus, pinned) = (run.communicate()[0].split() for run in runs)
    assert [run.returncode for run in runs] == [0, 0]
    assert (int(free_cpus), int(pinned_cpus)) == (len(os.sched_getaffinity(0)), 1)
    assert free == pinned
