"""Family solves of speed profiles (fbq.single.solve_speed_family) and the
stacked solves under them (fbq.linsys).

data/family_solve_pins.json holds searches and figure-5 points recorded from
the search that solved its grid one profile at a time with solve_general.
The family solve must return the same speed levels, and costs and curves
within 1e-12 relative.  The compiled family loop (fill, lockstep LU and row
sums) does the same float operations as its Python reference
(reference.family_solve: the numpy assembly, reference.lockstep and
reference.finish_sums), so every result, error message included, must be
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
from reference import condition, lockstep, solve_probability_stack

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "family_solve_pins.json").read_text())
SWEEP_PINS = json.loads((pathlib.Path(__file__).parent / "data" / "threshold_sweep_pins.json").read_text())
FIELDS = ("L", "L1", "L2", "energy_rate")
KERNELS = sys.modules["fbq._kernels"]
LINSYS = sys.modules["fbq.linsys"]
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
    # the compiled zero search and boundary fill (fbq_pool_roots and
    # fbq_pool_system) against reference.isolate_roots and the Python fill
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


# OpenBLAS kernels that x86 CPUs of four generations select
BLAS_KERNELS = ("Prescott", "Sandybridge", "Haswell", "SkylakeX")


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"), reason="OpenBLAS x86 core names")
def test_family_bits_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the kernels of an OpenBLAS built for several
    # CPUs (and is ignored by others); a family solve calls no BLAS
    code = "\n".join([
        "import json, sys, numpy as np, fbq",
        "from fbq.single import solve_speed_family",
        "b = json.loads(sys.argv[1])",
        "model = fbq.SingleServerModel(b['lam'], fbq.CoxianService(b['nu1'], b['nu2'], b['q']),",
        "                              fbq.SpeedProfile((b['s0'], b['top']), alpha=b['alpha']))",
        "inter = np.sort(np.random.default_rng(5).uniform(b['s0'], b['top'], (40, 2)), axis=1)",
        "family = solve_speed_family(model, inter)",
        "print(np.concatenate([family.boundary.ravel(), family.g0_at_1, family.L1, family.L2,",
        "                      family.energy_rate]).tobytes().hex())",
    ])
    outs = set()
    for core in BLAS_KERNELS:
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_CORETYPE=core)
        outs.add(subprocess.run([sys.executable, "-c", code, json.dumps(PINS["bases"]["seed7"])], env=env,
                                capture_output=True, text=True, check=True).stdout)
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
    cond = LINSYS._condition(a[3])
    assert cond > 1e12
    assert got[0] is SolverError
    assert got[1].startswith("singular linear system (pivot ")
    assert got[1].endswith(f"cond ~ {cond:.3e}); degenerate parameter set")
    assert stack_outcome(a[1:2], b[1:2])[1].startswith("solved probability -5.000e-01")


def test_condition_estimate_equals_its_reference_and_lapacks_estimate():
    # Hager's estimate, as LAPACK's dlacn2 runs it, from the compiled LU's
    # own factors: the bits of reference.condition, and the dgecon estimate
    # of the same row-scaled system to its rounding
    rng = np.random.default_rng(34)
    systems = [crafted_stack("singular")[0][3], *crafted_stack()[0],
               *(rng.uniform(-1.0, 1.0, (n, n)) + d * np.eye(n) for n, d in ((1, 0.5), (2, 0.0), (7, 1.0),
                                                                            (30, 0.1)))]
    for a in systems:
        got = LINSYS._condition(a)
        assert got.hex() == condition(a).hex()
        scaled = a / np.abs(a).max(axis=1)[:, None]
        lu, _, _ = scipy.linalg.lapack.dgetrf(scaled.T)
        rcond, _ = scipy.linalg.lapack.dgecon(lu, np.abs(scaled).sum(axis=1).max(), norm="1")
        assert got == pytest.approx(1.0 / rcond, rel=1e-6)


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
    """Every stack, (a, b), of the pinned searches, as the family's numpy
    assembly builds them (the compiled family loop fills the same systems
    tile by tile)."""
    stacks = [family._stack(levels) for family, levels in pinned_search_families(monkeypatch)]
    assert {a.shape[1] for a, _ in stacks} == {6, 10}   # the K = 2 and K = 3 families
    return stacks


def family_loop(loops, family, levels):
    """(status, x, pivmin, summary) of the compiled fbq_speed_family on the
    profiles `levels` of `family`, its row sums dropped: its elimination
    is the compiled twin of reference.lockstep."""
    levels = np.ascontiguousarray(levels, dtype=float)
    count, n = len(levels), len(family.layout.states)
    x, pivmin, summary = np.empty((count, n)), np.empty(count), np.empty(3, dtype=np.int64)
    p, sums = np.empty((count, family.K)), np.empty((5, count))
    dbl, i64 = ctypes.c_double.from_buffer, ctypes.c_int64.from_buffer
    status = loops.speed_family(count, family.K, len(family.at), i64(family.at), dbl(family.coef),
                                dbl(family.shared), family.work, dbl(levels), LINSYS.PIVOT_RTOL,
                                LINSYS.NEG_PROB_TOL, dbl(x), dbl(pivmin), i64(summary), dbl(p), dbl(sums))
    return status, x, pivmin, summary.tolist()


def assert_same_loop_results(got, expected):
    status, x, pivmin, summary = got
    assert (status, list(summary)) == (expected[0], list(expected[3]))
    assert np.array_equal(x, expected[1]) and np.array_equal(pivmin, expected[2])


def test_lockstep_loops_are_equal_on_the_pinned_searches_stacks(monkeypatch, compiled_loops):
    for family, levels in pinned_search_families(monkeypatch):
        assert_same_loop_results(family_loop(compiled_loops, family, levels),
                                 lockstep(*family._stack(levels)))


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


def seed7_profiles(count, shared):
    """count K = 3 profiles of the seed7 family and the family: with shared,
    one profile with its inner speeds moved by up to 1%, so that the tile's
    systems pivot alike; else inner speeds drawn across the family's range."""
    b = PINS["bases"]["seed7"]
    rng = np.random.default_rng(42 + count)
    if shared:
        inter = np.array([0.4, 0.7]) * rng.uniform(0.99, 1.01, (count, 2))
    else:
        inter = np.sort(rng.uniform(b["s0"], b["top"], (count, 2)), axis=1)
    levels = np.column_stack([np.full(count, b["s0"]), inter, np.full(count, b["top"])])
    return single._Family(base_model(b), 3), levels


@pytest.mark.parametrize("shared", [True, False], ids=["shared-pivots", "own-pivots"])
@pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 17])
def test_lockstep_is_equal_on_both_loops_wherever_a_system_sits(count, shared):
    a, b = pivoting_stack(count, shared)
    assert (np.abs(a).argmax(axis=1) != np.arange(5)).any(axis=1).all()   # every system pivots
    other_a, other_b = pivoting_stack(3, not shared)
    expected = lockstep(a.copy(), b.copy())
    np.testing.assert_allclose(expected[1], np.linalg.solve(a, b[..., None])[..., 0], rtol=1e-13)
    shifted = lockstep(np.concatenate([other_a, a]), np.concatenate([other_b, b]))[1]
    assert np.array_equal(shifted[3:], expected[1])
    for k in range(count):
        assert np.array_equal(lockstep(a[k:k + 1].copy(), b[k:k + 1].copy())[1][0], expected[1][k])
    # the compiled elimination, inside the family loop: the profiles' systems
    # alone, after three other profiles, and one at a time
    loops = KERNELS.compiled()
    family, levels = seed7_profiles(count + 3, shared)
    expected = lockstep(*family._stack(levels[3:]))
    assert_same_loop_results(family_loop(loops, family, levels[3:]), expected)
    assert np.array_equal(family_loop(loops, family, levels)[1][3:], expected[1])
    for k in range(count):
        assert np.array_equal(family_loop(loops, family, levels[3 + k:4 + k])[1][0], expected[1][k])


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
