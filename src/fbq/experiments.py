"""Cost-optimisation routines and reproduction of the numerical experiments.

Each reproducible figure is a set of labelled curves over a documented
parameter grid; the grids, cost coefficients and seeds are recorded in a
metadata dictionary emitted next to the CSV data so every curve can be
regenerated bit-for-bit.  Grid positions not stated numerically by the
source material (the comparison grids and the quadratic power exponent of
the cost experiments) were inferred from the plot geometry and are flagged
as assumptions in the metadata.
"""

from __future__ import annotations

import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .baselines import fcfs_L, las_L
from .models import (
    CostCoefficients,
    CoxianService,
    ModelError,
    MultiServerModel,
    SingleServerModel,
    SpeedProfile,
    UnstableModelError,
    check_stability_single,
    frozen,
)
from .multi import MultiServerSolution, solve_threshold, sweep_costs
from .simulation import SimConfig, ThreePhaseModel, simulate, two_phase_approximation
from .single import (
    SingleServerSolution,
    _Family,
    evaluate_cost_single,
    solve_general,
    solve_k1_closed_form,
    solve_zero_speed,
)

# power-law exponent of the cost experiments, recovered by matching the
# published cost curve (only alpha = 2 reproduces its convex shape)
COST_ALPHA = 2.0
DEFAULT_SEED = 42
COARSE_STEP, FINE_STEP = 0.01, 0.001   # speed-search grid steps, fractions of the top speed


def solve(model: SingleServerModel | MultiServerModel) -> SingleServerSolution | MultiServerSolution:
    """Exact steady state of a single-server or pool model.

    A profile whose sub-threshold speeds are all zero gets the zero-speed
    closed form, any other two-speed profile (K = 1) the K = 1 closed form,
    every other profile solve_general, and a pool solve_threshold; any
    other model raises TypeError.
    """
    if isinstance(model, MultiServerModel):
        return solve_threshold(model)
    if not isinstance(model, SingleServerModel):
        raise TypeError(f"no exact solver for {type(model).__name__}")
    if all(s == 0 for s in model.speeds.levels[: model.K]):
        return solve_zero_speed(model)
    if model.K == 1:
        return solve_k1_closed_form(model)
    return solve_general(model)


@dataclass
class PolicyCurve:
    """One labelled series of (x, value) points with strictly increasing x."""

    label: str
    xs: list[float]
    ys: list[float]

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ModelError("curve coordinate lists differ in length")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ModelError("curve x values must be strictly increasing")

    def argmin(self) -> float:
        k = min(range(len(self.ys)), key=self.ys.__getitem__)
        return self.xs[k]


@dataclass
class FigureResult:
    figure: int
    curves: list[PolicyCurve]
    metadata: dict = field(default_factory=dict)

    def write_csv(self, path=None) -> None:
        write_csv_rows([(x, c.label, y) for c in self.curves for x, y in zip(c.xs, c.ys)], path)

    def write_metadata(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def write_csv_rows(rows, path=None) -> None:
    """(x, series, value) rows as `x,series,value` CSV with 12 significant
    digits and \\n line ends, to the file `path` or to stdout."""
    text = "x,series,value\n" + "".join(f"{x:.12g},{s},{v:.12g}\n" for x, s, v in rows)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(start: float, stop: float, step: float) -> list[float]:
    n = round((stop - start) / step)
    return [round(start + k * step, 10) for k in range(n + 1)]


def _coarse_grid(fracs: list[float], K: int) -> np.ndarray:
    """The rows of itertools.combinations_with_replacement(fracs, K - 1) for
    K in {2, 3}, with fracs increasing, built by index."""
    f = np.array(fracs)
    return f[:, None] if K == 2 else f[np.stack(np.triu_indices(len(f)), axis=1)]


@functools.lru_cache(maxsize=16)
def _search_grids(lo_frac: float, K: int):
    """A speed search's coarse fractions from lo_frac on, its read-only
    coarse grid, the read-only starts of the grid's s_1 groups (each opens
    with s_1 = s_{K-1}) and the refinement offsets."""
    fracs = tuple(f for f in (round(k * COARSE_STEP, 10) for k in range(1, round(1.0 / COARSE_STEP) + 1))
                  if f >= lo_frac)
    width = round(COARSE_STEP / FINE_STEP)
    span = tuple(round(d * FINE_STEP, 10) for d in range(-width + 1, width))
    grid = _coarse_grid(fracs, K)
    return fracs, frozen(grid), frozen(np.flatnonzero(grid[:, 0] == grid[:, -1])), span


def _fine_grid(around: list[list[float]]) -> np.ndarray:
    """The nondecreasing rows of itertools.product(*around), in its order, for
    one or two increasing axes, built by index."""
    if len(around) == 1:
        return np.array(around[0])[:, None]
    a, b = np.array(around[0]), np.array(around[1])
    i, j = np.indices((len(a), len(b))).reshape(2, -1)
    keep = a[i] <= b[j]
    return np.stack((a[i[keep]], b[j[keep]]), axis=1)


def optimize_intermediate_speeds(model: SingleServerModel, K: int, costs: CostCoefficients):
    """Grid-search the intermediate speed levels of a K-level staircase.

    The idle speed s_0 and the top speed s_K are taken from the base model;
    the K-1 intermediate levels are swept over multiples of COARSE_STEP
    times the top speed (with s_1 <= s_2), then re-swept once at FINE_STEP resolution
    around the incumbent.  Both grids are scored as speed families of one
    _Family: the search reads only L and the energy rate, which
    _Family.scores writes alone in one compiled call, with the bits that
    _Family.solve gives them and so the costs of solving the profiles one
    by one with solve_general, roundoff negatives read clamped as there; a
    grid is solved again by the full path only when a profile fails, for
    that path's error.  Returns (best
    profile, best cost, coarse curve); for K = 3 the curve shows
    min-over-s2 cost as a function of s_1.
    """
    if K not in (2, 3):
        raise ModelError(f"intermediate-speed search supports K in {{2, 3}}, got {K}")
    if not check_stability_single(model):   # the load on the top speed, which every grid point shares
        raise UnstableModelError("every grid point is unstable: top speed cannot carry the load")
    family = _Family(model, K)
    s0, top = family.ends
    lo_frac = max(COARSE_STEP, s0 / top)
    # nondecreasing grid points, s_1 major; each s_1 group opens with s_1 = s_{K-1}
    fracs, grid, starts, span = _search_grids(lo_frac, K)
    cost = evaluate_cost_single(family.scores(family.levels(grid * top)), costs)
    best = int(np.argmin(cost))
    best_x, best_cost = tuple(grid[best].tolist()), float(cost[best])
    curve = PolicyCurve("cost" if K == 2 else "cost_min_over_s2", list(fracs),
                        np.minimum.reduceat(cost, starts).tolist())

    # one refinement pass around the incumbent
    around = [[f for f in (round(x + d, 10) for d in span) if lo_frac <= f <= 1.0] for x in best_x]
    near = _fine_grid(around)
    cost = evaluate_cost_single(family.scores(family.levels(near * top)), costs)
    k = int(np.argmin(cost))
    if cost[k] < best_cost:
        best_x, best_cost = tuple(near[k].tolist()), float(cost[k])
    levels = (s0,) + tuple(f * top for f in best_x) + (top,)
    return SpeedProfile(levels, alpha=model.speeds.alpha), best_cost, curve


def _threshold_cost_curve(model: MultiServerModel, costs: CostCoefficients,
                          label: str = "cost") -> PolicyCurve:
    """Switch-off cost over the thresholds 0 .. m-1 of the model's pool (sweep_costs)."""
    return PolicyCurve(label, [float(K) for K in range(model.m)], sweep_costs(model, costs))


def optimize_threshold(model: MultiServerModel, costs: CostCoefficients):
    """Evaluate the switch-off cost at every threshold and return the best.

    Solver failures at individual thresholds propagate rather than being
    skipped, so a returned optimum always covers the full range 0 .. m-1.
    The costs come from the pool's outcome rows; no solution is built.
    """
    curve = _threshold_cost_curve(model, costs)
    return int(curve.argmin()), curve


# --- figure reproduction -------------------------------------------------------

def _figure3() -> FigureResult:
    service = CoxianService(5.0, 1.0, 0.1)
    xs = _grid(2.1, 3.2, 0.1)
    fcfs, las, fb = [], [], []
    for lam in xs:
        fcfs.append(fcfs_L(lam, service))
        las.append(las_L(lam, service))
        model = SingleServerModel(lam, service, SpeedProfile((1.0, 1.0)))
        fb.append(solve_k1_closed_form(model).L)
    return FigureResult(
        figure=3,
        curves=[PolicyCurve("FCFS", xs, fcfs), PolicyCurve("LAS", xs, las),
                PolicyCurve("FB-ph2", xs, fb)],
        metadata={
            "figure": 3,
            "mu1": service.nu1, "mu2": service.nu2, "q": service.q,
            "lambda_grid": xs,
            "assumptions": ["lambda grid 2.1..3.2 step 0.1 inferred from plot geometry"],
        },
    )


def _figure4() -> FigureResult:
    service = CoxianService(5.0, 1.0, 0.1)
    base = SingleServerModel(2.5, service, SpeedProfile((0.0, 0.5, 1.0), alpha=COST_ALPHA))
    costs = CostCoefficients(1.0, 20.0)
    _, _, curve = optimize_intermediate_speeds(base, 2, costs)
    keep = [(x, y) for x, y in zip(curve.xs, curve.ys) if x >= 0.1 - 1e-12]
    trimmed = PolicyCurve("cost", [x for x, _ in keep], [y for _, y in keep])
    return FigureResult(
        figure=4,
        curves=[trimmed],
        metadata={
            "figure": 4, "lambda": 2.5, "mu1": 5.0, "mu2": 1.0, "q": 0.1,
            "c1": 1.0, "c2": 20.0, "s0": 0.0, "alpha": COST_ALPHA,
            "s1_grid": "0.1..1.0 step 0.01 (fractions of top speed)",
            "assumptions": ["power exponent alpha=2 recovered from the published curve"],
        },
    )


def _figure5_point(lam: float) -> tuple[float, float, float]:
    service = CoxianService(5.0, 1.0, 0.1)
    costs = CostCoefficients(1.0, 20.0)
    m1 = SingleServerModel(lam, service, SpeedProfile((0.0, 1.0), alpha=COST_ALPHA))
    c1 = evaluate_cost_single(solve_k1_closed_form(m1), costs)
    base2 = SingleServerModel(lam, service, SpeedProfile((0.0, 0.5, 1.0), alpha=COST_ALPHA))
    _, c2cost, _ = optimize_intermediate_speeds(base2, 2, costs)
    base3 = SingleServerModel(lam, service, SpeedProfile((0.0, 0.5, 0.75, 1.0), alpha=COST_ALPHA))
    _, c3cost, _ = optimize_intermediate_speeds(base3, 3, costs)
    return c1, c2cost, min(c3cost, c2cost)  # the K=2 optimum embeds as s2 = top


def _figure5() -> FigureResult:
    xs = _grid(0.6, 3.0, 0.2)
    points = [_figure5_point(lam) for lam in xs]
    unopt = [p[0] for p in points]
    k2 = [p[1] for p in points]
    k3 = [p[2] for p in points]
    return FigureResult(
        figure=5,
        curves=[PolicyCurve("Unoptimized", xs, unopt),
                PolicyCurve("Optimized K=2", xs, k2),
                PolicyCurve("Optimized K=3", xs, k3)],
        metadata={
            "figure": 5, "mu1": 5.0, "mu2": 1.0, "q": 0.1, "c1": 1.0, "c2": 20.0,
            "s0": 0.0, "alpha": COST_ALPHA, "lambda_grid": xs,
            "assumptions": ["power exponent alpha=2 recovered from the published curve",
                            "lambda grid 0.6..3.0 step 0.2 inferred from plot geometry"],
        },
    )


def _three_phase_point(params, lam, seed, jobs) -> tuple[float, float]:
    tp = ThreePhaseModel(lam=lam, **params)
    est = simulate(SimConfig(model=tp, jobs=jobs, warmup_jobs=jobs // 20, seed=seed))
    return est.L, solve_k1_closed_form(two_phase_approximation(tp)).L


def _three_phase_figure(figure: int, params: dict, grid: list[float], seed: int,
                        jobs: int) -> FigureResult:
    # the points are independent and each one's simulation is a compiled call
    # that releases the GIL, so they run on a thread per CPU; each keeps its
    # seed.  Each call also runs its replications on a thread per CPU, but
    # only the pool overlaps one point's table and estimate, in Python, with
    # another's chain: without it both figures took 6-9% longer on 2 CPUs
    with ThreadPoolExecutor(max_workers=min(_kernels.cpus(), len(grid))) as pool:
        points = list(pool.map(_three_phase_point, [params] * len(grid), grid,
                               [seed + k for k in range(len(grid))], [jobs] * len(grid)))
    sim_ys = [p[0] for p in points]
    approx_ys = [p[1] for p in points]
    return FigureResult(
        figure=figure,
        curves=[PolicyCurve("Approximation", grid, approx_ys),
                PolicyCurve("Simulation", grid, sim_ys)],
        metadata={
            "figure": figure, **params, "lambda_grid": grid, "seed": seed, "jobs": jobs,
            "assumptions": ["per-point seed = base seed + point index"],
        },
    )


def _figure8() -> FigureResult:
    model = MultiServerModel(5.0, 1.0, 0.2, 0.1, 10)
    curves = [_threshold_cost_curve(model, CostCoefficients(1.0, c2), f"c2={c2:g}")
              for c2 in (0.5, 1.0, 1.5)]
    return FigureResult(
        figure=8,
        curves=curves,
        metadata={"figure": 8, "m": 10, "lambda": 5.0, "mu1": 1.0, "mu2": 0.2,
                  "q": 0.1, "c1": 1.0, "threshold_grid": list(range(10))},
    )


def reproduce_figure(figure: int, seed: int = DEFAULT_SEED,
                     sim_jobs: int = 1_000_000) -> FigureResult:
    """Regenerate the data behind one of the published experiment figures.

    Each point of the simulated figures 6 and 7 carries its own seed, the
    base seed plus its grid index, and the points are simulated on a thread
    per CPU that the process may use, which leaves every estimate as it is
    on one thread.
    """
    if figure == 3:
        return _figure3()
    if figure == 4:
        return _figure4()
    if figure == 5:
        return _figure5()
    if figure == 6:
        return _three_phase_figure(
            6, dict(mu1=5.0, mu2=1.0, mu3=0.5, q1=0.1, q2=0.5),
            _grid(1.4, 2.3, 0.1), seed, sim_jobs)
    if figure == 7:
        return _three_phase_figure(
            7, dict(mu1=5.0, mu2=3.0, mu3=3.0, q1=0.6, q2=0.8),
            _grid(0.7, 1.6, 0.1), seed, sim_jobs)
    if figure == 8:
        return _figure8()
    raise ModelError(f"no figure {figure}; choose from 3..8")
