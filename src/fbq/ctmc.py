"""Truncated-CTMC reference solver.

Builds the exact transition rates of the two-queue chain on the rectangle of
states (i, j), 0 <= i <= n1, 0 <= j <= n2, with i foreground and j
background jobs, from the model's `rates` on its index arrays.  Arrivals at
i = n1 are blocked.  A foreground completion that would feed the background
queue past j = n2 stays on that edge instead, so the edge states keep every
service exit and the truncated chain has a single recurrent class.

The stationary equations are solved with one direct factorisation.  The
probability of a state that is recurrent for every parameter set is fixed to
1 and its balance equation dropped; the balance equations of the states it
reaches are solved and the vector is normalised afterwards (Stewart,
*Introduction to the Numerical Solution of Markov Chains*, 1994, ch. 2).
Numbered along the short axis first, those equations are a column
diagonally dominant band matrix whose half-width is the short axis + 1, and
LAPACK's band LU factors it; rectangles whose short axis has more than
BAND_MAX levels go to SuperLU, which is faster there.  Every rectangle is
assembled by one call of the compiled loop `fbq_ctmc_rectangle`: from the
rate grids it finds the reachable states, numbers them and writes their
balance equations once, as CSC.  A band rectangle's columns it copies into
LAPACK's band layout and solves in the same call, by the dgbsv of scipy's
LAPACK; SuperLU solves the others from the CSC; lam = 0 leaves no unknown
and nothing to solve.  Every rectangle's solution, from either solver, is
scattered into the grid of states, normalised and summed into its
marginals by `_finish`.

Each axis is sized to its own tail.  Above the modulation level the cut
equations between foreground levels make the foreground marginal exactly
geometric, with ratio lam / (m mu1) in a pool and lam / (nu1 s_K) for a
single server, so n1 has a closed form.  The background axis is the long
one: it starts at START_N2 levels and grows by the decay ratio of its
marginal.  A rectangle is accepted only when the mass on each axis's edge is
below TAIL_TOL, so the result is an independent numerical oracle for the
generating-function solutions.
"""

from __future__ import annotations

import ctypes
import logging
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels
from .models import (
    FrozenDict,
    MultiServerModel,
    SingleServerModel,
    SolverError,
    require_stable_multi,
    require_stable_single,
)

TAIL_TOL = 1e-13        # bound on each axis's edge mass
START_N2 = 16           # first background size, raised to the modulation level + 1
FLAT_RATIO = 0.97       # background decay ratios above this double the axis
PROBE_DEPTH = 4         # levels between the background edge and its ratio probes
MAX_STEP = 4            # largest growth factor of the background axis per solve
MAX_N = 2048
BAND_MAX = 64           # widest short axis, in levels, solved by the band LU

log = logging.getLogger("fbq.ctmc")


@dataclass(frozen=True)
class CtmcSolution:
    """Stationary summary of the truncated chain."""

    L1: float
    L2: float
    L: float
    p: tuple[float, ...]    # total-count marginal below the modulation level
    tail_mass: float
    boundary: FrozenDict    # (i, j) -> probability on the solver's unknown set
    truncation: tuple[int, int]
    edge_mass: float        # the larger of the two axes' edge masses
    g0_at_1: float = 0.0    # single server: foreground empty, saturated region
    energy_rate: float = 0.0
    U: float = 0.0          # multiserver: mean count of operative servers
    fg_marginal: tuple[float, ...] | None = None  # multiserver: P(foreground = i), i <= m


def _rates(model, n1, n2):
    """The model's chain on the rectangle (n1, n2): lam, q and the
    foreground and background completion rates on its grid of states."""
    _, fg, bg = model.rates(*np.indices((n1 + 1, n2 + 1)))
    return model.lam, model.q, fg, bg


# outcomes of fbq_ctmc_rectangle besides a solution (0): a zero pivot and
# no memory for the work space
_SINGULAR, _NO_MEMORY = 1, 2


def _rectangle(lam, q, fg, bg, fixed, band):
    """One call of the compiled `fbq_ctmc_rectangle` on the chain (lam, q,
    fg, bg) with the state `fixed` set to 1: it finds the states that
    `fixed` reaches, numbers them along the short axis first and writes
    their balance equations as CSC, and with `band` solves them by LAPACK's
    dgbsv.  Returns whether dgbsv met a zero pivot, the unknowns' states in
    numbering order, and then with `band` the solution and the band's
    (kl, ku), without it the right-hand side and the CSC matrix."""
    fg, bg = np.ascontiguousarray(fg, dtype=float), np.ascontiguousarray(bg, dtype=float)
    if fg.shape != bg.shape:   # the loop reads both over the whole grid
        raise ValueError(f"rate grids of shapes {fg.shape} and {bg.shape}")
    states = fg.size
    # n, kl and ku, the unknowns' states, the column pointers and the rows
    # of at most 5 entries a column; the right-hand side and the entries
    index, value = np.empty(7 * states + 4, np.int64), np.empty(6 * states)
    # from_buffer views keep their arrays alive and pass as pointers
    dbl = ctypes.c_double.from_buffer
    status = _kernels.compiled().ctmc_rectangle(
        _kernels.dgbsv() if band else None, fg.shape[0] - 1, fg.shape[1] - 1, lam, q, dbl(fg), dbl(bg),
        fixed, ctypes.c_int64.from_buffer(index), dbl(value))
    if status == _NO_MEMORY:
        raise MemoryError(f"no work space for the system of {states} states")
    n, kl, ku = index[:3].tolist()
    order, b = index[3:3 + n], value[:n]
    if band:
        return status == _SINGULAR, order, b, (kl, ku)
    colptr = index[3 + states:4 + states + n]
    rows = index[4 + 2 * states:][:colptr[-1]]
    return False, order, b, sp.csc_matrix((value[states:][:rows.size], rows, colptr), shape=(n, n))


def _truncation(shape):
    return f"truncation ({shape[0] - 1}, {shape[1] - 1})"


def _finish(pi, shape):
    """`_stationary`'s normalisation of the flat solution `pi`, 1 at the
    fixed state, of every rectangle, band or SuperLU: the grid of `shape`
    and its foreground and background marginals.  A total probability that
    is not finite and positive, or a probability below -1e-9, raises
    SolverError."""
    total = pi.sum()
    if not (math.isfinite(total) and total > 0.0):
        raise SolverError(f"stationary solve at {_truncation(shape)} produced total probability "
                          f"{total:.3e}")
    pi /= total
    # tiny negative entries are factorisation noise; np.maximum is what
    # np.clip(pi, 0.0, None) calls, here without a copy
    floor = pi.min()
    if floor < -1e-9:
        raise SolverError(f"stationary solve at {_truncation(shape)} produced probability {floor:.3e}")
    np.maximum(pi, 0.0, out=pi)
    pi /= pi.sum()
    grid = pi.reshape(shape)
    return grid, (grid.sum(axis=1), grid.sum(axis=0))


def _stationary(lam, q, fg, bg, fixed) -> tuple[np.ndarray, tuple, str]:
    """Stationary vector of the chain (lam, q, fg, bg) on the grid of fg's
    shape, summing to 1, its foreground and background marginals, and the
    factorisation that solved its equations ("band LU ...", "SuperLU ..."
    or "no factorisation" when `fixed` reaches no other state).

    `fixed` is the flat index of a recurrent state.  Its probability is set
    to 1 and its balance equation dropped; the balance equations of the
    other states reachable from it are solved and the vector is then
    normalised.  Numbered along the short axis first, those equations form
    a band matrix of half-width the short axis + 1, which is column
    diagonally dominant, so a band LU factors it without row swaps; a
    rectangle whose short axis has more than BAND_MAX levels is solved with
    SuperLU instead.  Every system is found and assembled by one compiled
    call (`_rectangle`), which solves a band one too; its solution is
    scattered into the grid and `_finish` normalises it.  States that
    `fixed` does not reach get probability zero: they are transient, or
    they form a closed class the model's convention leaves empty.  A
    reducible or otherwise singular system raises SolverError instead of
    returning NaN.
    """
    band = min(fg.shape) <= BAND_MAX
    singular, order, x, system = _rectangle(lam, q, fg, bg, fixed, band)
    if not order.size:
        solver = "no factorisation"
    elif band:
        solver = "band LU kl={} ku={}".format(*system)
    else:
        # fill-reducing order of A + A^T, except when no foreground
        # completion leaves the system below the edge j = n2 (q = 1): on
        # those thin rectangles SuperLU's minimum degree order of A + A^T
        # took 100-300 times as long as COLAMD's column order
        ordering = "MMD_AT_PLUS_A" if (fg[1:, :-1] * (1 - q) > 0).any() else "COLAMD"
        solver = f"SuperLU {ordering}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", spla.MatrixRankWarning)
            try:
                # by position: perfbench's tracer wraps spsolve in a probe of (a, *_)
                x = spla.spsolve(system, x, ordering)
            except spla.MatrixRankWarning:
                singular = True
    if singular:
        raise SolverError(f"stationary equations are singular at {_truncation(fg.shape)}: the truncated "
                          "chain is reducible")
    pi = np.zeros(fg.size)
    pi[order] = x
    pi[fixed] = 1.0
    return (*_finish(pi, fg.shape), solver)


def _foreground_size(base, ratio):
    """Smallest n1 > base with ratio^(n1 - base) < TAIL_TOL.

    From the modulation level `base` up, the cut equations between
    foreground levels i and i + 1 make the truncated chain's foreground
    marginal exactly geometric with this ratio, whatever n2 is, so the mass
    on the edge i = n1 is at most ratio^(n1 - base) (Latouche & Ramaswami
    1999, ch. 6)."""
    if ratio == 0.0:
        return base + 1
    return base + 1 + math.floor(math.log(TAIL_TOL) / math.log(ratio))


def _background_size(marginal, n2, edge):
    """Next background size: `marginal`'s decay ratio read PROBE_DEPTH
    levels inside the edge j = n2, where the mass piled on the edge does not
    reach, extrapolated until the edge mass falls below TAIL_TOL, and at
    least a quarter and at most MAX_STEP times more than n2.  A flat or
    rising marginal doubles n2."""
    inner, outer = marginal[n2 - 2 * PROBE_DEPTH], marginal[n2 - PROBE_DEPTH]
    ratio = (outer / inner) ** (1.0 / PROBE_DEPTH) if inner > 0.0 else 1.0
    if not 0.0 < ratio < FLAT_RATIO:
        return 2 * n2
    steps = math.ceil(math.log(TAIL_TOL / edge) / math.log(ratio))
    return min(max(n2 + steps + PROBE_DEPTH, n2 + n2 // 4), MAX_STEP * n2)


def _grow(model, fixed, n1, n2, max_n):
    """Solve the model's chain on the rectangle (n1 + 1) x (n2 + 1), growing
    each axis whose edge mass is not below TAIL_TOL; return the probabilities
    grid[i, j], their foreground and background marginals and the two edge
    masses.  The foreground axis doubles; the background axis follows its
    marginal's decay (`_background_size`).  Every solve is finite or raises,
    so a failing chain stops at the first size."""
    i, j = fixed
    n1, n2 = min(n1, max_n), min(n2, max_n)
    while True:
        t0 = time.perf_counter()
        grid, (fg_marginal, bg_marginal), solver = _stationary(*_rates(model, n1, n2), i * (n2 + 1) + j)
        edges = (float(fg_marginal[n1]), float(bg_marginal[n2]))
        log.debug("(%d, %d): %d states, edge mass %.3e foreground, %.3e background, %.3f s, %s",
                  n1, n2, grid.size, *edges, time.perf_counter() - t0, solver)
        if max(edges) < TAIL_TOL:
            return grid, (fg_marginal, bg_marginal), edges
        if (edges[0] >= TAIL_TOL and n1 >= max_n) or (edges[1] >= TAIL_TOL and n2 >= max_n):
            raise SolverError(f"truncation cap {max_n} reached with edge mass {max(edges):.3e} "
                              f"> {TAIL_TOL:.0e}")
        if edges[0] >= TAIL_TOL:
            n1 = min(2 * n1, max_n)
        if edges[1] >= TAIL_TOL:
            n2 = min(_background_size(bg_marginal, n2, edges[1]), max_n)


def _single_fields(model: SingleServerModel, grid, fg_marginal, p) -> dict:
    """The boundary states i + j <= K, g0(1) and the energy rate."""
    K = model.K
    energy = sum(p[t] * model.speeds.power(t) for t in range(K))
    energy += model.speeds.power(K) * (1.0 - sum(p))
    boundary = FrozenDict(((i, t - i), float(grid[i, t - i])) for t in range(K + 1) for i in range(t + 1))
    return dict(boundary=boundary, g0_at_1=float(grid[0, K:].sum()), energy_rate=float(energy))


def _pool_fields(model: MultiServerModel, grid, fg_marginal, p) -> dict:
    """The boundary states, the operative servers U = m (1 - p[K]) and the
    foreground marginal up to i = m + 3."""
    m, thr = model.m, model.threshold
    boundary = FrozenDict(((i, j), float(grid[i, j]))
                          for i in range(m) for j in range(max(0, thr - i), m - i))
    U = float(m * (1.0 - p[thr]))
    return dict(boundary=boundary, U=U, energy_rate=U, fg_marginal=tuple(fg_marginal[:m + 4].tolist()))


def _chain(model):
    """The model's fixed state, modulation level (K, or m for a pool),
    fields, and the ratio of its foreground marginal above that level.

    Fixed state of a single server: (0, 0), or (0, k - 1) when s_1 = ... =
    s_(k-1) = 0 < s_k.  Nothing is then served below k jobs, and the states
    with fewer than k - 1 background jobs are left empty (for q = 0 they form
    another closed class; `solve_zero_speed` uses the same convention).
    Fixed state of a pool with threshold K: (K, 0).  The states below the
    threshold diagonal are transient and get zero mass, and so do those with
    background jobs when q = 0.
    """
    if isinstance(model, SingleServerModel):
        require_stable_single(model)
        k = next(t for t, s in enumerate(model.speeds.levels) if t > 0 and s > 0.0)
        return (0, k - 1), model.K, _single_fields, model.lam / model.mu1
    if isinstance(model, MultiServerModel):
        require_stable_multi(model)
        return (model.threshold, 0), model.m, _pool_fields, model.lam / (model.m * model.mu1)
    raise TypeError(f"no CTMC builder for {type(model).__name__}")


def ctmc_solve(model, max_n: int = MAX_N) -> CtmcSolution:
    """Stationary metrics of a single server or a pool from the fitted
    rectangle: the foreground axis starts at its closed-form size and the
    background axis at START_N2 levels, at least one past the modulation
    level, and `_grow` fits the background axis to its tail.  Neither axis
    exceeds `max_n`."""
    fixed, levels, fields, ratio = _chain(model)
    n1, n2 = _foreground_size(levels, ratio), max(START_N2, levels + 1)
    grid, (fg_marginal, bg_marginal), edges = _grow(model, fixed, n1, n2, max_n)
    n1, n2 = grid.shape[0] - 1, grid.shape[1] - 1
    L1 = float(fg_marginal @ np.arange(n1 + 1))
    L2 = float(bg_marginal @ np.arange(n2 + 1))
    p = tuple(float(sum(grid[i, t - i] for i in range(t + 1))) for t in range(levels))
    return CtmcSolution(L1=L1, L2=L2, L=L1 + L2, p=p, tail_mass=1.0 - sum(p),
                        truncation=(n1, n2), edge_mass=max(edges), **fields(model, grid, fg_marginal, p))
