"""Truncated-CTMC reference solver.

Builds the exact transition rates of the two-queue chain on the rectangle of
states (i, j), 0 <= i, j <= n, with i foreground and j background jobs, by
index arithmetic over the whole grid.  Arrivals at i = n are blocked.  A
foreground completion that would feed the background queue past j = n stays
on that edge instead, so the edge states keep every service exit and the
truncated chain has a single recurrent class.

The stationary equations are solved with one sparse direct factorisation.
The probability of a state that is recurrent for every parameter set is
fixed to 1 and its balance equation dropped; the balance equations of the
states it reaches are solved and the vector is normalised afterwards
(Stewart, *Introduction to the Numerical Solution of Markov Chains*, 1994,
ch. 2).  The rectangle is doubled until the probability mass on its outer
edge is negligible, so the result is an independent numerical oracle for
the generating-function solutions.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .models import (
    MultiServerModel,
    SingleServerModel,
    SolverError,
    require_stable_multi,
    require_stable_single,
)

TAIL_TOL = 1e-10
START_N = 64
MAX_N = 2048

log = logging.getLogger("fbq.ctmc")


@dataclass
class CtmcSolution:
    """Stationary summary of the truncated chain."""

    L1: float
    L2: float
    L: float
    p: list[float]          # total-count marginal below the modulation level
    tail_mass: float
    boundary: dict          # (i, j) -> probability on the solver's unknown set
    truncation: tuple[int, int]
    edge_mass: float
    g0_at_1: float = 0.0    # single server: foreground empty, saturated region
    energy_rate: float = 0.0
    U: float = 0.0          # multiserver: mean count of operative servers
    fg_marginal: list[float] | None = None  # multiserver: P(foreground = i), i <= m


def _transitions(n, lam, q, fg, bg):
    """Generator entries (from, to, rate) on the (n+1) x (n+1) grid.

    `fg[i, j]` and `bg[i, j]` are the foreground and background completion
    rates in state (i, j), zero where that class is not served.  A foreground
    completion leaves with probability 1 - q and joins the background queue
    with probability q; on the edge j = n it joins as (i - 1, n).
    """
    i, j = np.indices((n + 1, n + 1))
    src = i * (n + 1) + j
    moves = (
        (i < n, src + (n + 1), np.full(src.shape, float(lam))),
        (i > 0, src - (n + 1), fg * (1.0 - q)),
        (i > 0, src - (n + 1) + (j < n), fg * q),
        (j > 0, src - 1, bg),
    )
    rows, cols, rates = [], [], []
    for allowed, dst, rate in moves:
        keep = allowed & (rate > 0.0)
        rows.append(src[keep])
        cols.append(dst[keep])
        rates.append(rate[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(rates)


def _single_rates(model: SingleServerModel, n):
    """Generator entries of the single server: the foreground is served
    first, and both classes at speed s_min(i+j, K)."""
    i, j = np.indices((n + 1, n + 1))
    speed = np.asarray(model.speeds.levels)[np.minimum(i + j, model.K)]
    fg = np.where(i > 0, model.service.nu1 * speed, 0.0)
    bg = np.where(i == 0, model.service.nu2 * speed, 0.0)
    return _transitions(n, model.lam, model.q, fg, bg)


def _pool_rates(model: MultiServerModel, n):
    """Generator entries of the m-server pool: servers run only above the
    threshold, foreground jobs take up to m of them and background jobs the
    rest."""
    i, j = np.indices((n + 1, n + 1))
    on = i + j > model.threshold
    fg = np.where(on, np.minimum(i, model.m) * model.mu1, 0.0)
    bg = np.where(on, np.minimum(j, np.maximum(model.m - i, 0)) * model.mu2, 0.0)
    return _transitions(n, model.lam, model.q, fg, bg)


def _stationary(rows, cols, rates, n, fixed) -> np.ndarray:
    """Stationary vector of the chain on the (n+1)^2 grid, summing to 1.

    `fixed` is the flat index of a recurrent state.  Its probability is set
    to 1 and its balance equation dropped; the balance equations of the
    other states reachable from it are solved with SuperLU and the vector is
    then normalised.  States that `fixed` does not reach get probability
    zero: they are transient, or they form a closed class the model's
    convention leaves empty.  A reducible or otherwise singular system
    raises SolverError instead of returning NaN.
    """
    nstates = (n + 1) * (n + 1)
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(nstates, nstates))
    live = csgraph.breadth_first_order(graph, fixed, return_predecessors=False)
    unknown = np.sort(live[live != fixed])
    pos = np.full(nstates, -1)
    pos[unknown] = np.arange(unknown.size)
    at_from, at_to = pos[rows], pos[cols]
    inner = (at_from >= 0) & (at_to >= 0)
    diag = np.arange(unknown.size)
    outflow = np.bincount(rows, weights=rates, minlength=nstates)
    # balance of every unknown state: inflow from the other unknowns minus
    # its own outflow equals minus the inflow from the fixed state
    a = sp.csc_matrix(
        (np.concatenate([rates[inner], -outflow[unknown]]),
         (np.concatenate([at_to[inner], diag]), np.concatenate([at_from[inner], diag]))),
        shape=(unknown.size, unknown.size),
    )
    fed = (rows == fixed) & (at_to >= 0)
    b = -np.bincount(at_to[fed], weights=rates[fed], minlength=unknown.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            x = spla.spsolve(a, b, "MMD_AT_PLUS_A")  # fill-reducing order of A + A^T
        except spla.MatrixRankWarning:
            raise SolverError(
                f"stationary equations are singular at n = {n}: the truncated chain is reducible"
            ) from None
    pi = np.zeros(nstates)
    pi[unknown] = x
    pi[fixed] = 1.0
    total = pi.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise SolverError(f"stationary solve at n = {n} produced total probability {total:.3e}")
    pi /= total
    # tiny negative entries are factorisation noise
    floor = pi.min()
    if floor < -1e-9:
        raise SolverError(f"stationary solve at n = {n} produced probability {floor:.3e}")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _grow(build_rates, fixed, max_n):
    """Solve the rectangles n = START_N, 2 START_N, ... until the edge mass
    is below TAIL_TOL and return the probabilities grid[i, j], the edge mass
    and n.  Every solve is finite or raises, so a failing chain stops at the
    first size rather than doubling up to `max_n`."""
    i, j = fixed
    n = START_N
    while True:
        t0 = time.perf_counter()
        grid = _stationary(*build_rates(n), n, i * (n + 1) + j).reshape((n + 1, n + 1))
        edge = grid[n, :].sum() + grid[:, n].sum() - grid[n, n]
        log.debug("n = %d: %d states, edge mass %.3e, %.3f s",
                  n, (n + 1) * (n + 1), edge, time.perf_counter() - t0)
        if edge < TAIL_TOL:
            return grid, edge, n
        if n >= max_n:
            raise SolverError(f"truncation cap {max_n} reached with edge mass {edge:.3e} "
                              f"> {TAIL_TOL:.0e}")
        n *= 2


def _single_fields(model: SingleServerModel, grid, p) -> dict:
    """The boundary states i + j <= K, g0(1) and the energy rate."""
    K = model.K
    energy = sum(p[t] * model.speeds.power(t) for t in range(K))
    energy += model.speeds.power(K) * (1.0 - sum(p))
    boundary = {(i, t - i): float(grid[i, t - i]) for t in range(K + 1) for i in range(t + 1)}
    return dict(boundary=boundary, g0_at_1=float(grid[0, K:].sum()), energy_rate=float(energy))


def _pool_fields(model: MultiServerModel, grid, p) -> dict:
    """The boundary states, the operative servers U and the foreground marginal."""
    m, thr = model.m, model.threshold
    boundary = {(i, j): float(grid[i, j]) for i in range(m) for j in range(max(0, thr - i), m - i)}
    U = float(m * (1.0 - sum(float(grid[i, thr - i]) for i in range(thr + 1))))
    fg = [float(grid[i, :].sum()) for i in range(min(m + 4, len(grid)))]
    return dict(boundary=boundary, U=U, energy_rate=U, fg_marginal=fg)


def ctmc_solve(model, max_n: int = MAX_N) -> CtmcSolution:
    """Stationary metrics of a single server or a pool from the grown rectangle.

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
        rates, fixed, levels, fields = _single_rates, (0, k - 1), model.K, _single_fields
    elif isinstance(model, MultiServerModel):
        require_stable_multi(model)
        rates, fixed, levels, fields = _pool_rates, (model.threshold, 0), model.m, _pool_fields
    else:
        raise TypeError(f"no CTMC builder for {type(model).__name__}")
    grid, edge, n = _grow(lambda n: rates(model, n), fixed, max_n)
    L1, L2 = (float((grid.sum(axis=axis) * np.arange(n + 1)).sum()) for axis in (1, 0))
    p = [float(sum(grid[i, t - i] for i in range(t + 1))) for t in range(levels)]
    return CtmcSolution(L1=L1, L2=L2, L=L1 + L2, p=p, tail_mass=1.0 - sum(p),
                        truncation=(n, n), edge_mass=edge, **fields(model, grid, p))
