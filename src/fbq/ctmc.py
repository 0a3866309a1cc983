"""Truncated-CTMC reference solver.

Builds the exact transition rates of the two-queue chain on a finite
rectangle of states, solves the stationary equations with a sparse direct
factorisation, and reports the same summary metrics as the analytic solvers.
The truncation is enlarged geometrically until the probability mass sitting
on the outer edge is negligible, so the result is an independent numerical
oracle for the generating-function solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
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


def _stationary(rows, cols, rates, nstates) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    rates = np.asarray(rates, dtype=np.float64)
    diag = np.bincount(rows, weights=rates, minlength=nstates)
    # assemble Q^T with the diagonal, then swap the last balance equation
    # for the normalisation row
    ar = np.concatenate([cols, np.arange(nstates)])
    ac = np.concatenate([rows, np.arange(nstates)])
    av = np.concatenate([rates, -diag])
    keep = ar != nstates - 1
    ar = np.concatenate([ar[keep], np.full(nstates, nstates - 1)])
    ac = np.concatenate([ac[keep], np.arange(nstates)])
    av = np.concatenate([av[keep], np.ones(nstates)])
    a = sp.coo_matrix((av, (ar, ac)), shape=(nstates, nstates)).tocsc()
    b = np.zeros(nstates)
    b[nstates - 1] = 1.0
    pi = spla.spsolve(a, b)
    # tiny negative entries are factorisation noise
    floor = pi.min()
    if floor < -1e-9:
        raise SolverError(f"stationary solve produced probability {floor:.3e}")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _solve_rectangle(build_rates, n):
    """Run the generator builder on an (n+1) x (n+1) rectangle and solve."""
    nstates = (n + 1) * (n + 1)
    rows, cols, rates = build_rates(n)
    pi = _stationary(rows, cols, rates, nstates)
    grid = pi.reshape((n + 1, n + 1))  # grid[i, j]
    edge = grid[n, :].sum() + grid[:, n].sum() - grid[n, n]
    return grid, edge


def _grow(build_rates, start_n=START_N, max_n=MAX_N, tail_tol=TAIL_TOL):
    n = start_n
    while True:
        grid, edge = _solve_rectangle(build_rates, n)
        if edge < tail_tol:
            return grid, edge, n
        if n >= max_n:
            raise SolverError(
                f"truncation cap {max_n} reached with edge mass {edge:.3e} > {tail_tol:.0e}"
            )
        n *= 2


def ctmc_solve_single(model: SingleServerModel, start_n: int = START_N,
                      max_n: int = MAX_N, tail_tol: float = TAIL_TOL) -> CtmcSolution:
    """Stationary metrics of the speed-modulated single-server chain."""
    require_stable_single(model)
    lam, q, K = model.lam, model.q, model.K

    def build(n):
        rows, cols, rates = [], [], []

        def add(i, j, i2, j2, rate):
            if rate <= 0.0 or not (0 <= i2 <= n and 0 <= j2 <= n):
                return
            rows.append(i * (n + 1) + j)
            cols.append(i2 * (n + 1) + j2)
            rates.append(rate)

        for i in range(n + 1):
            for j in range(n + 1):
                add(i, j, i + 1, j, lam)
                if i > 0:
                    m1 = model.mu1_at(i + j)
                    add(i, j, i - 1, j, m1 * (1.0 - q))
                    add(i, j, i - 1, j + 1, m1 * q)
                elif j > 0:
                    add(i, j, 0, j - 1, model.mu2_at(j))
        return rows, cols, rates

    grid, edge, n = _grow(build, start_n, max_n, tail_tol)
    ii = np.arange(n + 1)
    L1 = float((grid.sum(axis=1) * ii).sum())
    L2 = float((grid.sum(axis=0) * ii).sum())
    p = [float(sum(grid[i, t - i] for i in range(t + 1))) for t in range(K)]
    boundary = {(i, j): float(grid[i, j]) for t in range(K + 1) for i in range(t + 1) for j in [t - i]}
    g0_at_1 = float(grid[0, K:].sum())
    energy = sum(p[t] * model.speeds.power(t) for t in range(K))
    energy += model.speeds.power(K) * (1.0 - sum(p))
    return CtmcSolution(
        L1=L1, L2=L2, L=L1 + L2, p=p, tail_mass=1.0 - sum(p), boundary=boundary,
        truncation=(n, n), edge_mass=edge, g0_at_1=g0_at_1, energy_rate=float(energy),
    )


def ctmc_solve_multi(model: MultiServerModel, start_n: int = START_N,
                     max_n: int = MAX_N, tail_tol: float = TAIL_TOL) -> CtmcSolution:
    """Stationary metrics of the m-server chain under the switch-off threshold.

    Servers run exactly when the total job count exceeds the threshold; states
    below the threshold diagonal are transient and pick up zero mass.
    """
    require_stable_multi(model)
    lam, q, m, thr = model.lam, model.q, model.m, model.threshold

    def build(n):
        rows, cols, rates = [], [], []

        def add(i, j, i2, j2, rate):
            if rate <= 0.0 or not (0 <= i2 <= n and 0 <= j2 <= n):
                return
            rows.append(i * (n + 1) + j)
            cols.append(i2 * (n + 1) + j2)
            rates.append(rate)

        for i in range(n + 1):
            for j in range(n + 1):
                add(i, j, i + 1, j, lam)
                if i + j <= thr:
                    continue  # servers switched off
                fg = min(i, m) * model.mu1
                if i > 0:
                    add(i, j, i - 1, j, fg * (1.0 - q))
                    add(i, j, i - 1, j + 1, fg * q)
                bg = min(j, max(m - i, 0)) * model.mu2
                if j > 0:
                    add(i, j, i, j - 1, bg)
        return rows, cols, rates

    grid, edge, n = _grow(build, start_n, max_n, tail_tol)
    ii = np.arange(n + 1)
    L1 = float((grid.sum(axis=1) * ii).sum())
    L2 = float((grid.sum(axis=0) * ii).sum())
    p = [float(sum(grid[i, t - i] for i in range(t + 1))) for t in range(m)]
    boundary = {
        (i, j): float(grid[i, j])
        for i in range(m)
        for j in range(max(0, thr - i), m - i)
    }
    diag_mass = sum(float(grid[i, thr - i]) for i in range(thr + 1))
    U = m * (1.0 - diag_mass)
    fg = [float(grid[i, :].sum()) for i in range(min(m + 4, n + 1))]
    return CtmcSolution(
        L1=L1, L2=L2, L=L1 + L2, p=p, tail_mass=1.0 - sum(p), boundary=boundary,
        truncation=(n, n), edge_mass=edge, U=float(U), energy_rate=float(U), fg_marginal=fg,
    )


def ctmc_solve(model, **kwargs) -> CtmcSolution:
    """Dispatch on the model type."""
    if isinstance(model, SingleServerModel):
        return ctmc_solve_single(model, **kwargs)
    if isinstance(model, MultiServerModel):
        return ctmc_solve_multi(model, **kwargs)
    raise TypeError(f"no CTMC builder for {type(model).__name__}")
