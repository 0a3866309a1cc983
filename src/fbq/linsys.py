"""Small dense linear solves shared by the exact solvers."""

from __future__ import annotations

import logging

import numpy as np
from scipy.linalg import lapack

from .models import SolverError

log = logging.getLogger("fbq.linsys")

PIVOT_RTOL = 1e-12   # relative pivot threshold declaring the system singular
NEG_PROB_TOL = 1e-9  # solved probabilities below -tol abort; above are clamped


def solve_probability_system(a_rows, b_vec) -> np.ndarray:
    """Row-scaled dense solve whose unknowns are probabilities.

    One system of solve_probability_stack, with the same checks and errors.
    """
    a = np.array(a_rows, dtype=float)
    b = np.array(b_vec, dtype=float)
    return solve_probability_stack(a[None], b[None])[0]


def solve_probability_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-scaled dense solves of a stack of systems a[k] x[k] = b[k].

    a is (B, n, n) and b is (B, n), float arrays that the solve overwrites
    with the row-scaled systems; the unknowns are probabilities.  Every
    system is checked on its own, and the first failing one in stack order
    names the error: a zero row or a pivot below PIVOT_RTOL raises SolverError
    (with a condition estimate), and so does a solved value below
    -NEG_PROB_TOL; values in [-NEG_PROB_TOL, 0) are roundoff and get clamped.
    Each system is LU-factored by LAPACK getrf/getrs, as scipy's
    lu_factor/lu_solve do, so a system gives the same answer in any stack.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    scale = np.maximum(a.max(axis=2), -a.min(axis=2))
    if (scale == 0).any():
        raise SolverError("degenerate parameter set: zero row in the linear system")
    a /= scale[..., None]          # every row now has max |a_ij| = 1
    b /= scale
    x = np.empty_like(b)
    pivots = np.empty_like(b)
    for k in range(len(a)):
        lu, piv, _ = lapack.dgetrf(a[k])
        pivots[k] = lu.diagonal()
        x[k] = lapack.dgetrs(lu, piv, b[k])[0]
    pivmin = np.abs(pivots).min(axis=1)
    singular = pivmin < PIVOT_RTOL
    if singular.any():
        k = np.flatnonzero(singular)[0]
        raise SolverError(
            f"singular linear system (pivot {pivmin[k]:.3e}, cond ~ {_condition_estimate(a[k]):.3e}); "
            "degenerate parameter set"
        )
    bad = x < -NEG_PROB_TOL
    if bad.any():
        k = np.flatnonzero(bad.any(axis=1))[0]
        raise SolverError(
            f"solved probability {x[k].min():.3e} is below -{NEG_PROB_TOL:g}; condition "
            f"estimate of the row-scaled system {_condition_estimate(a[k]):.3e}"
        )
    if (x < 0).any():
        log.debug("clamping %d slightly negative probabilities (min %.2e)", int((x < 0).sum()), x.min())
        x = np.clip(x, 0.0, None)
    return x


def _condition_estimate(a: np.ndarray) -> float:
    """LAPACK's estimate (getrf + gecon) of the infinity-norm condition number
    of a, which it overwrites: a.T is factored in place, and
    cond_1(a.T) = cond_inf(a)."""
    anorm = max(np.abs(row).sum() for row in a)
    lu, _, _ = lapack.dgetrf(a.T, overwrite_a=1)
    rcond, _ = lapack.dgecon(lu, anorm, norm="1")
    return 1.0 / rcond if rcond > 0 else float("inf")
