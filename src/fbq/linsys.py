"""Small dense linear solves shared by the exact solvers.

A stack of systems is checked, row-scaled, factored and solved in one call
of the compiled `fbq_lu_stack` of `_kernels.c`, which calls the LAPACK getrf
and getrs that `scipy.linalg.lapack` wraps through the pointers
`scipy.linalg.cython_lapack` exports, so each system gets the answer of the
Python loop `_solve_each`, which runs where `fbq._kernels.compiled()` finds
no compiled loops.
"""

from __future__ import annotations

import ctypes
import logging

import numpy as np
from scipy.linalg import lapack

from . import _kernels
from .models import SolverError

log = logging.getLogger("fbq.linsys")

PIVOT_RTOL = 1e-12   # relative pivot threshold declaring the system singular
NEG_PROB_TOL = 1e-9  # solved probabilities below -tol abort; above are clamped
_NOT_FINITE, _ZERO_ROW = 1, 2   # first-pass outcomes of a stack solve


def solve_probability_system(a_rows, b_vec) -> np.ndarray:
    """Row-scaled dense solve whose unknowns are probabilities.

    One system of solve_probability_stack, with the same checks and errors.
    """
    a = np.array(a_rows, dtype=float)
    b = np.array(b_vec, dtype=float)
    return solve_probability_stack(a[None], b[None])[0]


def solve_probability_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-scaled dense solves of a stack of systems a[k] x[k] = b[k].

    a is (B, n, n) and b is (B, n); the solve overwrites float C-contiguous
    ones with the row-scaled systems.  The unknowns are probabilities.  A
    non-finite entry anywhere in the stack raises ValueError, and then a zero
    row SolverError, before any solve; then the first system in stack order
    with a pivot below PIVOT_RTOL raises it (with a condition estimate), and
    then the first with a solved value below -NEG_PROB_TOL; values in
    [-NEG_PROB_TOL, 0) are roundoff and get clamped.  Each system is solved
    by LAPACK getrf/getrs, as scipy's lu_factor/lu_solve do, so a system
    gives the same answer in any stack, on either loop.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    solve = _solve_compiled if _kernels.compiled() else _solve_each
    status, x, pivmin, (singular, below, negatives) = solve(a, b)
    if status == _NOT_FINITE:
        raise ValueError("array must not contain infs or NaNs")
    if status == _ZERO_ROW:
        raise SolverError("degenerate parameter set: zero row in the linear system")
    if singular >= 0:
        raise SolverError(f"singular linear system (pivot {pivmin[singular]:.3e}, cond ~ "
                          f"{_condition_estimate(a[singular]):.3e}); degenerate parameter set")
    if below >= 0:
        raise SolverError(f"solved probability {x[below].min():.3e} is below -{NEG_PROB_TOL:g}; condition "
                          f"estimate of the row-scaled system {_condition_estimate(a[below]):.3e}")
    if negatives:
        log.debug("clamping %d slightly negative probabilities (min %.2e)", negatives, x.min())
        x = np.clip(x, 0.0, None)
    return x


def _solve_each(a: np.ndarray, b: np.ndarray):
    """The compiled loop in Python, one f2py getrf and getrs call per system:
    (status, x, pivmin, (singular, below, negatives)), where status is 0,
    _NOT_FINITE or _ZERO_ROW from a first pass over the stack, pivmin holds
    each system's smallest |pivot|, singular and below are the first system
    with a pivot below PIVOT_RTOL and with a value below -NEG_PROB_TOL (-1 if
    none) and negatives counts the negative values."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return _NOT_FINITE, None, None, (-1, -1, 0)
    scale = np.abs(a).max(axis=2)
    if (scale == 0).any():
        return _ZERO_ROW, None, None, (-1, -1, 0)
    a /= scale[..., None]          # every row now has max |a_ij| = 1
    b /= scale
    x = np.empty_like(b)
    pivmin = np.empty(len(a))
    for k in range(len(a)):
        lu, piv, _ = lapack.dgetrf(a[k])
        pivmin[k] = np.abs(lu.diagonal()).min()
        x[k] = lapack.dgetrs(lu, piv, b[k])[0]
    singular = np.flatnonzero(pivmin < PIVOT_RTOL)
    below = np.flatnonzero((x < -NEG_PROB_TOL).any(axis=1))
    return 0, x, pivmin, (singular[0] if singular.size else -1, below[0] if below.size else -1,
                          int((x < 0).sum()))


def _solve_compiled(a: np.ndarray, b: np.ndarray):
    """`_solve_each` in one call of the compiled `fbq_lu_stack`; a and b are
    C-contiguous float arrays, scaled in place."""
    count, n = b.shape
    if a.shape != (count, n, n):
        raise ValueError(f"a stack of shape {a.shape} does not match right-hand sides {b.shape}")
    x, pivmin, summary = np.empty((count, n)), np.empty(count), np.empty(3, dtype=np.int64)
    lu, ipiv = np.empty(n * n), np.empty(n, dtype=np.intc)   # scratch
    # from_buffer views keep their arrays alive and pass as pointers
    dbl = ctypes.c_double.from_buffer
    status = _kernels.compiled().lu_stack(count, n, PIVOT_RTOL, NEG_PROB_TOL, dbl(a), dbl(b),
                                          dbl(lu), ctypes.c_int.from_buffer(ipiv), dbl(x),
                                          dbl(pivmin), ctypes.c_int64.from_buffer(summary))
    return status, x, pivmin, summary.tolist()


def _condition_estimate(a: np.ndarray) -> float:
    """LAPACK's estimate (getrf + gecon) of the infinity-norm condition number
    of a, which it overwrites: a.T is factored in place, and
    cond_1(a.T) = cond_inf(a)."""
    anorm = np.abs(a).sum(axis=1).max()
    lu, _, _ = lapack.dgetrf(a.T, overwrite_a=1)
    rcond, _ = lapack.dgecon(lu, anorm, norm="1")
    return 1.0 / rcond if rcond > 0 else float("inf")
