"""Small dense linear solves shared by the exact solvers.

A stack of systems is factored and solved in one call of the compiled
`fbq_lu_stack` of `_kernels.c` (built on first use, see `fbq._kernels`),
which calls the LAPACK getrf and getrs that `scipy.linalg.lapack` wraps
through the function pointers `scipy.linalg.cython_lapack` exports, so each
system gets the same answer as in the Python loop `_solve_each`.  Where the
library cannot be built or loaded, `_solve_each` runs.
"""

from __future__ import annotations

import ctypes
import functools
import logging

import numpy as np
from scipy.linalg import cython_lapack, lapack

from . import _kernels
from .models import SolverError

log = logging.getLogger("fbq.linsys")
kernel_log = logging.getLogger("fbq.linsys.kernel")

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
    system is checked on its own.  A zero row anywhere in the stack raises
    SolverError before any solve; otherwise the first system in stack order
    with a pivot below PIVOT_RTOL raises it (with a condition estimate), and
    then the first with a solved value below -NEG_PROB_TOL; values in
    [-NEG_PROB_TOL, 0) are roundoff and get clamped.  Each system is
    LU-factored and solved by LAPACK getrf/getrs, as scipy's
    lu_factor/lu_solve do, so a system gives the same answer in any stack.
    The whole stack goes through one call of the compiled loop, or through
    `_solve_each` without it, with equal results.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    scale = np.abs(a).max(axis=2)
    if (scale == 0).any():
        raise SolverError("degenerate parameter set: zero row in the linear system")
    a /= scale[..., None]          # every row now has max |a_ij| = 1
    b /= scale
    x, pivots = (_kernel() or _solve_each)(a, b)
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


def _solve_each(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The solutions of the systems a[k] x[k] = b[k] and the diagonals of
    their LU factors, one f2py getrf and getrs call per system: the
    reference for the compiled loop."""
    x = np.empty_like(b)
    pivots = np.empty_like(b)
    for k in range(len(a)):
        lu, piv, _ = lapack.dgetrf(a[k])
        pivots[k] = lu.diagonal()
        x[k] = lapack.dgetrs(lu, piv, b[k])[0]
    return x, pivots


def _solve_compiled(lu_stack, getrf, getrs, a: np.ndarray,
                    b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_solve_each` in one call of the compiled `fbq_lu_stack`."""
    count, n = b.shape
    if a.shape != (count, n, n):
        raise ValueError(f"a stack of shape {a.shape} does not match right-hand sides {b.shape}")
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    x, pivots = np.empty((count, n)), np.empty((count, n))
    lu, ipiv = np.empty(n * n), np.empty(n, dtype=np.intc)   # scratch
    # from_buffer views keep their arrays alive and pass as pointers
    dbl = ctypes.c_double.from_buffer
    lu_stack(getrf, getrs, count, n, dbl(a), dbl(b), dbl(lu), ctypes.c_int.from_buffer(ipiv),
             dbl(x), dbl(pivots))
    return x, pivots


@functools.cache
def _kernel():
    """`_solve_compiled` bound to the compiled loop and to LAPACK's dgetrf
    and dgetrs, read from the capsules of `scipy.linalg.cython_lapack`, or
    None when the loop cannot be built or loaded here; then the stack solves
    run `_solve_each`, and one debug line names the cause."""
    try:
        lu_stack = _kernels.load("fbq_lu_stack")
    except OSError as exc:
        kernel_log.debug("compiled LU loop unavailable, solving in Python: %s", exc)
        return None
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    getrf, getrs = (capsule_pointer(c, capsule_name(c))
                    for c in (cython_lapack.__pyx_capi__[name] for name in ("dgetrf", "dgetrs")))
    ptr, dbl = ctypes.c_void_p, ctypes.POINTER(ctypes.c_double)
    lu_stack.argtypes = [ptr, ptr, ctypes.c_int64, ctypes.c_int, dbl, dbl, dbl,
                         ctypes.POINTER(ctypes.c_int), dbl, dbl]
    lu_stack.restype = None
    return functools.partial(_solve_compiled, lu_stack, getrf, getrs)


def _condition_estimate(a: np.ndarray) -> float:
    """LAPACK's estimate (getrf + gecon) of the infinity-norm condition number
    of a, which it overwrites: a.T is factored in place, and
    cond_1(a.T) = cond_inf(a)."""
    anorm = np.abs(a).sum(axis=1).max()
    lu, _, _ = lapack.dgetrf(a.T, overwrite_a=1)
    rcond, _ = lapack.dgecon(lu, anorm, norm="1")
    return 1.0 / rcond if rcond > 0 else float("inf")
