"""Small dense linear solves shared by the exact solvers.

Both solves row-scale copies of their systems and share one set of checks
and errors, raised in `_checked`.

* `solve_probability_stack` solves a stack of small systems, a speed
  family's on the Python path, by Gaussian elimination with partial
  pivoting in lockstep, a tile of systems at a time (`fbq_lu_lockstep`, or
  its numpy reference `_lockstep` where `fbq._kernels.compiled()` finds no
  compiled loops).  Both loops do the same float operations in the same
  order, so a system gets the same bits on either loop, in any stack and at
  any position in it, and on any machine: no BLAS kernel that the CPU
  selects is involved.  The compiled family loop `fbq_speed_family` of
  `fbq.single` runs the same tile core and reports to `_checked` too.
* `solve_probability_system` solves one pool system, up to a few hundred
  unknowns, by one f2py call each of the LAPACK getrf and getrs that
  `scipy.linalg.lapack` wraps (`_lapack`), as scipy's lu_factor/lu_solve
  do, on every machine; LAPACK is faster than a plain loop at those sizes.
"""

from __future__ import annotations

import ctypes
import logging
import math

import numpy as np
from scipy.linalg import lapack

from . import _kernels
from .models import SolverError

log = logging.getLogger("fbq.linsys")

PIVOT_RTOL = 1e-12   # relative pivot threshold declaring the system singular
NEG_PROB_TOL = 1e-9  # solved probabilities below -tol abort; above are clamped
_NOT_FINITE, _ZERO_ROW, _NO_MEMORY = 1, 2, 3   # a loop's statuses other than 0
_NO_SUMMARY = (-1, -1, 0)   # what a loop books for a stack that failed its first pass


def solve_probability_system(a_rows, b_vec) -> np.ndarray:
    """Row-scaled dense solve of one system a x = b whose unknowns are
    probabilities, by LAPACK getrf/getrs; the checks and errors of
    solve_probability_stack."""
    a, b = _stack(np.array(a_rows, dtype=float)[None], np.array(b_vec, dtype=float)[None])
    return _checked(a, *_lapack(a, b))[0]


def solve_probability_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-scaled dense solves of a stack of systems a[k] x[k] = b[k].

    a is (B, n, n) and b is (B, n); the solve leaves them as they are.  Each
    row of a system is divided by its largest |a_ij|.  The unknowns are
    probabilities.  A non-finite entry anywhere in the stack raises
    ValueError, and then a zero row SolverError, before any solve; then the
    first system in stack order with a pivot below PIVOT_RTOL raises it (with
    a condition estimate), and then the first with a solved value below
    -NEG_PROB_TOL; values in [-NEG_PROB_TOL, 0) are roundoff and get clamped.
    The systems are solved in lockstep by Gaussian elimination with partial
    pivoting, so a system gets the same answer in any stack, on either loop.
    """
    a, b = _stack(a, b)
    solve = _lockstep_compiled if _kernels.compiled() else _lockstep
    return _checked(a, *solve(a, b))


def _stack(a, b):
    """a and b as C-contiguous float arrays, once their shapes are checked to
    be (B, n, n) and (B, n): the compiled loop takes them as pointers."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if b.ndim != 2 or a.shape != b.shape + b.shape[-1:]:
        raise ValueError(f"a stack of shape {a.shape} does not match right-hand sides {b.shape}")
    return a, b


def _checked(a, status, x, pivmin, summary):
    """x after the errors that a loop's outcome on the stack a calls for, in
    their order, with roundoff negatives clamped."""
    singular, below, negatives = summary
    if status == _NOT_FINITE:
        raise ValueError("array must not contain infs or NaNs")
    if status == _ZERO_ROW:
        raise SolverError("degenerate parameter set: zero row in the linear system")
    if status == _NO_MEMORY:
        raise MemoryError("no memory for a tile of the lockstep LU loop")
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


def _first_pass(a: np.ndarray, b: np.ndarray):
    """The first pass of both loops over the stack, as `check_stack` in
    `_kernels.c` makes it: (_NOT_FINITE or _ZERO_ROW, None) if it fails, else
    (0, the row scale: each row's largest |a_ij|)."""
    scale = np.abs(a).max(axis=2)   # inf or NaN where a row of a holds one
    # the largest row maximum is not finite if any is, and the least is 0 if any is
    if not (math.isfinite(scale.max(initial=0.0)) and np.isfinite(b).all()):
        return _NOT_FINITE, None
    return (_ZERO_ROW, None) if scale.min(initial=1.0) == 0 else (0, scale)


def _summary(x: np.ndarray, pivmin: np.ndarray):
    """The first system with a pivot below PIVOT_RTOL and the first
    with a value below -NEG_PROB_TOL (-1 if none), and the count of negative
    values."""
    if pivmin.min(initial=PIVOT_RTOL) >= PIVOT_RTOL and x.min(initial=0.0) >= 0:   # the common case
        return -1, -1, 0
    singular = np.flatnonzero(pivmin < PIVOT_RTOL)
    below = np.flatnonzero((x < -NEG_PROB_TOL).any(axis=1))
    return (singular[0] if singular.size else -1, below[0] if below.size else -1,
            int((x < 0).sum()))


def _lockstep(a: np.ndarray, b: np.ndarray):
    """The compiled `fbq_lu_lockstep` in numpy, over the whole stack at once:
    (status, x, pivmin, summary) as `_summary` gives it, where status is 0,
    _NOT_FINITE or _ZERO_ROW and pivmin holds each system's smallest |pivot|.
    For each column j the pivot is the first largest |t_rj|, r >= j, rows r
    and j swap, and each row below loses t_rj / t_jj times row j (a zero
    pivot divides by 1); back substitution then runs column by column."""
    status, scale = _first_pass(a, b)
    if status:
        return status, None, None, _NO_SUMMARY
    t, y = a / scale[..., None], b / scale     # every row now has max |a_ij| = 1
    count, n = y.shape
    systems = np.arange(count)
    pivots = np.empty((count, n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(n):
            p = j + np.argmax(np.abs(t[:, j:, j]), axis=1)
            t[systems, j], t[systems, p] = t[systems, p], t[systems, j]
            y[systems, j], y[systems, p] = y[systems, p], y[systems, j]
            pivot = t[:, j, j]
            pivots[:, j] = np.abs(pivot)
            l = t[:, j + 1:, j] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
            t[:, j + 1:, j + 1:] -= l[:, :, None] * t[:, None, j, j + 1:]
            y[:, j + 1:] -= l * y[:, None, j]
        for j in reversed(range(n)):
            y[:, j] /= t[:, j, j]
            y[:, :j] -= t[:, :j, j] * y[:, None, j]
    pivmin = pivots.min(axis=1)
    return 0, y, pivmin, _summary(y, pivmin)


def _lockstep_compiled(a: np.ndarray, b: np.ndarray):
    """`_lockstep` in one call of the compiled `fbq_lu_lockstep`; a and b are
    C-contiguous float arrays."""
    count, n = b.shape
    x, pivmin, summary = np.empty((count, n)), np.empty(count), np.empty(3, dtype=np.int64)
    # from_buffer views keep their arrays alive and pass as pointers
    dbl = ctypes.c_double.from_buffer
    status = _kernels.compiled().lu_lockstep(count, n, PIVOT_RTOL, NEG_PROB_TOL, dbl(a), dbl(b), dbl(x),
                                             dbl(pivmin), ctypes.c_int64.from_buffer(summary))
    return status, x, pivmin, summary.tolist()


def _lapack(a: np.ndarray, b: np.ndarray):
    """A stack of one system, (1, n, n) and (1, n), by one f2py getrf and
    getrs call on its row-scaled copy: (status, x, pivmin, summary) as
    `_lockstep` gives them; a and b are left as they are."""
    status, scale = _first_pass(a, b)
    if status:
        return status, None, None, _NO_SUMMARY
    # the copy is made in column-major order, so getrf factors it in place
    lu, piv, _ = lapack.dgetrf(np.divide(a[0], scale[0, :, None], order="F"), overwrite_a=1)
    x = lapack.dgetrs(lu, piv, b[0] / scale[0])[0][None]
    pivmin = np.abs(lu.diagonal()).min(keepdims=True)
    return 0, x, pivmin, _summary(x, pivmin)


def _condition_estimate(a: np.ndarray) -> float:
    """LAPACK's estimate (getrf + gecon) of the infinity-norm condition number
    of a with each row divided by its largest |a_ij|: the scaled copy's
    transpose is factored in place, and cond_1(a.T) = cond_inf(a)."""
    a = a / np.abs(a).max(axis=1)[:, None]
    anorm = np.abs(a).sum(axis=1).max()
    lu, _, _ = lapack.dgetrf(a.T, overwrite_a=1)
    rcond, _ = lapack.dgecon(lu, anorm, norm="1")
    return 1.0 / rcond if rcond > 0 else float("inf")
