"""Small dense linear solves shared by the exact solvers.

Their checks and errors are raised in one place, `_checked`, from a
loop's outcome; a message quotes the condition estimate that the loop
booked for the failing system, Hager's estimate from its own LU factors,
taken on the error path only.

* One elimination solves both kinds of boundary system: Gaussian
  elimination with partial pivoting on row envelopes, each row holding
  only the columns from its first to its last nonzero and each column's
  step visiting only the rows that reach it, with the float operations of
  the dense elimination in their order but for products with a zero
  factor, so it gives the dense elimination's solution bit for bit
  wherever no pivot is 0.
* A speed family's small systems are solved in one call of the compiled
  loop `fbq_speed_family` of `fbq.single`, on tiles of systems in
  lockstep whose rows share one envelope, taken from the family's layout
  and widened by any system's pivoting and fill; it reports its outcome
  to `_checked`, so a system gets the same bits in any family, at any
  position in it and on any machine: no BLAS kernel that the CPU selects
  is involved.  A large family's tiles are shared out among threads
  within the call, and their outcomes merge into the one-thread outcome,
  so the thread count moves no bit and no error.  When a profile fails,
  the loop fills its system again and books its condition estimate.
* A pool's boundary systems are solved inside the compiled loop
  `fbq_pool_system` of `fbq.multi`, the thresholds of a call in order, each
  by the same elimination on its own envelope.  Each threshold's
  outcome row holds its status, summary and least pivot, and a failed
  system's condition estimate from its own factors; `_checked` raises
  from the row, and the loop stops at the first row that it rejects.
* `solve_probability_system` solves one unscaled system by LAPACK's getrf
  and getrs, as scipy's lu_factor/lu_solve call them, with the same scaling,
  checks and errors, and quotes LAPACK's gecon estimate from the same
  factors: a reference for the compiled solves.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.linalg import lapack

from .models import SolverError

log = logging.getLogger("fbq.linsys")

PIVOT_RTOL = 1e-12   # relative pivot threshold declaring the system singular
NEG_PROB_TOL = 1e-9  # solved probabilities below -tol abort; above are clamped
_NOT_FINITE, _ZERO_ROW, _NO_MEMORY = 1, 2, 3   # a loop's statuses other than 0
_NO_SUMMARY = (-1, -1, 0)   # what a loop books for a stack that failed its first pass


def solve_probability_system(a_rows, b_vec) -> np.ndarray:
    """Row-scaled dense solve of one system a x = b whose unknowns are
    probabilities: a copy of it divided row by row by the largest |a_ij|
    is factored by one f2py getrf call and solved by getrs, with the checks
    and errors of a stack solve.  A message quotes gecon's estimate of the
    infinity-norm condition number of the row-scaled system, from the same
    factors; an exactly zero pivot reads inf."""
    a, b = _stack(np.array(a_rows, dtype=float)[None], np.array(b_vec, dtype=float)[None])
    status, scale = _first_pass(a, b)
    if status:
        return _checked(None, status, None, None, _NO_SUMMARY)
    # the copy is made in column-major order, so getrf factors it in place
    scaled = np.divide(a[0], scale[0, :, None], order="F")
    norm = np.linalg.norm(scaled, np.inf)
    lu, piv, _ = lapack.dgetrf(scaled, overwrite_a=1)
    x = lapack.dgetrs(lu, piv, b[0] / scale[0])[0][None]
    pivmin = np.abs(lu.diagonal()).min(keepdims=True)
    rcond = lapack.dgecon(lu, norm, norm="I")[0]   # 0 where a pivot is exactly 0
    return _checked(1.0 / rcond if rcond > 0 else math.inf, 0, x, pivmin, _summary(x, pivmin))[0]


def _stack(a, b):
    """a and b as C-contiguous float arrays, once their shapes are checked to
    be (B, n, n) and (B, n)."""
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if b.ndim != 2 or a.shape != b.shape + b.shape[-1:]:
        raise ValueError(f"a stack of shape {a.shape} does not match right-hand sides {b.shape}")
    return a, b


def _checked(cond, status, x, pivmin, summary):
    """x after the errors that a loop's outcome on a stack of systems calls
    for, in their order, with roundoff negatives clamped: a non-finite
    entry, a zero row, the first singular system, the first with a value
    below -NEG_PROB_TOL.  cond is the condition estimate of the system
    whose error is raised, the singular one, else the negative one; only a
    message reads it."""
    singular, below, negatives = summary
    if status == _NOT_FINITE:
        raise ValueError("array must not contain infs or NaNs")
    if status == _ZERO_ROW:
        raise SolverError("degenerate parameter set: zero row in the linear system")
    if status == _NO_MEMORY:
        raise MemoryError("no memory for the work of a compiled LU loop")
    if singular >= 0:
        raise SolverError(f"singular linear system (pivot {pivmin[singular]:.3e}, cond ~ "
                          f"{cond:.3e}); degenerate parameter set")
    if below >= 0:
        raise SolverError(f"solved probability {x[below].min():.3e} is below -{NEG_PROB_TOL:g}; condition "
                          f"estimate of the row-scaled system {cond:.3e}")
    if negatives:
        log.debug("clamping %d slightly negative probabilities (min %.2e)", negatives, x.min())
        x = np.clip(x, 0.0, None)
    return x


def _first_pass(a: np.ndarray, b: np.ndarray):
    """The first pass over the stack, taken from the row maxima that it
    scales by, as the row scaling of the compiled loops takes it:
    (_NOT_FINITE or _ZERO_ROW, None) if it fails, else (0, the row scale:
    each row's largest |a_ij|)."""
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
