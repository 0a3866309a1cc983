"""Exact steady state of the m-server two-queue pool with a switch-off threshold.

With i foreground jobs (i < m) the remaining m - i servers work on the
background queue, so the transform equations couple the per-level generating
functions g_0(z) .. g_{m-1}(z) through a tridiagonal matrix A(z) whose last
diagonal entry absorbs the saturated region via the small kernel root y1(z).
Cramer's rule gives g_i = D_i/D; the determinant D has exactly m-1 simple
real zeros in (0,1), isolated by the sign counts of the Sturm sequence of
leading principal minors and refined by Brent's method, in the one call
of `_kernels.c` that sets the pool up.  Those zeros, the balance equations
of the boundary states, and the idle-server identity

    E[servers not working] = m - rho1 - rho2

close a dense linear system for the boundary probabilities.  Determinants
are always evaluated through the tridiagonal three-term recurrences (never
generic elimination).  g_i(1) and g_i'(1) come from the Taylor cascade of
A(z) g(z) = b(z) at z = 1, where A(1) is singular and its null pair supplies
one solvability condition per order.

The switch-off policy stops all m servers when the total job count drops to
a threshold K (restarting them at the next arrival), which zeroes the states
below the K-diagonal; everything else is shared with the uncontrolled pool
(K = 0).  Each kept state (i, j) enters the inhomogeneous vector b(z) by one
rule.  A running state puts mu2 (z - 1)(m - i - j) z^j into b_i.  A stopped
state, on the threshold diagonal i + j = K >= 1, puts
(i mu1 z + (m - i) mu2 (z - 1)) z^j into b_i and
-i mu1 (1 - q + q z) z^(j+1) into b_(i-1).

Everything that does not depend on K is computed once per pool (lam, mu1,
mu2, q, m) and kept in a bounded cache shared by all thresholds and all
calls, in one work buffer whose pointers are taken once: the table of
rates k mu1 and (m - k) mu2 that every minor and determinant evaluation
reads, and the pool's set-up, one call of the compiled `fbq_pool_data`:
the determinant zeros, the left null vector of A(z) and the powers z^j
at each zero, by the twisted factorisation of the tridiagonal A(z), and
the Taylor data of A(z) at z = 1 with the null pair of A(1).  The
same cache keeps each threshold's solution, or the type and message of the
SolverError its solve raised, so a pool is solved once per threshold
however many sweeps or cost vectors ask for it.  The thresholds that a
call still needs are solved in order by one call of the compiled loop
`fbq_pool_system` of `_kernels.c`, which stops at the first that fails and
writes an outcome row per threshold, the solution built from it: it fills
each boundary system on its envelope, factors it there by the envelope
elimination that solves the speed families' tiles, on one system,
sums the z = 1 Taylor vectors of b from the clamped solution, runs the
Taylor cascade and sums L1, L2, U and p in Python's float order, with no
BLAS or LAPACK call, so a pool gives the same bits on every CPU.
Solutions are read-only values, and the cache serves each one's object to
every caller.
The closure by the zeros is the spectral-expansion closure of Mitrani &
Chakka, "Spectral expansion solution for a class of Markov models",
Performance Evaluation 23 (1995).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linsys import NEG_PROB_TOL, PIVOT_RTOL, _checked
from .models import (
    CostCoefficients,
    FrozenDict,
    ModelError,
    MultiServerModel,
    SolverError,
    frozen,
    require_stable_multi,
    solution_json,
)
from .series import kernel_root_pair_at_1

log = logging.getLogger("fbq.multi")

SERIES_ORDER = 3
POOL_CACHE_SIZE = 64   # pools whose threshold-independent data is kept


@dataclass(frozen=True)
class MultiServerSolution:
    """Stationary metrics of a solved multiserver model."""

    boundary: FrozenDict       # (i, j) -> pi_{i,j} on the solver's unknown set
    g_at_1: tuple[float, ...]  # foreground marginal P(fg = i), i = 0 .. m-1
    g_m_at_1: float            # P(fg = m)
    L1: float
    L2: float
    L: float
    U: float                   # mean number of operative servers
    p: tuple[float, ...]       # total-count marginal p_0 .. p_{m-1}
    tail_mass: float           # P(total >= m) = 1 - sum(p); absolute, not relative, accuracy
    roots: tuple[float, ...]   # zeros of the transform determinant in (0,1)
    threshold: int

    @property
    def energy_rate(self) -> float:
        """The energy drawn per unit time, one unit per operative server: U."""
        return self.U

    def to_json(self) -> dict:
        return {**solution_json(self), "U": self.U, "threshold": self.threshold, "roots": list(self.roots)}


# --- kernel root and matrix entries ------------------------------------------


def _y1_float(model: MultiServerModel, z: float) -> float:
    rho = model.lam / (model.m * model.mu1)
    disc = (1.0 - rho) ** 2 - 4.0 * rho * model.q * (z - 1.0)
    if disc <= 0:
        raise SolverError(f"kernel discriminant {disc:.3e} <= 0 at z={z}")
    return (1.0 + rho - math.sqrt(disc)) / (2.0 * rho)


def _det_at(model: MultiServerModel, z: float) -> float:
    """The determinant R_0(z) of A(z) by the trailing-minor recurrence
    R_t = a_t R_(t+1) - alpha_(t+1) lam z R_(t+2), from R_m = 1 and
    R_(m-1) = a_(m-1), the one entry that holds the kernel root."""
    rates = _pool(model).rates.tolist()
    lz, w, zm1 = model.lam * z, 1.0 - model.q + model.q * z, z - 1.0
    nxt, cur = 1.0, lz * (1.0 - _y1_float(model, z)) + rates[-1][0] * z + model.mu2 * zm1
    for t in range(model.m - 2, -1, -1):
        k1, k2 = rates[t]
        nxt, cur = cur, (lz + k1 * z + k2 * zm1) * cur - rates[t + 1][0] * z * w * lz * nxt
    return cur


# --- the set-up of a pool: its zeros and the data its thresholds share --------


# outcomes of the compiled set-up, fbq_pool_data in _kernels.c: the zero
# search's, then the shared data's
(_DONE, _END_COUNTS, _SPLIT_COUNTS, _NO_SIGN_CHANGE, _DISCRIMINANT, _NO_CONVERGENCE, _STACK_FULL,
 _NULL_RESIDUAL, _DRIFT) = range(9)
_BRENT_MAXITER = 100   # scipy.optimize.brentq's default
_TINY, _EPS = float(np.finfo(float).tiny), float(np.finfo(float).eps)
SINGULAR_RTOL = 1e-6   # largest relative null-vector residual of a matrix expected singular


def _setup_compiled(model: MultiServerModel, c1: float, c2: float) -> tuple:
    """(zeros, counts, evals, shared) of the pool, from one call of the
    compiled `fbq_pool_data` on its work buffer: the zeros of d_roots
    without its checks, with the number of sign counts and of determinant
    evaluations they took, and the data that every threshold shares, laid
    out as `fbq_pool_system` reads it.  The search takes the Sturm counts
    at 0 and, with D replaced by -D'(1), just below 1, bisects on the
    counts and runs scipy's brentq loop on each bracket; each failure
    raises SolverError with the counts or the bracket and D'(1), and
    brentq's non-convergence RuntimeError.  The data are the left null
    vectors of A(z_k) and the powers z_k^j at the zeros, and A(z)'s Taylor
    coefficients at z = 1, from the terms c1 t + c2 t^2 of the small kernel
    root y1(1 + t), with A0's null pair; SolverError names a null-vector
    residual above SINGULAR_RTOL, or a vanishing u^T A1 v."""
    m, pool = model.m, _pool(model)
    dprime = dprime_at_1(model)
    data = np.empty(2 * (m - 1) * m + 3 * (3 * m - 2) + 2 * m + 1)
    status = _kernels.compiled().pool_data(m, model.lam, model.mu1, model.mu2, model.q, pool.c_rates,
                                           dprime, _TINY, 4 * _EPS, _BRENT_MAXITER, c1, c2, SINGULAR_RTOL,
                                           pool.c_band, pool.c_brackets, pool.c_zeros, pool.c_info,
                                           pool.c_where, ctypes.c_double.from_buffer(data))
    counts, evals, *failed = pool.info.tolist()
    lo, mid, hi = pool.where.tolist()

    def failure(what: str) -> SolverError:
        return SolverError(f"{what}; D'(1) = {dprime:.6g}")

    if status == _END_COUNTS:
        raise failure(f"Sturm counts read {failed[0]} at z = 0 and {failed[1]} below "
                      f"z = 1, not {m} and 1")
    if status == _SPLIT_COUNTS:
        raise failure(f"Sturm counts read {failed[0]}, {failed[1]}, {failed[2]} at z = {lo:.17g}, "
                      f"{mid:.17g}, {hi:.17g}")
    if status == _NO_SIGN_CHANGE:
        k = failed[0]
        lo, hi = pool.brackets[2 * k:2 * k + 2].tolist()
        raise failure(f"determinant has no sign change on [{lo:.17g}, {hi:.17g}], where the "
                      f"Sturm counts read {m - k} and {m - k - 1}")
    if status == _NO_CONVERGENCE:
        raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")
    if status == _DISCRIMINANT:
        _y1_float(model, lo)     # raises the discriminant's SolverError at that point
        raise failure(f"the zero search stopped with status _DISCRIMINANT at z = {lo:.17g}, where "
                      "the kernel discriminant is positive")
    if status == _NULL_RESIDUAL:
        raise SolverError(f"matrix expected singular has a null-vector residual of {lo:.3e} times its norm")
    if status == _DRIFT:
        raise SolverError("transform system is degenerate at z = 1 (vanishing drift)")
    if status != _DONE:          # a full bisection stack, which no search of (0, 1) reaches
        raise failure("the zero search stopped with status _STACK_FULL")
    return tuple(pool.zeros[:m - 1].tolist()), counts, evals, data


def d_roots(model: MultiServerModel) -> tuple[float, ...]:
    """The m-1 zeros of the transform determinant in (0,1).

    The leading principal minors Q_0 .. Q_(m-1) of A(z) and D = Q_m form a
    Sturm sequence on (0, 1], where the off-diagonal products alpha_k lam z
    are positive (Wilkinson, The Algebraic Eigenvalue Problem, 1965): its
    number V(z) of sign changes moves only where D vanishes.  V(0) = m, as
    the minors alternate at 0, and V = 1 just below 1, as every minor is
    positive at 1 and D'(1) > 0, so each zero lowers V by one.  Bisection on
    V splits (0, 1) until each interval holds one zero, which Brent's method
    (Brent 1973) on the determinant then refines.  End counts other than m
    and 1, a rising count, or an interval where D keeps its sign raise
    SolverError with the counts and D'(1).  Each pass reads the pool's rate
    table, with the float operations of the plain recurrence in their order.

    The stability and lam > 0 checks run on every call; the search runs
    once per pool (lam, mu1, mu2, q, m) and its zeros are then served from
    the pool cache, whatever the threshold, as the pool's one tuple.  It
    runs in the pool's set-up, which builds the data that every threshold
    shares in the same call, so a failure of that data raises here too:
    SolverError for a null-vector residual above SINGULAR_RTOL or a
    vanishing drift at z = 1.
    """
    require_stable_multi(model)
    if model.lam == 0:
        raise ModelError("arrival rate must be positive to solve the chain")
    return _pool(model).roots


def dprime_at_1(model: MultiServerModel) -> float:
    """Closed-form derivative of the transform determinant at z = 1.

    Obtained by summing all rows into the last one, dividing it by z - 1 and
    expanding; positive exactly when the model is stable.  Raises
    SolverError where its Erlang sums overflow a float.
    """
    m, mu1, mu2 = model.m, model.mu1, model.mu2
    rho1, rho2 = model.rho1, model.rho2
    if rho1 == m:
        raise ModelError("rho1 equals the server count; derivative form is singular")
    try:
        bracket = sum(rho1**j / math.factorial(j) for j in range(m))
        bracket += m * rho1**m / ((m - rho1) * math.factorial(m))
        return mu1 ** (m - 1) * math.factorial(m - 1) * mu2 * (m - rho1 - rho2) * bracket
    except OverflowError as exc:
        raise SolverError(f"the Erlang sums of the m = {m} pool overflow a float ({exc})") from exc


# --- the pool cache -----------------------------------------------------------


class _Pool:
    """Everything a solve of the pool (lam, mu1, mu2, q, m) needs that does
    not depend on the threshold, in one work buffer whose parts the compiled
    calls get as pointers taken on construction: the rate table (k mu1,
    (m - k) mu2), a read-only (m, 2) array, and on first use the pool's
    set-up, `data`, from one call of `_setup_compiled`: the zeros, which the
    compiled `fbq_pool_data` writes to its part of the buffer, and the data
    that every threshold shares; and each threshold's outcome, kept by K in
    `solutions`: its solution, or the type and message of the SolverError
    its row raised, which every later solve of K raises afresh without
    solving again (the exception's traceback would hold the frames of the
    failed solve).  The set-up keeps no failure: each call that needs it
    after it failed builds it again and raises the same message, before
    any threshold is solved.
    """

    def __init__(self, model: MultiServerModel):
        m = model.m
        self.model = model
        self.solutions: dict[int, MultiServerSolution | tuple[type, str]] = {}
        # rates (2 m), zeros (m), band (5 m), brackets (2 m), where (3) and
        # the search's info (5 int64)
        work = np.zeros(10 * m + 8)
        work[:2 * m] = [rate for k in range(m) for rate in (k * model.mu1, (m - k) * model.mu2)]
        self.rates = frozen(work[:2 * m].reshape(m, 2))
        self.zeros, self.brackets, self.where = work[2 * m:3 * m], work[8 * m:10 * m], work[10 * m:10 * m + 3]
        self.info = work[10 * m + 3:].view(np.int64)
        self.c_rates, self.c_zeros, self.c_band, self.c_brackets, self.c_where = (
            ctypes.c_double.from_buffer(work, 8 * at) for at in (0, 2 * m, 3 * m, 8 * m, 10 * m))
        self.c_info = ctypes.c_int64.from_buffer(work, 8 * (10 * m + 3))

    @functools.cached_property
    def data(self) -> tuple:
        """(args, shared, y2(1), y2'(1), roots): the leading arguments of the
        compiled `fbq_pool_system` (the pool, its rate table, its zeros and
        `shared`), the data that every threshold shares, the large kernel
        root and the zeros, from the terms of y1(1 + t) and one call of
        `_setup_compiled`."""
        model, t0 = self.model, time.perf_counter()
        y1s, y2s = kernel_root_pair_at_1(model.lam / (model.m * model.mu1), model.q, SERIES_ORDER)
        roots, counts, evals, shared = _setup_compiled(model, *y1s.c[1:3])     # y1(1) = 1
        log.debug("m = %d: %d zeros isolated, %d sign counts, %d D evaluations, %.3f s",
                  model.m, len(roots), counts, evals, time.perf_counter() - t0)
        self.zeros[:model.m - 1] = roots   # a no-op after the compiled set-up, which wrote them there
        args = (model.m, model.lam, model.mu1, model.mu2, model.q, self.c_rates, self.c_zeros,
                ctypes.c_double.from_buffer(shared))
        return args, shared, y2s.c[0], y2s.c[1], roots

    @property
    def roots(self) -> tuple[float, ...]:
        return self.data[-1]


@functools.lru_cache(maxsize=POOL_CACHE_SIZE)
def _pool_data(lam: float, mu1: float, mu2: float, q: float, m: int) -> _Pool:
    return _Pool(MultiServerModel(lam, mu1, mu2, q, m))


def _pool(model: MultiServerModel) -> _Pool:
    """The cached data of the model's pool; its threshold is not part of the key."""
    return _pool_data(model.lam, model.mu1, model.mu2, model.q, model.m)


# --- the thresholds of a pool -------------------------------------------------


# the entries of an outcome row of fbq_pool_system, g0 (m), g1 (m) and p (m) from _G on
(_STATUS, _SINGULAR, _BELOW, _NEGATIVES, _PIVMIN, _COND, _RESIDUAL, _SCALE, _L1, _L2, _L, _U, _TAIL,
 _GM, _G) = range(15)
_INCONSISTENT = 4   # the status of a row whose b0 fails the solvability test at z = 1


def _solve_thresholds(model: MultiServerModel, thresholds, pool: _Pool) -> list[MultiServerSolution]:
    """Steady states under the given thresholds, each solved once per pool
    and threshold: those not kept, up to the first kept failure, by one
    `_pool_rows` call.  A row's SolverError is kept as its type and message
    and raised afresh by every later call that reaches that threshold.
    Each solution returned is the kept object."""
    todo = []
    for K in thresholds:
        kept = pool.solutions.get(K)
        if kept is None:
            todo.append(K)
        elif not isinstance(kept, MultiServerSolution):
            break
    if todo:
        for K, (x, row) in zip(todo, _pool_rows(model, todo, pool)):
            try:
                pool.solutions[K] = _solution(model, K, x, row, pool)
            except SolverError as exc:
                pool.solutions[K] = type(exc), str(exc)
                raise
    out = []
    for K in thresholds:
        sol = pool.solutions[K]
        if not isinstance(sol, MultiServerSolution):
            kind, message = sol
            raise kind(message)
        out.append(sol)
    return out


@functools.lru_cache(maxsize=1024)
def _states(m: int, K: int) -> tuple[tuple[int, int], ...]:
    """The unknowns (i, j) of threshold K of an m-server pool, K <= i + j <= m - 1, by i and then j."""
    return tuple((i, j) for i in range(m) for j in range(max(0, K - i), m - i))


def _pool_rows(model: MultiServerModel, thresholds: list[int], pool: _Pool) -> list[tuple[list, list]]:
    """(x, row) of each threshold that one call of the compiled loop
    `fbq_pool_system` solves, in order until a row fails: the boundary
    probabilities on the unknowns of `_states` and the outcome row (the
    entries above).  Each boundary system holds the balance rows of the
    states i + j <= m - 2, as a stopped state on the diagonal i + j = K >= 1
    and as a running one elsewhere; one row per zero z_k, from the left null
    vector of A(z_k), to which b is orthogonal; and the idle-or-stopped
    server identity.  K = 0's L1 is mmm_marginal's."""
    args, _, y2, dy2, _ = pool.data
    m, count = model.m, len(thresholds)
    width = _G + 3 * m
    sizes = [(m * (m + 1) - K * (K + 1)) // 2 for K in thresholds]   # len(_states(m, K))
    out = np.empty(count * width + sum(sizes))
    L1_at_0 = mmm_marginal(m, model.rho1)[1] if 0 in thresholds else 0.0
    done = _kernels.compiled().pool_system(*args, count, (ctypes.c_int64 * count)(*thresholds),
                                           m - model.rho1 - model.rho2, L1_at_0, y2, dy2, PIVOT_RTOL,
                                           NEG_PROB_TOL, ctypes.c_double.from_buffer(out, 8 * count * width),
                                           ctypes.c_double.from_buffer(out))
    rows = out[:done * width].reshape(done, width).tolist()
    xs = iter(out[count * width:count * width + sum(sizes[:done])].tolist())
    return [(list(itertools.islice(xs, n)), row) for n, row in zip(sizes, rows)]


def _solution(model: MultiServerModel, K: int, x: list, row: list, pool: _Pool) -> MultiServerSolution:
    """Threshold K's solution from its row and boundary probabilities x.
    A row with a status, a failed system or a negative value goes through
    linsys._checked, which raises its errors, quoting the row's condition
    estimate, and clamps x; a failed solvability test at z = 1 (A(1) is
    singular, so b0 must be orthogonal to its left null vector) raises."""
    status, singular, below, negatives = row[:_PIVMIN]
    if status or singular >= 0 or below >= 0 or negatives:
        x = _checked(row[_COND], int(status), np.array([x]), row[_PIVMIN:_COND],
                     (int(singular), int(below), int(negatives)))[0].tolist()
        if status == _INCONSISTENT:
            raise SolverError(f"solvability residual {row[_RESIDUAL]:.3e} at z = 1; boundary solve "
                              "inconsistent")
    m = model.m
    return MultiServerSolution(FrozenDict(zip(_states(m, K), x)), tuple(row[_G:_G + m]), row[_GM], row[_L1],
                               row[_L2], row[_L], row[_U], tuple(row[_G + 2 * m:]), row[_TAIL], pool.roots, K)


def solve_threshold(model: MultiServerModel) -> MultiServerSolution:
    """Steady state under the model's switch-off threshold (0: the uncontrolled pool).

    The solution is kept in the pool cache by threshold, so a repeat solve
    (here or in `sweep_thresholds`) returns the same object without solving
    again.  A boundary solve that raised SolverError is kept as its type and
    message: a repeat raises a new error of that type and text without
    building or solving anything.
    """
    d_roots(model)   # checks the model and isolates the zeros on the pool's first solve
    return _solve_thresholds(model, [model.threshold], _pool(model))[0]


def sweep_thresholds(model: MultiServerModel) -> list[MultiServerSolution]:
    """Steady states under every threshold K = 0 .. m-1, in order (the
    model's own threshold is ignored).

    The determinant zeros, the null vectors at them and the z = 1 Taylor
    data come from the pool cache, so they are built once per pool however
    many sweeps or solves use it.  Each threshold is solved once, by one
    call of the compiled loop; later sweeps, solves and cost
    vectors of the pool are served the kept solution object, as in
    `solve_threshold`.  A failure at any threshold
    propagates; a SolverError of its boundary solve is kept, as in
    `solve_threshold`, so a repeat sweep raises it again at that threshold
    without solving it.
    """
    d_roots(model)
    return _solve_thresholds(model, range(model.m), _pool(model))


def evaluate_cost_multi(solution, costs: CostCoefficients) -> float:
    """Linear holding + energy cost c1 L + c2 energy_rate of any solution,
    the formula of single.evaluate_cost_single: for a pool the energy rate
    is the mean count of operative servers U."""
    return costs.c1 * solution.L + costs.c2 * solution.energy_rate


def mmm_marginal(m: int, rho1: float) -> tuple[list[float], float]:
    """Erlang-C marginals p_0 .. p_m and mean count for an m-server queue.
    Where the closed form's powers or factorials overflow a float, the terms
    rho1^k / k! come from the recurrence t_k = t_(k-1) rho1 / k and are
    normalised at the end; SolverError only where those overflow too."""
    if rho1 >= m:
        raise ModelError(f"foreground load {rho1} >= m = {m}")
    try:
        p0 = 1.0 / (sum(rho1**k / math.factorial(k) for k in range(m))
                    + m * rho1**m / ((m - rho1) * math.factorial(m)))
        p = [p0 * rho1**i / math.factorial(i) for i in range(m + 1)]
    except OverflowError as exc:
        terms = [1.0]
        for k in range(1, m + 1):
            terms.append(terms[-1] * rho1 / k)
        total = sum(terms[:m]) + m * terms[m] / (m - rho1)
        if not math.isfinite(total):
            raise SolverError(f"the Erlang sums of the m = {m} pool overflow a float ({exc})") from exc
        p = [t / total for t in terms]
    rr = rho1 / m
    L1 = rho1 + p[m] * rr / (1.0 - rr) ** 2
    return p, L1


# --- consistency checks --------------------------------------------------------


def verify_multi(model: MultiServerModel, sol: MultiServerSolution) -> dict:
    """Residuals of the structural identities; all should be ~ 0 on a valid solve."""
    lam, mu1, m, K = model.lam, model.mu1, model.m, sol.threshold
    res = {}
    lhs = sum((float(m) if i + j == K else float(m - i - j)) * v for (i, j), v in sol.boundary.items())
    res["idle_server_identity"] = abs(lhs - (m - model.rho1 - model.rho2))
    r = lam / (m * mu1)
    res["normalization"] = abs(sum(sol.g_at_1) + sol.g_at_1[m - 1] * r / (1.0 - r) - 1.0)
    if K == 0:
        p, _ = mmm_marginal(m, model.rho1)
        res["fg_marginal"] = max(abs(sol.g_at_1[i] - p[i]) for i in range(m))
        res["fg_marginal"] = max(res["fg_marginal"], abs(sol.g_m_at_1 - p[m]))
    # the saturated foreground tail is geometric with ratio r; extend it with
    # the three-term recurrence and compare
    g_prev, g_cur = sol.g_at_1[m - 1], sol.g_m_at_1
    worst = 0.0
    for k in range(1, 4):
        g_next = ((lam + m * mu1) * g_cur - lam * g_prev) / (m * mu1)
        worst = max(worst, abs(g_next / sol.g_m_at_1 - r**k))
        g_prev, g_cur = g_cur, g_next
    res["geometric_tail"] = worst
    scale = max(abs(_det_at(model, 0.02 * k)) for k in range(1, 50))
    res["det_at_roots"] = max((abs(_det_at(model, zk)) / scale for zk in sol.roots), default=0.0)
    return res
