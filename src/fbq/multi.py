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
mu2, q, m) and kept in a bounded cache, in one work buffer that starts
with the pool's rate table and where the pool's set-up, one call of the
compiled `fbq_pool_data`, writes the determinant zeros, the left null
vectors of A(z) and powers z^j at the zeros, and A(z)'s Taylor data at
z = 1 with the null pair of A(1).
The thresholds that a call still needs are solved in order by one call of
the compiled loop `fbq_pool_system`, which fills and factors each boundary
system on its envelope, runs the Taylor cascade and sums L1, L2, U and p
in Python's float order, with no BLAS or LAPACK call, so a pool gives the
same bits on every CPU; it stops at the first threshold that fails.  The
cache keeps each threshold's outcome row and boundary probabilities, or
the type and message of the SolverError it raised, so a pool is solved
once per threshold however many sweeps or cost vectors ask for it: costs
are scored from the rows' L and U, and a solution is built when first
read, and that read-only object is served to every later caller.
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
SINGULAR_RTOL = 1e-6   # largest relative null-vector residual of a matrix expected singular


def _setup_compiled(model: MultiServerModel, c1: float, c2: float) -> tuple:
    """(zeros, counts, evals, shared) of the pool, from one call of the
    compiled `fbq_pool_data` on its work: the zeros of d_roots without its
    checks, the sign counts and determinant evaluations they took, and the
    data that every threshold shares, a view of the work.  The search
    bisects on the Sturm counts, D replaced by -D'(1) just below 1, and runs
    scipy's brentq loop on each bracket; a failure raises SolverError with
    the counts or the bracket and D'(1), or brentq's RuntimeError.  The data
    are the left null vectors of A(z_k) and the powers z_k^j, and A(z)'s
    Taylor coefficients at z = 1, from the terms c1 t + c2 t^2 of y1(1 + t),
    with A0's null pair; SolverError names a null-vector residual above
    SINGULAR_RTOL, or a vanishing u^T A1 v."""
    m, pool = model.m, _pool(model)
    dprime = dprime_at_1(model)
    status = _kernels.compiled().pool_data(m, model.lam, model.mu1, model.mu2, model.q, dprime,
                                           _BRENT_MAXITER, c1, c2, SINGULAR_RTOL, pool.c_work)
    counts, evals, *failed = pool.work[10 * m + 3:10 * m + 8].view(np.int64).tolist()
    if status != _DONE:
        lo, mid, hi = pool.work[10 * m:10 * m + 3].tolist()

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
            lo, hi = pool.work[8 * m + 2 * k:8 * m + 2 * k + 2].tolist()
            raise failure(f"determinant has no sign change on [{lo:.17g}, {hi:.17g}], where the "
                          f"Sturm counts read {m - k} and {m - k - 1}")
        if status == _NO_CONVERGENCE:
            raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")
        if status == _DISCRIMINANT:
            _y1_float(model, lo)     # raises the discriminant's SolverError at that point
            raise failure(f"the zero search stopped with status _DISCRIMINANT at z = {lo:.17g}, where "
                          "the kernel discriminant is positive")
        if status == _NULL_RESIDUAL:
            raise SolverError(f"matrix expected singular has a null-vector residual of {lo:.3e} times "
                              "its norm")
        if status == _DRIFT:
            raise SolverError("transform system is degenerate at z = 1 (vanishing drift)")
        # a full bisection stack, which no search of (0, 1) reaches
        raise failure("the zero search stopped with status _STACK_FULL")
    return tuple(pool.work[2 * m:3 * m - 1].tolist()), counts, evals, pool.work[10 * m + 8:]


def d_roots(model: MultiServerModel) -> tuple[float, ...]:
    """The m-1 zeros of the transform determinant in (0,1).

    The leading principal minors Q_0 .. Q_(m-1) of A(z) and D = Q_m form a
    Sturm sequence on (0, 1], where the off-diagonal products alpha_k lam z
    are positive (Wilkinson, The Algebraic Eigenvalue Problem, 1965): its
    number V(z) of sign changes, m at 0 and 1 just below 1 as D'(1) > 0,
    drops by one at each zero.  Bisection on V splits (0, 1) until each
    interval holds one zero, which Brent's method (Brent 1973) refines.
    End counts other than m and 1, a rising count, or an interval where D
    keeps its sign raise SolverError with the counts and D'(1).  Each pass
    reads the pool's rates in the float order of the plain recurrence.

    The stability and lam > 0 checks run on every call; the search runs in
    the pool's set-up, once per pool (lam, mu1, mu2, q, m), and its zeros
    are then served from the pool cache as the pool's one tuple.  The
    set-up builds the data that every threshold shares in the same call,
    so its failures raise here too: SolverError for a null-vector residual
    above SINGULAR_RTOL or a vanishing drift at z = 1.
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
    """What the pool (lam, mu1, mu2, q, m) keeps, built from its first
    caller's model: one work buffer, which the compiled calls get by one
    pointer, with the rate table `rates` at its head and where the set-up,
    `data`, writes on first use; and each threshold K's outcome once its
    row passed: its row in `table` and in `solutions` its x, then the
    solution that `_solution` builds from them when first read, or the
    type and message of its SolverError, which every later solve of K
    raises afresh without solving (an exception's traceback would hold the
    frames of the failed solve).  A failed set-up is not kept: each call
    that needs it builds it again and raises the same message."""

    def __init__(self, model: MultiServerModel):
        m = model.m
        self.model, self.solutions, self.table = model, {}, np.empty((m, _G + 3 * m))
        # rates (2 m), zeros (m), band (5 m), brackets (2 m), where (3), the
        # search's info (5 int64) and the shared data, as fbq_pool_data reads and writes them
        self.work = np.zeros(10 * m + 8 + 2 * (m - 1) * m + 3 * (3 * m - 2) + 2 * m + 1)
        self.work[:2 * m] = [rate for k in range(m) for rate in (k * model.mu1, (m - k) * model.mu2)]
        self.rates = frozen(self.work[:2 * m].reshape(m, 2))   # (k mu1, (m - k) mu2), read-only
        self.c_work = ctypes.c_double.from_buffer(self.work)

    @functools.cached_property
    def data(self) -> tuple:
        """(args, shared, y2(1), y2'(1), roots) from the terms of y1(1 + t) and
        one call of `_setup_compiled`: the leading arguments of the compiled
        `fbq_pool_system`, K = 0's L1 of mmm_marginal among them, which end
        with `shared`, the data that every threshold shares."""
        model, t0 = self.model, time.perf_counter()
        m = model.m
        y1s, y2s = kernel_root_pair_at_1(model.lam / (m * model.mu1), model.q, SERIES_ORDER)
        roots, counts, evals, shared = _setup_compiled(model, *y1s.c[1:3])     # y1(1) = 1
        log.debug("m = %d: %d zeros isolated, %d sign counts, %d D evaluations, %.3f s",
                  m, len(roots), counts, evals, time.perf_counter() - t0)
        args = (m, model.lam, model.mu1, model.mu2, model.q, self.c_work, _erlang_c(m, model.rho1, (m,))[1],
                *y2s.c[:2], PIVOT_RTOL, NEG_PROB_TOL, ctypes.c_double.from_buffer(shared))
        return args, shared, y2s.c[0], y2s.c[1], roots

    @property
    def roots(self) -> tuple[float, ...]:
        return self.data[-1]


@functools.lru_cache(maxsize=POOL_CACHE_SIZE)
def _pool_data(lam: float, mu1: float, mu2: float, q: float, m: int) -> list[_Pool]:
    return []   # the pool's one _Pool, which _pool puts there


def _pool(model: MultiServerModel) -> _Pool:
    """The cached data of the model's pool; its threshold is not part of the key."""
    kept = _pool_data(model.lam, model.mu1, model.mu2, model.q, model.m)
    if not kept:
        kept.append(_Pool(model))
    return kept[0]


# --- the thresholds of a pool -------------------------------------------------


# the entries of an outcome row of fbq_pool_system, g0 (m), g1 (m) and p (m) from _G on
(_STATUS, _SINGULAR, _BELOW, _NEGATIVES, _PIVMIN, _COND, _RESIDUAL, _SCALE, _L1, _L2, _L, _U, _TAIL,
 _GM, _G) = range(15)
_INCONSISTENT = 4   # the status of a row whose b0 fails the solvability test at z = 1


def _solve_thresholds(model: MultiServerModel, thresholds, pool: _Pool) -> _Pool:
    """The pool, once the given thresholds not kept, up to the first kept
    failure, are solved by one `_pool_rows` call and kept, else that failure
    raised afresh.  A row with a status, a failed system or a negative value
    goes through `_solution` at once, so that its error, clamp and log line
    come with its solve; x is kept only once the row passed."""
    kept, todo, failed = pool.solutions, [], None
    for K in thresholds:
        outcome = kept.get(K)
        if outcome is None:
            todo.append(K)
        elif type(outcome) is tuple:
            failed = outcome
            break
    if todo:
        for K, (x, row) in zip(todo, _pool_rows(model, todo, pool)):
            pool.table[K] = row
            if row[_STATUS] or row[_SINGULAR] >= 0 or row[_BELOW] >= 0 or row[_NEGATIVES]:
                try:
                    x = _solution(model, K, x, row, pool)
                except SolverError as exc:
                    kept[K] = type(exc), str(exc)
                    raise
            kept[K] = x
    if failed:
        kind, message = failed
        raise kind(message)
    return pool


def _read(model: MultiServerModel, K: int, pool: _Pool) -> MultiServerSolution:
    """Threshold K's kept solution, built from its row and x on its first read."""
    sol = pool.solutions[K]
    if not isinstance(sol, MultiServerSolution):
        sol = pool.solutions[K] = _solution(model, K, sol, pool.table[K], pool)
    return sol


@functools.lru_cache(maxsize=1024)
def _states(m: int, K: int) -> tuple[tuple[int, int], ...]:
    """The unknowns (i, j) of threshold K of an m-server pool, K <= i + j <= m - 1, by i and then j."""
    return tuple((i, j) for i in range(m) for j in range(max(0, K - i), m - i))


def _pool_rows(model: MultiServerModel, thresholds: list[int], pool: _Pool) -> list[tuple]:
    """(x, row) of each threshold that one call of the compiled loop
    `fbq_pool_system` solves, in order until a row fails, as read-only views
    of its output: the boundary probabilities on the unknowns of `_states`,
    from the balance rows of the states i + j <= m - 2, one row per zero z_k
    and the idle-or-stopped identity, and the outcome row (entries above)."""
    m, count = model.m, len(thresholds)
    width = _G + 3 * m
    sizes = [(m * (m + 1) - K * (K + 1)) // 2 for K in thresholds]   # len(_states(m, K))
    ends = list(itertools.accumulate(sizes))
    out = np.empty(count * width + ends[-1])
    done = _kernels.compiled().pool_system(*pool.data[0], m - model.rho1 - model.rho2, count,
                                           (ctypes.c_int64 * count)(*thresholds),
                                           ctypes.c_double.from_buffer(out, 8 * count * width),
                                           ctypes.c_double.from_buffer(out))
    rows, x = frozen(out)[:done * width].reshape(done, width), out[count * width:]
    return [(x[end - n:end], row) for n, end, row in zip(sizes, ends, rows)]


def _solution(model: MultiServerModel, K: int, x, row, pool: _Pool) -> MultiServerSolution:
    """Threshold K's solution from its row and boundary probabilities x, an
    array or a list.  A row with a status, a failed system or a negative
    value goes through linsys._checked, which raises its errors, quoting the
    row's condition estimate, and clamps x; a failed solvability test at
    z = 1 (b0 not orthogonal to A(1)'s left null vector) raises."""
    row, x = np.asarray(row).tolist(), np.asarray(x)
    status, singular, below, negatives = row[:_PIVMIN]
    if status or singular >= 0 or below >= 0 or negatives:
        x = _checked(row[_COND], int(status), x[None], row[_PIVMIN:_COND],
                     (int(singular), int(below), int(negatives)))[0]
        if status == _INCONSISTENT:
            raise SolverError(f"solvability residual {row[_RESIDUAL]:.3e} at z = 1; boundary solve "
                              "inconsistent")
    m = model.m
    return MultiServerSolution(FrozenDict(zip(_states(m, K), x.tolist())), tuple(row[_G:_G + m]), row[_GM],
                               row[_L1], row[_L2], row[_L], row[_U], tuple(row[_G + 2 * m:]), row[_TAIL],
                               pool.roots, K)


def solve_threshold(model: MultiServerModel) -> MultiServerSolution:
    """Steady state under the model's switch-off threshold (0: the uncontrolled pool).

    The threshold's outcome row is kept in the pool cache and its solution
    built when first read, here or in `sweep_thresholds`, so a repeat solve
    returns the same object without solving again.  A SolverError is kept as
    its type and message, which a repeat raises without solving anything.
    """
    d_roots(model)   # checks the model and isolates the zeros on the pool's first solve
    return _read(model, model.threshold, _solve_thresholds(model, [model.threshold], _pool(model)))


def sweep_thresholds(model: MultiServerModel) -> list[MultiServerSolution]:
    """Steady states under every threshold K = 0 .. m-1, in order (the
    model's own threshold is ignored).

    Each threshold is solved once per pool, the ones still needed by one
    call of the compiled loop; as in `solve_threshold`, a solution is built
    when first read and then served to every later caller, and a kept
    SolverError is raised again without solving.
    """
    d_roots(model)
    pool = _solve_thresholds(model, range(model.m), _pool(model))
    return [_read(model, K, pool) for K in range(model.m)]


def sweep_costs(model: MultiServerModel, costs: CostCoefficients) -> list[float]:
    """evaluate_cost_multi of each solution of `sweep_thresholds`, to the
    bit and with its errors, scored from the L and U of the pool's outcome
    rows, so that no solution is built."""
    d_roots(model)
    table, c1, c2 = _solve_thresholds(model, range(model.m), _pool(model)).table, costs.c1, costs.c2
    return [c1 * L + c2 * U for L, U in zip(table[:, _L].tolist(), table[:, _U].tolist())]


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
    return _erlang_c(m, rho1, range(m + 1))


def _erlang_c(m: int, rho1: float, ks) -> tuple[list[float], float]:
    """mmm_marginal's p_k for k in ks, which ends at m, and mean count, from only the terms they read."""
    if rho1 >= m:
        raise ModelError(f"foreground load {rho1} >= m = {m}")
    try:
        p0 = 1.0 / (sum(rho1**k / math.factorial(k) for k in range(m))
                    + m * rho1**m / ((m - rho1) * math.factorial(m)))
        p = [p0 * rho1**i / math.factorial(i) for i in ks]
    except OverflowError as exc:
        terms = [1.0]
        for k in range(1, m + 1):
            terms.append(terms[-1] * rho1 / k)
        total = sum(terms[:m]) + m * terms[m] / (m - rho1)
        if not math.isfinite(total):
            raise SolverError(f"the Erlang sums of the m = {m} pool overflow a float ({exc})") from exc
        p = [terms[k] / total for k in ks]
    rr = rho1 / m
    return p, rho1 + p[-1] * rr / (1.0 - rr) ** 2


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
