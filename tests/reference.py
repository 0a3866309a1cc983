"""The Python references of the compiled loops of `fbq._kernels`.

Each function here is the specification that one loop of `_kernels.c` is
tested against bit for bit: it does the loop's float operations in the
loop's order, so the two give equal results, errors included.

* `run`: one replication of the jump chain of `fbq_jump_chain`;
  `replications`, each on its own seed, is `simulation._jump_chain`.
* `lockstep`: the one elimination of the compiled loops, over a stack of
  systems, with its factors kept: the tiles of `fbq_speed_family` and each
  system of `fbq_pool_system`, one system by `one_system_steps`;
  `solve_probability_stack` is a stack solve
  with its checks, and `family_solve` is the whole family loop, with the
  systems of `family_stack`, the row sums of `finish_sums` and the drift
  identities and energy rates of `metrics`; `family_scores` is its L and
  energy-rate rows, which a speed search reads.
* `lu_solve` and `lu_solve_transposed`: the solves with one system's
  factors; `condition` is the condition estimate that `fbq_speed_family`
  and `fbq_pool_system` book for a failing system, and `checked` is
  `linsys._checked` with it.
* `pool_setup`: a pool's set-up, the one call of `fbq_pool_data`, behind
  `multi._setup_compiled`: `isolate_roots`, the zero search, on
  `sturm_sequence` and `sign_changes`, and then `pool_data`, the data that
  every threshold of the pool shares, on `tridiagonal` (A(z) at the zeros)
  and the twisted factorisations of `twisted_null` and `null_vectors`;
  `shared_parts` splits that data into its parts.
* `pool_fill`, `pool_taylor`, `cascade` and `finish`: the boundary fill,
  the z = 1 Taylor sums, the Taylor cascade and the sums of a solution of
  `fbq_pool_system`; `solve_one` is one threshold's outcome row on them,
  and `solve_rows`, the thresholds in turn until a row fails, is
  `multi._pool_rows`.
* `band_system`: the system that `fbq_ctmc_rectangle` assembles, from the
  generator entries of `transitions`, in the band layout and as a CSC
  matrix; `rectangle` is `ctmc._rectangle`, the one assembly of every
  rectangle: a band system solved by `scipy.linalg.lapack.dgbsv`, or the
  CSC matrix that SuperLU solves.

`dense_matrix` is A(z) as a dense matrix, for the tests of its entries.

`REFERENCES` names each compiled entry point of fbq with its reference, so
that a test can run any call on the references instead.
"""

import functools
import math
import random
import sys
from bisect import bisect_right

import numpy as np
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from scipy.linalg import lapack

from fbq import ctmc, linsys, multi, simulation, single
from fbq.models import SolverError


# --- the jump chain ------------------------------------------------------------


def run(seed: int, tab: list[tuple], clamp: int, stops: list[int]) -> tuple[list, int, int]:
    """The jump-chain loop shared by every model.  Each jump adds the mean
    holding time of the state it leaves to the batch sums, draws one uniform
    u and takes the first outcome whose cumulative probability exceeds u:
    the arrival, then each phase's completion, moving on before leaving.
    n0, n1 and nl count the jobs in phase 0, in phase 1 and past phase 0.
    Returns the per-batch sums, the jobs left at the end and the number of
    jumps."""
    unif = random.Random(seed).random
    sums = []  # per batch: time and the time integrals of n0, nl and the servers
    n0 = n1 = nl = arrivals = completions = row = 0
    for stop in stops:
        t = ti = tj = tu = 0.0
        while arrivals < stop:
            inv, srv, pa, cum, moves, up = tab[row]
            t += inv
            ti += n0 * inv
            tj += nl * inv
            tu += srv
            u = unif()
            if u < pa:
                n0 += 1
                arrivals += 1
                row = up
                continue
            completions += 1
            p, on, lo, hi = moves[bisect_right(cum, u)]
            if p == 0:
                n0 = c = n0 - 1
                if on:
                    n1 += 1
                    nl += 1
            elif p == 1:
                n1 = c = n1 - 1
                if not on:
                    nl -= 1
            else:
                nl -= 1
                c = nl - n1
            row = hi if c >= clamp else lo
        sums.append((t, ti, tj, tu))
    return sums, n0 + nl, arrivals + completions


def replications(seeds: list[int], tab: list[tuple], clamp: int, stops: list[list[int]],
                 threads: int) -> list[tuple[list, int, int]]:
    """`run` for each replication, on its seed and its batch stops; one
    thread runs them all."""
    return [run(seed, tab, clamp, s) for seed, s in zip(seeds, stops)]


# --- the lockstep LU of a speed family -------------------------------------------


def solve_probability_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-scaled dense solves of a stack of systems a[k] x[k] = b[k].

    a is (B, n, n) and b is (B, n); the solve leaves them as they are.  Each
    row of a system is divided by its largest |a_ij|.  The unknowns are
    probabilities.  A non-finite entry anywhere in the stack raises
    ValueError, and then a zero row SolverError, before any solve; then the
    first system in stack order with a pivot below PIVOT_RTOL raises it (with
    a condition estimate), and then the first with a solved value below
    -NEG_PROB_TOL; values in [-NEG_PROB_TOL, 0) are roundoff and get clamped.
    """
    a, b = linsys._stack(a, b)
    return checked(a, *lockstep(a, b)[:4])


def checked(a: np.ndarray, status, x, pivmin, summary):
    """`linsys._checked` on the outcome of `lockstep` on the stack a, with
    the `condition` estimate of the system whose error it raises: the first
    singular one, else the first with a value below -NEG_PROB_TOL."""
    k = summary[0] if summary[0] >= 0 else summary[1]
    return linsys._checked(condition(a[k]) if k >= 0 else None, status, x, pivmin, summary)


def lockstep(a: np.ndarray, b: np.ndarray):
    """The elimination of the compiled loops over the stack of systems a
    (B, n, n) and b (B, n), on copies: (status, x, pivmin, summary,
    factors), where status is 0, _NOT_FINITE or _ZERO_ROW (the first pass
    of `linsys._first_pass`, after which the rest is None but the summary,
    `linsys._NO_SUMMARY`), pivmin holds each system's smallest |pivot| and
    the summary is `linsys._summary`'s.  factors is (t, perm, scale): t
    holds U on and above the diagonal and each multiplier l in place of
    the t_rj it eliminated, perm the pivot row of each column and scale
    each row's largest |a_ij|.  Each row and its b are divided by its
    scale, b kept as column n of t; for each column j the pivot is the
    first largest |t_rj|, r >= j, rows r and j swap from column j on, and
    each row below loses l = t_rj / t_jj times row j (a zero pivot divides
    by 1); back substitution then runs column by column.  As on a tile of
    the compiled loop, a row whose l is 0 in every system of the stack is
    skipped, and on one system that is the one-system elimination's rule,
    which makes a pool's sparse boundary system cheap (one system takes
    `one_system_steps`); the pivot row's zero tail, which the compiled loop
    skips too, is not.  The skipped products are zeros, so a skip moves no
    value but the sign of a zero cell of the factors, and no bit of a
    solution with no zero pivot."""
    status, scale = linsys._first_pass(a, b)
    if status:
        return status, None, None, linsys._NO_SUMMARY, None
    count, n = b.shape
    t = np.concatenate([a, b[..., None]], axis=2) / scale[..., None]   # y in column n
    y, perm = t[:, :, n], np.empty((count, n), dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if count == 1:
            one_system_steps(t[0], perm[0])
        else:
            for j in range(n):
                p = perm[:, j] = j + np.argmax(np.abs(t[:, j:, j]), axis=1)
                k = np.flatnonzero(p != j)    # the systems whose rows swap
                if k.size:
                    pair = np.array([np.full(k.size, j), p[k]])
                    t[k, pair, j:] = t[k, pair[::-1], j:]
                pivot = t[:, j, j]
                l = t[:, j + 1:, j] = t[:, j + 1:, j] / np.where(pivot == 0.0, 1.0, pivot)[:, None]
                live = np.flatnonzero(l.any(axis=0))    # a NaN counts as not 0
                rows = slice(j + 1, None)
                if live.size < n - j - 1:   # a slice where no row is skipped
                    rows, l = j + 1 + live, l[:, live]
                t[:, rows, j + 1:] -= l[:, :, None] * t[:, None, j, j + 1:]
        for j in reversed(range(n)):
            y[:, j] /= t[:, j, j]
            y[:, :j] -= t[:, :j, j] * y[:, None, j]
    pivmin = np.abs(np.diagonal(t, axis1=1, axis2=2)).min(axis=1)
    y = np.ascontiguousarray(y)
    return 0, y, pivmin, linsys._summary(y, pivmin), (t[:, :, :n], perm, scale)


def one_system_steps(t: np.ndarray, perm: np.ndarray) -> None:
    """The steps of `lockstep` on one system t (n x (n + 1), b as column n)
    in place, with the pivot row of each column into perm: each step
    updates only the rows whose multiplier is not 0, each cell by the
    stack's operation."""
    n = len(perm)
    for j in range(n):
        p = perm[j] = j + int(np.abs(t[j:, j]).argmax())
        if p != j:
            t[[j, p], j:] = t[[p, j], j:]
        pivot = t[j, j]
        l = t[j + 1:, j]
        l /= pivot if pivot != 0.0 else 1.0
        live = np.flatnonzero(l)    # a NaN counts as not 0
        if live.size:
            t[j + 1 + live, j + 1:] -= l[live, None] * t[j, j + 1:]


def add_up(values) -> float:
    """The values added in turn to 0.0, as the compiled loops sum."""
    total = 0.0
    for v in values:
        total += v
    return total


def lu_solve(t: np.ndarray, perm: list, y: np.ndarray) -> None:
    """S x = y in place, with one system's factors of `lockstep`: its steps
    on y, then the back substitution."""
    for j, p in enumerate(perm):
        y[[j, p]] = y[[p, j]]
        y[j + 1:] -= t[j + 1:, j] * y[j]
    for j in reversed(range(len(y))):
        y[j] /= t[j, j]
        y[:j] -= t[:j, j] * y[j]


def lu_solve_transposed(t: np.ndarray, perm: list, y: np.ndarray) -> None:
    """S^T x = y in place: U^T column by column, then the transposes of
    the steps in reverse, each a sum over the rows below with a nonzero
    multiplier, in turn."""
    n = len(y)
    for j in range(n):
        y[j] /= t[j, j]
        y[j + 1:] -= t[j, j + 1:] * y[j]
    cols, rows = np.nonzero(np.tril(t, -1).T)   # L's nonzeros by column, then by row
    starts, x = np.searchsorted(cols, np.arange(n + 1)).tolist(), y.tolist()
    terms = list(zip(rows.tolist(), t[rows, cols].tolist()))
    for j in reversed(range(n)):
        v = x[j]
        for r, multiplier in terms[starts[j]:starts[j + 1]]:
            v -= multiplier * x[r]
        x[j], x[perm[j]] = x[perm[j]], v
    y[:] = x


def condition(a: np.ndarray) -> float:
    """The condition estimate of the compiled `lu_condition`: the
    infinity-norm condition number of a, row-scaled, as norm ||S^-T||_1 by
    Hager's method as LAPACK's dlacn2 runs it."""
    n = len(a)
    t, perm, scale = (f[0] for f in lockstep(a[None], np.zeros((1, n)))[4])
    norm = max(add_up(row) for row in np.abs(a / scale[:, None]).tolist())
    if (t.diagonal() == 0.0).any():
        return math.inf

    def signs(x, xi):
        x[:] = np.where(x >= 0.0, 1.0, -1.0)
        same = bool((x == xi).all())
        xi[:] = x
        return same

    x = np.full(n, 1.0 / n)
    lu_solve_transposed(t, perm, x)
    est = add_up(np.abs(x).tolist())
    if n > 1:
        xi = np.zeros(n)
        signs(x, xi)
        lu_solve(t, perm, x)
        j = int(np.argmax(np.abs(x)))
        for step in range(2, 6):
            x = np.zeros(n)
            x[j] = 1.0
            lu_solve_transposed(t, perm, x)
            old, est = est, add_up(np.abs(x).tolist())
            if signs(x, xi) or est <= old:
                break
            lu_solve(t, perm, x)
            last, j = j, int(np.argmax(np.abs(x)))
            if abs(x[last]) == abs(x[j]):
                break
        x = np.array([(-1.0 if i % 2 else 1.0) * (1.0 + i / (n - 1)) for i in range(n)])
        lu_solve_transposed(t, perm, x)
        est = max(2.0 * add_up(np.abs(x).tolist()) / (3.0 * n), est)
    cond = norm * est
    return cond if cond < math.inf else math.inf


def family_solve(family, levels: np.ndarray) -> dict:
    """`single._Family.solve` on the references: the numpy assembly, the
    lockstep solve, the row sums of `finish_sums` on x read clamped and the
    metrics of `metrics`."""
    x = solve_probability_stack(*family_stack(family, levels))
    return metrics(family, x, levels, *finish_sums(family.K, levels, np.clip(x, 0.0, None)))


def family_scores(family, levels: np.ndarray) -> single.Scores:
    """`single._Family.scores` on the references: the L and energy-rate rows
    of `family_solve`, with its errors."""
    solved = family_solve(family, levels)
    return single.Scores(solved["L"], solved["energy_rate"])


def family_stack(family, levels: np.ndarray):
    """The boundary systems (B, n, n) and right-hand sides (B, n) of the
    profiles in `levels` (B, K + 1) of the `single._Family` family, as the
    compiled `fill_lanes` fills them: balance entry e is c0 + (s_level c1)
    c2 from the family's `at` and `coef`, rows m .. n - 2 are the K
    Maclaurin rows, and the last row is work conservation: the server does
    the arriving work lam E[S] at speed s_min(n, K) whenever n >= 1, so
    sum_{t<K} p_t (s_K - s_t [t >= 1]) = s_K - lam E[S]."""
    K, n = family.K, len(family.layout.states)
    m = K * (K + 1) // 2
    rows, cols, level = family.at.T
    c0, c1, c2 = family.coef.T
    t_of = np.array([i + j for i, j in family.layout.states[:m]])
    top = levels[:, K]
    a = np.zeros((len(levels), n, n))
    a[:, rows, cols] = c0 + (levels[:, level] * c1) * c2
    a[:, m:-1] = family.shared
    a[:, -1, :m] = top[:, None] - levels[:, t_of] * (t_of > 0)
    b = np.zeros((len(levels), n))
    b[:, -1] = top - family.work
    return a, b


def metrics(family, x, levels, p, tail, pi_idle_fg, iw, jw, w_busy) -> dict:
    """The finish of `finish_system` after its row sums, in numpy: the
    metrics of `single._Family.solve` from x, the level masses p, the tail
    mass and the weighted sums of `single._drift_means`."""
    K = family.K
    g0_at_1, L1, L2 = single._drift_means(family.rho1, family.rho2, family.q, pi_idle_fg, iw, jw, w_busy)
    L = L1 + L2

    if family.alpha == 0.0:
        power = (levels != 0.0).astype(float)    # an idle stopped processor draws nothing
    else:
        power = levels**family.alpha
    energy = (p * power[:, :K]).sum(axis=1) + power[:, K] * tail
    return dict(boundary=x, g0_at_1=g0_at_1, L1=L1, L2=L2, L=L, p=p,
                tail_mass=tail, energy_rate=energy)


def finish_sums(K: int, levels: np.ndarray, x: np.ndarray):
    """The row sums of `finish_system` over every profile at once, from the
    clamped solutions x: the level masses p (B, K), then the tail mass,
    pi_idle_fg, iw, jw and w_busy, each (B,).  p[t] is its level's first pi
    plus (-0.0 plus the others in turn); every other sum adds its terms in
    turn to 0.0, by level and then by i."""
    count = len(levels)
    p = np.empty((count, K))
    total, idle, iw, jw, busy = (np.zeros(count) for _ in range(5))
    u = 0
    for t in range(K):
        share, first, rest = 1.0 - levels[:, t] / levels[:, K], x[:, u], np.full(count, -0.0)
        for i in range(t + 1):
            v = x[:, u + i]
            w = share * v
            if i > 0:
                rest = rest + v
            idle = idle + v * (1.0 if i == 0 else 0.0)
            iw = iw + w * float(i)
            jw = jw + w * float(t - i)
            busy = busy + w * (1.0 if i > 0 else 0.0)
        u += t + 1
        p[:, t] = first + rest
        total = total + p[:, t]
    return p, 1.0 - total, idle, iw, jw, busy


# --- the zero search of a pool -----------------------------------------------------


def sturm_sequence(model, z: float) -> list[float]:
    """The leading principal minors Q_0 .. Q_(m-1) of A(z) and its determinant
    D = Q_m, by the recurrence Q_(k+1) = a_k Q_k - alpha_k lam z Q_(k-1) from
    Q_0 = 1.  Only D reads the kernel root, in the last diagonal entry."""
    rates = multi._pool(model).rates.tolist()
    lz, w, zm1 = model.lam * z, 1.0 - model.q + model.q * z, z - 1.0
    diag = [lz + k1 * z + k2 * zm1 for k1, k2 in rates]
    diag[-1] = lz * (1.0 - multi._y1_float(model, z)) + rates[-1][0] * z + model.mu2 * zm1
    seq = [1.0, diag[0]]
    for k in range(1, model.m):
        seq.append(diag[k] * seq[-1] - rates[k][0] * z * w * lz * seq[-2])
    return seq


def sign_changes(seq) -> int:
    """The sign changes along a sequence that starts positive, skipping exact zeros."""
    signs = [x < 0.0 for x in seq if x != 0.0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def isolate_roots(model) -> tuple[tuple[float, ...], int, int]:
    """The zeros of d_roots without its checks, with the number of sign
    counts and of determinant evaluations they took, and each failure's
    type and message, as `multi._setup_compiled` gives them."""
    m = model.m
    dprime = multi.dprime_at_1(model)

    def failure(what: str) -> SolverError:
        return SolverError(f"{what}; D'(1) = {dprime:.6g}")

    # Q_0 .. Q_(m-1) are positive at z = 1 and D(1) = 0, so just below 1 D
    # has the sign of -D'(1)
    counts = [sign_changes(sturm_sequence(model, 0.0)),
              sign_changes(sturm_sequence(model, 1.0)[:-1] + [-dprime])]
    if counts != [m, 1]:
        raise failure(f"Sturm counts read {counts[0]} at z = 0 and {counts[1]} below "
                      f"z = 1, not {m} and 1")
    brackets = []
    stack = [(0.0, 1.0, m, 1)]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo == vhi:
            continue
        # the count at z = 1 is not read at a point, so the top zero's
        # interval is split until D has a value at both of its ends
        if vlo - vhi == 1 and hi < 1.0:
            brackets.append((lo, hi, vlo))
            continue
        mid = 0.5 * (lo + hi)
        v = sign_changes(sturm_sequence(model, mid))
        counts.append(v)
        if not (vhi <= v <= vlo and lo < mid < hi):
            raise failure(f"Sturm counts read {vlo}, {v}, {vhi} at z = {lo:.17g}, "
                          f"{mid:.17g}, {hi:.17g}")
        stack += [(mid, hi, v, vhi), (lo, mid, vlo, v)]

    roots, evals = [], 0
    det, fp = functools.partial(multi._det_at, model), np.finfo(float)
    for lo, hi, v in brackets:
        try:
            zk, res = scipy.optimize.brentq(det, lo, hi, xtol=fp.tiny, rtol=4 * fp.eps,
                                            full_output=True)
        except ValueError as exc:
            raise failure(f"determinant has no sign change on [{lo:.17g}, {hi:.17g}], "
                          f"where the Sturm counts read {v} and {v - 1}") from exc
        roots.append(zk)
        evals += res.function_calls
    return tuple(roots), len(counts), evals


# --- the boundary system of a pool's threshold ----------------------------------------


def pool_fill(model, K: int, pool, states: list):
    """The unscaled boundary system (a, rhs) of threshold K over the kept
    states, in their order, cell by cell in pool_fill's float operations:
    the balance rows of the states i + j <= m - 2, the state (i, j) at row
    col[i, j] - i, as a stopped state on the diagonal i + j = K >= 1 and as
    a running one elsewhere; one row per zero z_k, from the left null vector
    u of A(z_k), where b is orthogonal to u; and the idle-or-stopped server
    identity."""
    lam, mu1, mu2, q, m = model.lam, model.mu1, model.mu2, model.q, model.m
    r, n = pool.rates.tolist(), len(states)
    col = {s: c for c, s in enumerate(states)}
    a, rhs = np.zeros((n, n)), np.zeros(n)
    for i in range(m - 1):
        for j in range(max(0, K - i), m - 1 - i):
            row = a[col[i, j] - i]
            if K and i + j == K:
                row[col[i, j]] = lam
                row[col[i + 1, j]] = -((i + 1) * (1.0 - q) * mu1)
            else:
                row[col[i, j]] = lam + r[i][0] + j * mu2
                if i > 0:
                    row[col[i - 1, j]] = -lam
                row[col[i + 1, j]] = -(r[i + 1][0] * (1.0 - q))
                if j > 0:
                    row[col[i + 1, j - 1]] = -(r[i + 1][0] * q)
            row[col[i, j + 1]] = -((j + 1) * mu2)
    null, zpow, *_ = shared_parts(m, pool.data[1])
    for k, (z, u, zp) in enumerate(zip(pool.roots, null.tolist(), zpow.tolist())):
        zm1, w, row = z - 1.0, 1.0 - q + q * z, a[n - m + k]
        for c, (i, j) in enumerate(states):
            if K and i + j == K:
                own = u[i] * ((r[i][0] * z + r[i][1] * zm1) * zp[j])
                row[c] = u[i - 1] * (-i * mu1 * w * zp[j + 1]) + own if i > 0 else own
            else:
                row[c] = u[i] * (mu2 * zm1 * (m - i - j) * zp[j])
    a[n - 1] = [m if i + j == K else m - i - j for i, j in states]
    rhs[n - 1] = m - model.rho1 - model.rho2
    return a, rhs


def pool_taylor(model, K: int, pool, states: list, x: list) -> np.ndarray:
    """The Taylor vectors b0, b1, b2 (3 x m) of b at z = 1 + t from the
    solved boundary probabilities x, summed from 0 in the order of the
    unknowns: a running state's term of b_i, a stopped state's term of
    b_(i-1) (i >= 1) and then of b_i.  A term (c0 + c1 t) z^p adds c0,
    c0 p + c1 and c0 p (p - 1)/2 + c1 p times its probability to the three
    orders."""
    mu1, mu2, q, m = model.mu1, model.mu2, model.q, model.m
    r, b = pool.rates.tolist(), [0.0] * (3 * m)

    def add(t, c0, c1, p, xc):
        b[t] += c0 * xc
        b[m + t] += (c0 * p + c1) * xc
        b[2 * m + t] += (c0 * p * (p - 1) / 2 + c1 * p) * xc

    for (i, j), xc in zip(states, x):
        if K and i + j == K:
            if i > 0:
                add(i - 1, -i * mu1, -i * mu1 * q, K - i + 1, xc)
            add(i, r[i][0], r[i][0] + r[i][1], K - i, xc)
        else:
            add(i, 0.0, mu2 * (m - i - j), j, xc)
    return np.array(b).reshape(3, m)


def cascade(pool, b: np.ndarray):
    """The Taylor cascade of `fbq_pool_system` from b (3 x m): (status, g
    (2 x m), [u^T b0, max |b0| + max |b1|]), the check taken first.  The
    bordered system [[A0, u], [v^T, 0]] with [b0, 0] is solved by
    `lockstep`, whose first-pass status, if not 0, ends the cascade with g
    None; else [b1 - A1 g0, 0], scaled by its row scales, is solved with
    its factors by `lu_solve`; every product is a sum in turn,
    and a row of A0, A1 or A2 times x sums only the products of the row's
    tridiagonal entries."""
    m = pool.model.m
    _, _, (a0, a1, a2), u, v, uA1v = shared_parts(m, pool.data[1])
    u, v = u.tolist(), v.tolist()
    b0, b1, b2 = b.tolist()

    def dot(x, y):
        return add_up(xi * yi for xi, yi in zip(x, y))

    def row(a, r, x):
        lo, d, up = a
        terms = [lo[r - 1] * x[r - 1]] if r > 0 else []
        terms.append(d[r] * x[r])
        if r + 1 < m:
            terms.append(up[r] * x[r + 1])
        return add_up(terms)

    def u_a_x(a, x):
        return add_up(ur * row(a, r, x) for r, ur in enumerate(u))

    check = [dot(u, b0), max(map(abs, b0)) + max(map(abs, b1))]
    border = np.zeros((m + 1, m + 1))
    border[:m, :m], border[:m, m], border[m, :m] = dense(*a0), u, v
    status, y, _, _, factors = lockstep(border[None], np.array([b0 + [0.0]]))
    if status:
        return status, None, check
    t, perm, scale = (f[0] for f in factors)
    p0 = y[0, :m].tolist()
    c0 = (dot(u, b1) - u_a_x(a1, p0)) / uA1v
    g0 = [p + c0 * vi for p, vi in zip(p0, v)]
    y = np.array([(bi - row(a1, r, g0)) / s for r, (bi, s) in enumerate(zip(b1, scale))] + [0.0])
    lu_solve(t, perm, y)
    p1 = y[:m].tolist()
    c1 = (dot(u, b2) - u_a_x(a2, g0) - u_a_x(a1, p1)) / uA1v
    return 0, np.array([g0, [p + c1 * vi for p, vi in zip(p1, v)]]), check


def solve_rows(model, thresholds, pool, solve=None):
    """`multi._pool_rows` on the references: (x, row) of `solve`
    (`solve_one` if None) at each threshold in turn, until a row fails."""
    out = []
    for K in thresholds:
        x, row = (solve or solve_one)(model, K, pool)
        out.append((x, row))
        if row[multi._STATUS] or row[multi._SINGULAR] >= 0 or row[multi._BELOW] >= 0:
            break
    return out


def solve_one(model, K: int, pool):
    """The boundary probabilities x and the outcome row of threshold K, as
    `fbq_pool_system` writes them: the system of `pool_fill` solved by
    `lockstep`, its status, summary and least pivot on every row, and the
    `condition` estimate of a singular or negative system; else b from
    `pool_taylor` on x read clamped, and the row's cascade and sums from
    `cascade` and `finish`.  x is None where the system fails its first
    pass; it is returned as solved, not clamped."""
    states = [(i, j) for i in range(model.m) for j in range(max(0, K - i), model.m - i)]
    a, rhs = pool_fill(model, K, pool, states)
    status, x, pivmin, summary, _ = lockstep(a[None], rhs[None])
    row = [float(status), *map(float, summary)] + [0.0] * (multi._G + 3 * model.m - multi._PIVMIN)
    if status:
        return None, row
    x = x[0].tolist()
    row[multi._PIVMIN] = float(pivmin[0])
    if summary[0] >= 0 or summary[1] >= 0:
        row[multi._COND] = condition(a)
        return x, row
    clamped = np.clip(x, 0.0, None).tolist()
    b = pool_taylor(model, K, pool, states, clamped)
    return x, finish(model, K, pool, clamped, *cascade(pool, b), row)


def finish(model, K: int, pool, x: list, status: int, g, check: list, row: list) -> list:
    """The rest of threshold K's outcome row after the cascade, as
    `fbq_pool_system` fills it, from the clamped boundary probabilities x:
    the check, then, unless the cascade's status ends the row, g(1) and
    g'(1), and the solvability test, whose failure ends it with status
    `multi._INCONSISTENT`; then the sums of `pool_finish` in Python's float
    order: g_m(1) = r g_(m-1)(1) with r = lam / (m mu1), L1 from
    multi.mmm_marginal at K = 0 and else from the sum of i g_i(1) and the
    saturated tail, L2 from the sum of g'(1) and the tail's derivative
    g(1, z) = g_(m-1)(z) / (y2(z) - 1), p by diagonal in the order of the
    unknowns, U = m (1 - p_K) and the tail mass 1 - sum(p)."""
    lam, mu1, m = model.lam, model.mu1, model.m
    row[multi._RESIDUAL:multi._L1] = check
    if status:
        row[multi._STATUS] = float(status)
        return row
    gv1, gd1 = g.tolist()
    row[multi._G:multi._G + 2 * m] = gv1 + gd1
    residual, scale = check
    if abs(residual) > 1e-7 * max(scale, 1e-300):
        row[multi._STATUS] = float(multi._INCONSISTENT)
        return row
    r = lam / (m * mu1)
    gm1 = r * gv1[m - 1]
    if K == 0:
        _, L1 = multi.mmm_marginal(m, model.rho1)
    else:
        L1 = add_up(i * gv1[i] for i in range(m)) + gm1 * (m * (1.0 - r) + r) / (1.0 - r) ** 2
    _, _, y2v, y2d, _ = pool.data
    L2 = add_up(gd1) + (gd1[m - 1] * (y2v - 1.0) - gv1[m - 1] * y2d) / (y2v - 1.0) ** 2
    p = [0.0] * m
    for (i, j), xc in zip(multi._states(m, K), x):
        p[i + j] += xc
    row[multi._L1:multi._G] = [L1, L2, L1 + L2, m * (1.0 - p[K]), 1.0 - add_up(p), gm1]
    row[multi._G + 2 * m:] = p
    return row


def twisted_null(lo: list, d: list, up: list):
    """The null vector of the tridiagonal matrix (lo, d, up) and its
    relative residual, as the compiled `twisted_null` finds them: the
    pivots from the top and the bottom, an exact zero replaced by the least
    normal float, the twist at the first least |gamma_k|, the vector from
    x_r = 1 divided by its 2-norm."""
    n, tiny = len(d), sys.float_info.min
    dp, dm = [d[0] if d[0] != 0.0 else tiny], [0.0] * n
    for i in range(1, n):
        v = d[i] - lo[i - 1] * up[i - 1] / dp[i - 1]
        dp.append(v if v != 0.0 else tiny)
    dm[n - 1] = d[n - 1] if d[n - 1] != 0.0 else tiny
    for i in reversed(range(n - 1)):
        v = d[i] - lo[i] * up[i] / dm[i + 1]
        dm[i] = v if v != 0.0 else tiny
    gammas = [dp[k] + dm[k] - d[k] for k in range(n)]
    r = min(range(n), key=lambda k: (abs(gammas[k]), k))
    x = [0.0] * n
    x[r] = 1.0
    for i in reversed(range(r)):
        x[i] = -up[i] * x[i + 1] / dp[i]
    for i in range(r + 1, n):
        x[i] = -lo[i - 1] * x[i - 1] / dm[i]
    norm = math.sqrt(add_up(xi * xi for xi in x))
    frob = math.sqrt(add_up([di * di for di in d] + [a * a + b * b for a, b in zip(lo, up)]))
    ratio = 0.0 if frob == 0.0 else abs(gammas[r]) / (norm * frob)
    return [xi / norm for xi in x], ratio


def null_vectors(lo: np.ndarray, d: np.ndarray, up: np.ndarray):
    """`twisted_null` on a stack of tridiagonal matrices: their null vectors
    and relative residuals."""
    found = [twisted_null(*rows) for rows in zip(np.asarray(lo).tolist(), d.tolist(), np.asarray(up).tolist())]
    return np.array([x for x, _ in found]).reshape(d.shape), np.array([ratio for _, ratio in found])


def singular_nulls(lo: np.ndarray, d: np.ndarray, up: np.ndarray) -> np.ndarray:
    """The unit null vectors of null_vectors; SolverError names the
    residual of the first matrix whose residual is above SINGULAR_RTOL."""
    x, ratio = null_vectors(lo, d, up)
    bad = np.flatnonzero(~(ratio <= multi.SINGULAR_RTOL))
    if bad.size:
        raise SolverError(f"matrix expected singular has a null-vector residual of "
                          f"{ratio[bad[0]]:.3e} times its norm")
    return x


def tridiagonal(model, z: np.ndarray):
    """The subdiagonal, diagonal and superdiagonal of A(z_k) for each entry
    of the 1-D array z, one row per z_k: the entries of multi._det_at, with
    the same rounding."""
    lam, mu1, mu2, q, m = model.lam, model.mu1, model.mu2, model.q, model.m
    y1 = np.array([multi._y1_float(model, zk) for zk in z.tolist()])[:, None]
    z = z[:, None]
    zm1, i = z - 1.0, np.arange(m)
    diag = lam * z + i * mu1 * z + (m - i) * mu2 * zm1
    diag[:, -1] = (lam * z * (1.0 - y1) + (m - 1) * mu1 * z + mu2 * zm1)[:, 0]
    above = -(i[1:] * mu1 * z * (1.0 - q + q * z))
    return np.broadcast_to(-lam * z, above.shape), diag, above


def pool_setup(model, c1: float, c2: float) -> tuple:
    """`multi._setup_compiled` in Python: `isolate_roots`, then `pool_data`
    at its zeros, with their errors; the zeros go to the pool's work, where
    `fbq_pool_data` writes them."""
    m = model.m
    roots, counts, evals = isolate_roots(model)
    multi._pool(model).work[2 * m:3 * m - 1] = roots
    return roots, counts, evals, pool_data(model, np.array(roots), c1, c2)


def pool_data(model, zeros: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """The shared data of `multi._setup_compiled`, with its errors: the
    left null vectors of A(z_k) at the zeros and the powers z_k^j, then A0,
    A1, A2 of A(z) = A0 + A1 t + A2 t^2 + ..., t = z - 1, as closed forms in
    c1 and c2, A0's null pair u, v and u^T A1 v, packed as `shared_parts`
    reads them."""
    lam, mu1, mu2, q, m = model.lam, model.mu1, model.mu2, model.q, model.m
    below, diag, above = tridiagonal(model, zeros)
    null = singular_nulls(above, diag, below)     # the right null vectors of A(z_k)^T
    zpow = np.array([[zk**j for j in range(m)] for zk in zeros.tolist()]).reshape(null.shape)

    # The diagonal is a_i = (lam + i mu1) z + (m - i) mu2 t, except the
    # last entry lam z (1 - y1(z)) + (m - 1) mu1 z + mu2 t; above it stands
    # -alpha_(i+1) = -(i + 1) mu1 z (1 - q + q z), below it -lam z.
    i = np.arange(m)
    diag = np.array([lam + i * mu1, lam + i * mu1 + (m - i) * mu2, np.zeros(m)])
    diag[:, -1] = ((m - 1) * mu1, (m - 1) * mu1 + mu2 - lam * c1, -lam * (c1 + c2))
    above = [-i[1:] * mu1 * f for f in (1.0, 1.0 + q, q)]
    below = [np.full(m - 1, -lam * f) for f in (1.0, 1.0, 0.0)]

    # the left null vector of A0 is the right one of its transpose
    u, v = singular_nulls(np.array([above[0], below[0]]), np.array([diag[0]] * 2),
                          np.array([below[0], above[0]]))
    # u^T A1 v by rows, each row's three entries summed in turn
    uA1v, vs = 0.0, [0.0, *v.tolist(), 0.0]
    for r, (ur, lo, d, up) in enumerate(zip(u.tolist(), [0.0, *below[1].tolist()], diag[1].tolist(),
                                            [*above[1].tolist(), 0.0])):
        uA1v += ur * (lo * vs[r] + d * vs[r + 1] + up * vs[r + 2])
    if abs(uA1v) < 1e-12 * np.abs(np.concatenate([below[1], diag[1], above[1]])).max():
        raise SolverError("transform system is degenerate at z = 1 (vanishing drift)")
    return np.concatenate([null.ravel(), zpow.ravel(), *(np.concatenate(t) for t in zip(below, diag, above)),
                           u, v, [uA1v]])


def shared_parts(m: int, shared: np.ndarray):
    """The parts of the shared data of an m-server pool (`pool_data`): the
    null vectors and the powers at the zeros, (m - 1) x m each; A0, A1 and
    A2, each as its (subdiagonal, diagonal, superdiagonal); u, v and
    u^T A1 v."""
    null, zpow = shared[:2 * (m - 1) * m].reshape(2, m - 1, m)
    tri = shared[2 * (m - 1) * m:-2 * m - 1].reshape(3, 3 * m - 2)
    u, v = shared[-2 * m - 1:-1].reshape(2, m)
    return null, zpow, [tuple(np.split(t, [m - 1, 2 * m - 1])) for t in tri], u, v, float(shared[-1])


def dense(lo, d, up) -> np.ndarray:
    """The tridiagonal matrix (lo, d, up) of `twisted_null` as a dense matrix."""
    return np.diag(d) + np.diag(up, 1) + np.diag(lo, -1)


def dense_matrix(model, z: float) -> np.ndarray:
    """A(z) at a real z, from the entries of `tridiagonal`."""
    return dense(*(x[0] for x in tridiagonal(model, np.array([z]))))


# --- the band system of the CTMC oracle --------------------------------------------


def transitions(lam, q, fg, bg):
    """Generator entries (from, to, rate) on the grid of the rate arrays.

    `fg[i, j]` and `bg[i, j]` are the foreground and background completion
    rates in state (i, j), 0 <= i <= n1, 0 <= j <= n2, zero where that class
    is not served.  Arrivals at i = n1 are blocked.  A foreground completion
    leaves with probability 1 - q and joins the background queue with
    probability q; on the edge j = n2 it joins as (i - 1, n2).
    """
    n1, n2 = fg.shape[0] - 1, fg.shape[1] - 1
    i, j = np.indices(fg.shape)
    src = i * (n2 + 1) + j
    moves = (
        (i < n1, src + (n2 + 1), np.full(src.shape, float(lam))),
        (i > 0, src - (n2 + 1), fg * (1.0 - q)),
        (i > 0, src - (n2 + 1) + (j < n2), fg * q),
        (j > 0, src - 1, bg),
    )
    rows, cols, rates = [], [], []
    for allowed, dst, rate in moves:
        keep = allowed & (rate > 0.0)
        rows.append(src[keep])
        cols.append(dst[keep])
        rates.append(rate[keep])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(rates)


def band_system(lam, q, fg, bg, fixed):
    """The system of `fbq_ctmc_rectangle` from the generator entries of
    `transitions`: the states that `fixed` reaches, by a breadth-first
    search of the transition graph, numbered along the short axis first,
    and their balance equations, scattered into dgbsv's band layout by
    bincounts, which sum each cell in move order, and as a CSC matrix.
    Returns the unknown states in numbering order, ab, kl, ku, b and the
    CSC matrix."""
    rows, cols, rates = transitions(lam, q, fg, bg)
    (n1, n2), nstates = (fg.shape[0] - 1, fg.shape[1] - 1), fg.size
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(nstates, nstates))
    live = csgraph.breadth_first_order(graph, fixed, return_predecessors=False)
    unknown = live[live != fixed]
    i, j = np.divmod(unknown, n2 + 1)
    unknown = unknown[np.argsort(j * (n1 + 1) + i if n2 > n1 else unknown)]
    pos = np.full(nstates, -1)
    pos[unknown] = np.arange(unknown.size)
    at_from, at_to = pos[rows], pos[cols]
    inner = (at_from >= 0) & (at_to >= 0)
    diag = np.arange(unknown.size)
    outflow = np.bincount(rows, weights=rates, minlength=nstates)
    # balance of every unknown state: inflow from the other unknowns minus
    # its own outflow equals minus the inflow from the fixed state; the
    # diagonal is summed from 0.0 too, so an absorbing state gets +0.0
    values = np.concatenate([rates[inner], 0.0 - outflow[unknown]])
    eq, var = np.concatenate([at_to[inner], diag]), np.concatenate([at_from[inner], diag])
    fed = (rows == fixed) & (at_to >= 0)
    b = -np.bincount(at_to[fed], weights=rates[fed], minlength=unknown.size)
    kl, ku = int((eq - var).max(initial=0)), int((var - eq).max(initial=0))
    height = 2 * kl + ku + 1
    # entry (r, c) sits in row kl + ku + r - c of column c of the band
    # layout; the first kl rows are dgbsv's room for fill
    ab = np.bincount(var * height + kl + ku + eq - var, weights=values, minlength=unknown.size * height)
    a = sp.csc_matrix((values, (eq, var)), shape=(unknown.size,) * 2)
    return unknown, ab.reshape(unknown.size, height).T, kl, ku, b, a


def rectangle(lam, q, fg, bg, fixed, band):
    """`ctmc._rectangle` in numpy: the system of `band_system`, solved with
    `band` by scipy's dgbsv.  Returns whether dgbsv met a zero pivot, the
    unknown states, and then with `band` the solution and (kl, ku), without
    it the right-hand side and the CSC matrix."""
    unknown, ab, kl, ku, b, a = band_system(lam, q, fg, bg, fixed)
    if not band:
        return False, unknown, b, a
    if not unknown.size:
        return False, unknown, b, (kl, ku)
    _, _, x, info = lapack.dgbsv(kl, ku, ab, b[:, None], overwrite_ab=1, overwrite_b=1)
    return info > 0, unknown, x[:, 0], (kl, ku)


# (owner, name, reference) of each compiled entry point
REFERENCES = (
    (simulation, "_jump_chain", replications),
    (single._Family, "solve", family_solve),
    (single._Family, "scores", family_scores),
    (multi, "_setup_compiled", pool_setup),
    (multi, "_pool_rows", solve_rows),
    (ctmc, "_rectangle", rectangle),
)
