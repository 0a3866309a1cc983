"""The Python references of the compiled loops of `fbq._kernels`.

Each function here is the specification that one loop of `_kernels.c` is
tested against bit for bit: it does the loop's float operations in the
loop's order, so the two give equal results, errors included.

* `run`: the jump chain of `fbq_jump_chain`, behind `simulate._jump_chain`.
* `lockstep` and `solve_probability_stack`: the elimination of
  `fbq_speed_family` and `fbq_pool_system`; `family_solve` is the whole
  family loop, with the systems of `single._Family._stack` and the row sums
  of `finish_sums`.
* `factor`, `lu_solve` and `lu_solve_transposed`: one system's elimination
  with its factors kept, and the solves with them; `condition` is the
  condition estimate of `fbq_condition`, behind `linsys._condition`.
* `sturm_sequence`, `sign_changes` and `isolate_roots`: the zero search of
  `fbq_pool_roots`, behind `multi._roots_compiled`.
* `pool_data`: the data that `fbq_pool_data` builds for every threshold of
  a pool, behind `multi._data_compiled`, on `tridiagonal` (A(z) at the
  zeros) and the twisted factorisations of `twisted_null` and
  `null_vectors`; `shared_parts` splits that data into its parts.
* `pool_fill`, `pool_taylor` and `cascade`: the boundary fill, the z = 1
  Taylor sums and the Taylor cascade of `fbq_pool_system`; `solve_one` is
  `multi._solve_one` on them.
* `band_system`: the band system of `fbq_ctmc_band`, behind
  `ctmc._band_compiled`.

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

from fbq import ctmc, linsys, multi, single
from fbq.models import FrozenDict, SolverError

SIMULATE = sys.modules["fbq.simulate"]   # fbq.simulate is the function the package exports


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
    return linsys._checked(lambda k: condition(a[k]), *lockstep(a, b))


def lockstep(a: np.ndarray, b: np.ndarray):
    """The elimination of the compiled `fbq_speed_family`, over the whole stack at once:
    (status, x, pivmin, summary) as `linsys._summary` gives it, where status
    is 0, _NOT_FINITE or _ZERO_ROW and pivmin holds each system's smallest
    |pivot|.  For each column j the pivot is the first largest |t_rj|,
    r >= j, rows r and j swap, and each row below loses t_rj / t_jj times
    row j (a zero pivot divides by 1); back substitution then runs column by
    column."""
    status, scale = linsys._first_pass(a, b)
    if status:
        return status, None, None, linsys._NO_SUMMARY
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
    return 0, y, pivmin, linsys._summary(y, pivmin)


def factor(a: np.ndarray, y: np.ndarray):
    """The elimination of `lockstep` on one system, on copies of a and y,
    with its factors kept as the compiled `lu_tile` keeps them: (t, y, perm,
    scale, norm), where t holds U on and above the diagonal and each
    multiplier l in place of the t_rj it eliminated, y the solution, perm
    the pivot row of each column, scale each row's largest |a_ij| and norm
    the infinity norm of the row-scaled system, each row's |a_ij| / scale
    summed in turn.  Rows swap from the pivot's column on."""
    t, y = np.array(a, dtype=float), np.array(y, dtype=float)
    n = len(y)
    scale = np.abs(t).max(axis=1)
    t /= scale[:, None]
    y /= scale
    norm = max(add_up(row) for row in np.abs(t).tolist())
    perm = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(n):
            p = j + int(np.argmax(np.abs(t[j:, j])))
            t[[j, p], j:] = t[[p, j], j:]
            y[[j, p]] = y[[p, j]]
            perm.append(p)
            l = t[j + 1:, j] / (1.0 if t[j, j] == 0.0 else t[j, j])
            t[j + 1:, j] = l
            t[j + 1:, j + 1:] -= l[:, None] * t[j, j + 1:]
            y[j + 1:] -= l * y[j]
        for j in reversed(range(n)):
            y[j] /= t[j, j]
            y[:j] -= t[:j, j] * y[j]
    return t, y, perm, scale, norm


def add_up(values) -> float:
    """The values added in turn to 0.0, as the compiled loops sum."""
    total = 0.0
    for v in values:
        total += v
    return total


def lu_solve(t: np.ndarray, perm: list, y: np.ndarray) -> None:
    """S x = y in place, with the factors of `factor`: its steps on y, then
    the back substitution."""
    for j, p in enumerate(perm):
        y[[j, p]] = y[[p, j]]
        y[j + 1:] -= t[j + 1:, j] * y[j]
    for j in reversed(range(len(y))):
        y[j] /= t[j, j]
        y[:j] -= t[:j, j] * y[j]


def lu_solve_transposed(t: np.ndarray, perm: list, y: np.ndarray) -> None:
    """S^T x = y in place: U^T column by column, then the transposes of
    the steps in reverse, each a sum over the rows below in turn."""
    n = len(y)
    for j in range(n):
        y[j] /= t[j, j]
        y[j + 1:] -= t[j, j + 1:] * y[j]
    low = t.tolist()
    for j in reversed(range(n)):
        v = float(y[j])
        for r in range(j + 1, n):
            v -= low[r][j] * float(y[r])
        y[j], y[perm[j]] = y[perm[j]], v


def condition(a: np.ndarray) -> float:
    """The condition estimate of the compiled `fbq_condition`: the
    infinity-norm condition number of a, row-scaled, as norm ||S^-T||_1 by
    Hager's method as LAPACK's dlacn2 runs it."""
    n = len(a)
    t, _, perm, _, norm = factor(a, np.zeros(n))
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
    lockstep solve and the row sums of `finish_sums`."""
    x = solve_probability_stack(*family._stack(levels))
    return family._metrics(x, levels, *finish_sums(family.K, levels, x))


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
    type and message, as `multi._roots_compiled` gives them."""
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
    """The Taylor cascade of `fbq_pool_system` from b (3 x m): g (2 x m)
    and the solvability check's [u^T b0, max |b0| + max |b1|].  The
    bordered system [[A0, u], [v^T, 0]] is factored with [b0, 0] by
    `factor`, and [b1 - A1 g0, 0], scaled by its row scales, solved by
    `lu_solve`; every product is a sum in turn, and a row of A0, A1 or A2
    times x sums only the products of the row's tridiagonal entries."""
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
    t, y, perm, scale, _ = factor(border, b0 + [0.0])
    p0 = y[:m].tolist()
    c0 = (dot(u, b1) - u_a_x(a1, p0)) / uA1v
    g0 = [p + c0 * vi for p, vi in zip(p0, v)]
    y = np.array([(bi - row(a1, r, g0)) / s for r, (bi, s) in enumerate(zip(b1, scale))] + [0.0])
    lu_solve(t, perm, y)
    p1 = y[:m].tolist()
    c1 = (dot(u, b2) - u_a_x(a2, g0) - u_a_x(a1, p1)) / uA1v
    return np.array([g0, [p + c1 * vi for p, vi in zip(p1, v)]]), check


def solve_one(model, K: int, pool, loop=None):
    """`multi._solve_one` on the references: the system of `pool_fill`
    solved by `lockstep`, with the errors of `linsys._checked` and the
    condition estimate of `condition`, then b from `pool_taylor` and g
    from `cascade`."""
    states = [(i, j) for i in range(model.m) for j in range(max(0, K - i), model.m - i)]
    a, rhs = pool_fill(model, K, pool, states)
    x = linsys._checked(lambda k: condition(a), *lockstep(a[None], rhs[None]))[0].tolist()
    g, check = cascade(pool, pool_taylor(model, K, pool, states, x))
    return multi._finish(model, K, FrozenDict(zip(states, x)), g, check, pool)


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


def pool_data(model, zeros: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """`multi._data_compiled` in Python, with its errors: the left null
    vectors of A(z_k) at the zeros and the powers z_k^j, then A0, A1, A2
    of A(z) = A0 + A1 t + A2 t^2 + ..., t = z - 1, as closed forms in c1 and
    c2, A0's null pair u, v and u^T A1 v, packed as `shared_parts` reads
    them."""
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


def band_system(lam, q, fg, bg, fixed):
    """`ctmc._band_compiled` from the generator entries of
    `ctmc._transitions`: the states that `fixed` reaches, by a breadth-first
    search of the transition graph, numbered along the short axis first,
    and the band system of their balance equations, scattered into dgbsv's
    layout by bincounts, which sum each cell in move order.  Returns the
    unknown states in numbering order, ab, kl, ku and b, or None when
    `fixed` reaches no other state."""
    rows, cols, rates = ctmc._transitions(lam, q, fg, bg)
    (n1, n2), nstates = (fg.shape[0] - 1, fg.shape[1] - 1), fg.size
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(nstates, nstates))
    live = csgraph.breadth_first_order(graph, fixed, return_predecessors=False)
    unknown = live[live != fixed]
    if not unknown.size:
        return None
    i, j = np.divmod(unknown, n2 + 1)
    unknown = unknown[np.argsort(j * (n1 + 1) + i if n2 > n1 else unknown)]
    pos = np.full(nstates, -1)
    pos[unknown] = np.arange(unknown.size)
    at_from, at_to = pos[rows], pos[cols]
    inner = (at_from >= 0) & (at_to >= 0)
    diag = np.arange(unknown.size)
    outflow = np.bincount(rows, weights=rates, minlength=nstates)
    # balance of every unknown state: inflow from the other unknowns minus
    # its own outflow equals minus the inflow from the fixed state
    values = np.concatenate([rates[inner], -outflow[unknown]])
    eq, var = np.concatenate([at_to[inner], diag]), np.concatenate([at_from[inner], diag])
    fed = (rows == fixed) & (at_to >= 0)
    b = -np.bincount(at_to[fed], weights=rates[fed], minlength=unknown.size)
    kl, ku = int((eq - var).max()), int((var - eq).max())
    height = 2 * kl + ku + 1
    # entry (r, c) sits in row kl + ku + r - c of column c of the band
    # layout; the first kl rows are dgbsv's room for fill
    ab = np.bincount(var * height + kl + ku + eq - var, weights=values, minlength=unknown.size * height)
    return unknown, ab.reshape(unknown.size, height).T, kl, ku, b


# (owner, name, reference) of each compiled entry point
REFERENCES = (
    (SIMULATE, "_jump_chain", run),
    (single._Family, "solve", family_solve),
    (multi, "_roots_compiled", isolate_roots),
    (multi, "_data_compiled", pool_data),
    (multi, "_solve_one", solve_one),
    (linsys, "_condition", condition),
    (ctmc, "_band_compiled", band_system),
)
