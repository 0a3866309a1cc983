"""A 50-digit reference of the exact pool formulation of fbq.multi.

The same closure as the float solver, in mpmath at 50 digits: the zeros of
the transform determinant refined by `mp.findroot` from the float zeros, the
left null vector of A(z_k) at each zero from the column equations, the
boundary system of a threshold solved by `mp.lu_solve`, and the Taylor
cascade of A(z) g(z) = b(z) at z = 1, with the Taylor coefficients of A(z)
taken by `mp.taylor` and the particular solutions from the bordered system
[[A0, u], [v^T, 0]].  It shares no code with fbq beyond the model's
parameters and the float zeros it starts from.

Run as a script from the root of a checkout, it writes
`tests/data/pool_50_digits.json`: for each pool of
`threshold_sweep_pins.json` and each threshold K, L1, L2, U, g(1) and the
total-count marginal p to 30 significant digits.  That takes about 20 s
on one CPU; Tier-1 only reads the file.

    PYTHONPATH=src python tests/pool_50_digits.py
"""

import json
import pathlib
import sys

import mpmath as mp

DATA = pathlib.Path(__file__).parent / "data"
DIGITS = 50
KEPT = 30   # significant digits written to the pin file


def params(model):
    return tuple(mp.mpf(x) for x in (model.lam, model.mu1, model.mu2, model.q)) + (model.m,)


def y1(model, z):
    lam, mu1, _, q, m = params(model)
    rho = lam / (m * mu1)
    return (1 + rho - mp.sqrt((1 - rho) ** 2 - 4 * rho * q * (z - 1))) / (2 * rho)


def entries(model, z):
    """The diagonal, superdiagonal and subdiagonal of A(z)."""
    lam, mu1, mu2, q, m = params(model)
    diag = [lam * z + i * mu1 * z + (m - i) * mu2 * (z - 1) for i in range(m)]
    diag[-1] = lam * z * (1 - y1(model, z)) + (m - 1) * mu1 * z + mu2 * (z - 1)
    above = [-(i + 1) * mu1 * z * (1 - q + q * z) for i in range(m - 1)]
    below = [-lam * z] * (m - 1)
    return diag, above, below


def det(model, z):
    diag, above, below = entries(model, z)
    prev, cur = mp.mpf(1), diag[0]
    for k in range(1, model.m):
        prev, cur = cur, diag[k] * cur - above[k - 1] * below[k - 1] * prev
    return cur


def left_null(diag, above, below):
    """u with u^T A = 0, from column c's equation u_(c-1) a_(c-1,c) +
    u_c a_cc + u_(c+1) a_(c+1,c) = 0, solved for u_(c+1); the last column's
    equation holds where A is singular."""
    u = [mp.mpf(1)]
    for c in range(len(diag) - 1):
        rest = u[c] * diag[c] + (u[c - 1] * above[c - 1] if c else 0)
        u.append(-rest / below[c])
    return u


def right_null(diag, above, below):
    """v with A v = 0, from row r's equation, solved for v_(r+1)."""
    v = [mp.mpf(1)]
    for r in range(len(diag) - 1):
        rest = v[r] * diag[r] + (v[r - 1] * below[r - 1] if r else 0)
        v.append(-rest / above[r])
    return v


def zeros(model, float_zeros):
    return [mp.findroot(lambda z: det(model, z), mp.mpf(z0)) for z0 in float_zeros]


def b_terms(model, K, i, j):
    """The terms (row t of b, c0, c1, power p) of state (i, j) in b(z),
    each c0 z^p + c1 (z - 1) z^p: a running state's
    mu2 (z - 1)(m - i - j) z^j in b_i; a stopped state's
    (i mu1 z + (m - i) mu2 (z - 1)) z^j in b_i and
    -i mu1 (1 - q + q z) z^(j+1) in b_(i-1)."""
    _, mu1, mu2, q, m = params(model)
    if K and i + j == K:
        terms = [(i, i * mu1, i * mu1 + (m - i) * mu2, j)]
        if i > 0:
            terms.append((i - 1, -i * mu1, -i * mu1 * q, j + 1))
        return terms
    return [(i, mp.mpf(0), mu2 * (m - i - j), j)]


def boundary(model, K, roots):
    """The boundary probabilities of threshold K by `mp.lu_solve`."""
    lam, mu1, mu2, q, m = params(model)
    states = [(i, j) for i in range(m) for j in range(max(0, K - i), m - i)]
    col = {s: c for c, s in enumerate(states)}
    n = len(states)
    a, rhs = mp.zeros(n, n), mp.zeros(n, 1)
    row = 0
    for i in range(m - 1):
        for j in range(max(0, K - i), m - 1 - i):
            if K and i + j == K:
                a[row, col[i, j]] = lam
                a[row, col[i + 1, j]] = -(i + 1) * (1 - q) * mu1
            else:
                a[row, col[i, j]] = lam + i * mu1 + j * mu2
                if i > 0:
                    a[row, col[i - 1, j]] = -lam
                a[row, col[i + 1, j]] = -(i + 1) * mu1 * (1 - q)
                if j > 0:
                    a[row, col[i + 1, j - 1]] = -(i + 1) * mu1 * q
            a[row, col[i, j + 1]] = -(j + 1) * mu2
            row += 1
    for z in roots:
        u = left_null(*entries(model, z))
        for (i, j), c in col.items():
            a[row, c] = sum(u[t] * (c0 + c1 * (z - 1)) * z**p for t, c0, c1, p in b_terms(model, K, i, j))
        row += 1
    for (i, j), c in col.items():
        a[row, c] = m if i + j == K else m - i - j
    rhs[row] = m - lam / mu1 - lam * q / mu2
    x = mp.lu_solve(a, rhs)
    return {s: x[c] for s, c in col.items()}


def taylor_b(model, K, x):
    """b0, b1, b2 of b(z) at z = 1 + t."""
    m = model.m
    b = [[mp.mpf(0)] * m for _ in range(3)]
    for (i, j), xc in x.items():
        for t, c0, c1, p in b_terms(model, K, i, j):
            b[0][t] += c0 * xc
            b[1][t] += (c0 * p + c1) * xc
            b[2][t] += (c0 * mp.binomial(p, 2) + c1 * p) * xc
    return b


def at_one(model):
    """A0, A1, A2 (dense) with A0's null pair and y2(1), y2'(1)."""
    m = model.m
    coeffs = [[[mp.mpf(0)] * m for _ in range(m)] for _ in range(3)]

    def entry(r, c):
        if r == c:
            return lambda z: entries(model, z)[0][r]
        if c == r + 1:
            return lambda z: entries(model, z)[1][r]
        return lambda z: entries(model, z)[2][c]

    for r in range(m):
        for c in range(max(0, r - 1), min(m, r + 2)):
            for order, value in enumerate(mp.taylor(entry(r, c), 1, 2)):
                coeffs[order][r][c] = value
    a0 = coeffs[0]
    diag = [a0[i][i] for i in range(m)]
    above = [a0[i][i + 1] for i in range(m - 1)]
    below = [a0[i + 1][i] for i in range(m - 1)]
    lam, mu1, _, q, _ = params(model)
    rho = lam / (m * mu1)
    y2 = mp.taylor(lambda z: (1 + rho) / rho - y1(model, z), 1, 1)
    return coeffs, left_null(diag, above, below), right_null(diag, above, below), y2


def mat_vec(a, x):
    return [mp.fsum(a[r][c] * x[c] for c in range(len(x))) for r in range(len(a))]


def dot(u, x):
    return mp.fsum(ui * xi for ui, xi in zip(u, x))


def cascade(model, b, one):
    """g(1) and g'(1): each order's particular solution from the bordered
    system, completed by the null vector v so that the next order is
    solvable."""
    (a0, a1, a2), u, v, _ = one
    m = model.m
    border = mp.zeros(m + 1, m + 1)
    for r in range(m):
        for c in range(m):
            border[r, c] = a0[r][c]
        border[r, m] = u[r]
        border[m, r] = v[r]

    def particular(rhs):
        x = mp.lu_solve(border, mp.matrix(list(rhs) + [0]))
        return [x[i] for i in range(m)]

    uA1v = dot(u, mat_vec(a1, v))
    p0 = particular(b[0])
    c0 = (dot(u, b[1]) - dot(u, mat_vec(a1, p0))) / uA1v
    g0 = [p + c0 * vi for p, vi in zip(p0, v)]
    p1 = particular([bi - ai for bi, ai in zip(b[1], mat_vec(a1, g0))])
    c1 = (dot(u, b[2]) - dot(u, mat_vec(a2, g0)) - dot(u, mat_vec(a1, p1))) / uA1v
    return g0, [p + c1 * vi for p, vi in zip(p1, v)]


def erlang_L1(model):
    lam, mu1, _, _, m = params(model)
    rho1 = lam / mu1
    p0 = 1 / (mp.fsum(rho1**k / mp.factorial(k) for k in range(m))
              + m * rho1**m / ((m - rho1) * mp.factorial(m)))
    rr = rho1 / m
    return rho1 + p0 * rho1**m / mp.factorial(m) * rr / (1 - rr) ** 2


def solve(model, K, roots, one):
    """L1, L2, U, g(1) and p of threshold K."""
    lam, mu1, _, _, m = params(model)
    x = boundary(model, K, roots)
    g0, g1 = cascade(model, taylor_b(model, K, x), one)
    r = lam / (m * mu1)
    gm1 = r * g0[m - 1]
    if K == 0:
        L1 = erlang_L1(model)
    else:
        L1 = mp.fsum(i * g0[i] for i in range(m)) + gm1 * (m * (1 - r) + r) / (1 - r) ** 2
    y2v, y2d = one[3]
    L2 = mp.fsum(g1) + (g1[m - 1] * (y2v - 1) - g0[m - 1] * y2d) / (y2v - 1) ** 2
    p = [mp.fsum(x.get((i, t - i), 0) for i in range(t + 1)) for t in range(m)]
    return {"L1": L1, "L2": L2, "U": m * (1 - p[K]), "g_at_1": g0, "p": p}


def pool(model, float_zeros):
    """Every threshold of the pool, its values as strings of KEPT digits."""
    with mp.workdps(DIGITS):
        roots = zeros(model, float_zeros)
        one = at_one(model)
        out = []
        for K in range(model.m):
            sol = solve(model, K, roots, one)
            out.append({k: [mp.nstr(x, KEPT) for x in v] if isinstance(v, list) else mp.nstr(v, KEPT)
                        for k, v in sol.items()})
    return out


def main():
    from fbq.models import MultiServerModel
    from fbq.multi import d_roots

    pins = json.loads((DATA / "threshold_sweep_pins.json").read_text())["pools"]
    out = {}
    for name, spec in sorted(pins.items()):
        model = MultiServerModel(**spec)
        out[name] = {"pool": spec, "thresholds": pool(model, d_roots(model))}
        print(name, file=sys.stderr)
    (DATA / "pool_50_digits.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
