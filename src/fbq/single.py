"""Exact steady state of the speed-modulated single-server two-queue system.

The chain is solved by the transform method: over the saturated region
(total count >= K) the stationary probabilities are carried by generating
functions whose two-dimensional transform kernel has a small root y1(z); the
finite set of unknowns pi_{i,j} with i+j <= K is pinned down by a dense
linear system made of

  * the balance equations of the sub-threshold states (i+j < K),
  * K vanishing-coefficient conditions at z = 0, which force the
    foreground-empty generating function to start at order z^K, and
  * one work-conservation row: the server does the arriving work lam E[S]
    at speed s_min(n,K) whenever n >= 1 jobs are present, which fixes the
    scale of the solution as the idle-server identity does for the pool.

The mean counts L1, L2 and the saturated foreground-empty mass g0(1) follow
in closed form from the solved sub-threshold probabilities: the stationary
drifts of i, i^2, i*j and j^2 vanish (rate conservation; Miyazawa 1994), and
only the speed deficit 1 - s_{i+j}/s_K of the states below K enters them, so
no limit at z = 1 is taken.  Closed forms are provided for the two-speed case
K = 1 and for profiles whose sub-threshold speeds are all zero.

Profiles that share (lambda, service, s_0, s_K, K) share everything but the
sub-threshold balance rows and the work-conservation row, so
solve_speed_family solves a whole family of them at once; solve_general is
its one-profile case.  At q = 1 the Maclaurin conditions vanish identically,
so the general solver rejects it; the closed forms cover q = 1.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .linsys import NEG_PROB_TOL, PIVOT_RTOL, _checked, _condition
from .models import (
    CostCoefficients,
    FrozenDict,
    SingleServerModel,
    ModelError,
    frozen,
    require_stable_single,
    solution_json,
)
from .series import PowerSeries, divide, kernel_root_series

log = logging.getLogger("fbq.single")


@dataclass(frozen=True)
class SingleServerSolution:
    """Stationary metrics of a solved single-server model."""

    boundary: FrozenDict          # (i, j) -> pi_{i,j} for i + j <= K
    g0_at_1: float                # foreground-empty saturated mass; absolute, not relative, accuracy
    L1: float                     # mean foreground jobs
    L2: float                     # mean background jobs
    L: float                      # mean total jobs
    p: tuple[float, ...]          # total-count marginal p_0 .. p_{K-1}
    tail_mass: float              # P(total >= K) = 1 - sum(p); absolute, not relative, accuracy
    energy_rate: float            # sum_n p_n s_n^alpha + s_K^alpha * tail

    def to_json(self) -> dict:
        return solution_json(self)


def _stable_y1_at_0(rho: float, q: float) -> float:
    # rationalised root: no cancellation when q -> 1 drives the root to 0
    disc = (1.0 + rho) ** 2 - 4.0 * rho * (1.0 - q)
    return 2.0 * (1.0 - q) / (1.0 + rho + math.sqrt(disc))


def solve_general(model: SingleServerModel) -> SingleServerSolution:
    """Exact solution for an arbitrary speed staircase (positive above idle).

    Speeds s_1 .. s_K must be positive; all-zero sub-threshold profiles have
    their own closed form in solve_zero_speed.  This is the one-profile
    family of solve_speed_family.
    """
    return solve_speed_family(model, [model.speeds.levels[1:-1]]).solution(0)


@dataclass(frozen=True, eq=False)
class SpeedFamilySolution:
    """Stationary metrics of a family of speed profiles, one read-only row per profile."""

    levels: np.ndarray       # (B, K+1) speed levels s_0 .. s_K
    boundary: np.ndarray     # (B, (K+1)(K+2)/2) pi_{i,j} by level i+j, then by i
    g0_at_1: np.ndarray      # each field below is (B,) unless noted
    L1: np.ndarray
    L2: np.ndarray
    L: np.ndarray
    p: np.ndarray            # (B, K)
    tail_mass: np.ndarray
    energy_rate: np.ndarray

    def __post_init__(self):
        for array in vars(self).values():
            frozen(array)

    def __reduce__(self):      # through __init__, so that copies are read-only too
        return SpeedFamilySolution, tuple(vars(self).values())

    def solution(self, k: int) -> SingleServerSolution:
        """The SingleServerSolution of profile k."""
        K = self.levels.shape[1] - 1
        return SingleServerSolution(
            boundary=FrozenDict(zip(_layout(K).states, self.boundary[k].tolist())),
            g0_at_1=float(self.g0_at_1[k]),
            L1=float(self.L1[k]),
            L2=float(self.L2[k]),
            L=float(self.L[k]),
            p=tuple(self.p[k].tolist()),
            tail_mass=float(self.tail_mass[k]),
            energy_rate=float(self.energy_rate[k]),
        )


def solve_speed_family(model: SingleServerModel, inter) -> SpeedFamilySolution:
    """Exact solutions of the profiles (s_0, inter[k], s_K) for every row k.

    The arrival rate, service, power exponent and the end speeds s_0, s_K
    come from `model` (its intermediate levels are ignored); `inter` is a
    (B, K-1) array of intermediate speeds s_1 .. s_{K-1}.  The kernel-root
    series and the Maclaurin rows depend only on (lam, service, s_K, K), so
    they are built once; the sub-threshold balance rows and the
    work-conservation row depend on the profile's speeds and are filled per
    profile.  The B systems are solved in one call of the compiled loop
    fbq_speed_family, which fills them, solves them by the lockstep LU and
    sums the rows of the finish; the mean counts of each profile come from
    its solved sub-threshold probabilities by row sums, not BLAS products.
    Every profile gets every check of a single solve and the answer it gets
    alone, bit for bit and on any CPU.  A family that fails raises one
    error, whatever its size: a non-finite entry in any system first, then
    a zero row, then the first profile with a singular system, then the
    first with a solved value below -NEG_PROB_TOL.
    """
    require_stable_single(model)
    if model.lam == 0:
        raise ModelError("arrival rate must be positive to solve the chain")
    if model.q == 1.0:
        raise ModelError("the general solver needs q < 1: at q = 1 the kernel root y1(0) is 0, "
                         "so its K Maclaurin rows vanish identically")
    inter = np.asarray(inter, dtype=float)
    if inter.ndim != 2 or len(inter) == 0:
        raise ModelError(f"a speed family needs a (B, K-1) array of speeds with B >= 1, got {inter.shape}")
    levels = np.empty((len(inter), inter.shape[1] + 2))
    levels[:, 0] = model.speeds.levels[0]
    levels[:, 1:-1] = inter
    levels[:, -1] = model.speeds.levels[-1]
    _check_levels(levels)
    return SpeedFamilySolution(levels=levels, **_Family(model, levels.shape[1] - 1).solve(levels))


def _check_levels(levels: np.ndarray) -> None:
    """The speed checks of SpeedProfile and of the general solver, per profile."""
    # the common case, where every profile passes, by whole-array tests: a
    # nondecreasing row from s_0 >= 0 with s_1 > 0 passes all three checks,
    # and a NaN fails a comparison, so its row takes the per-row scans.  The
    # levels are copied one row per level, so each test reads contiguous memory.
    by_level = levels.T.copy()
    if (by_level[0] >= 0).all() and (by_level[1] > 0).all() and (by_level[1:] >= by_level[:-1]).all():
        return
    K = levels.shape[1] - 1
    for bad, message in ((~np.isfinite(levels).all(axis=1), "speeds must be finite"),
                         ((levels < 0).any(axis=1), "speeds must be nonnegative"),
                         ((levels[:, 1:] < levels[:, :-1]).any(axis=1), "speeds must be nondecreasing")):
        if bad.any():
            raise ModelError(f"{message}: {tuple(levels[np.flatnonzero(bad)[0]].tolist())}")
    stopped = (levels[:, 1:] <= 0).any(axis=1)
    if stopped.any():
        if (levels[np.flatnonzero(stopped)[0], :K] == 0).all():
            raise ModelError("all sub-threshold speeds are zero: use solve_zero_speed")
        raise ModelError("speed levels 1..K must be positive for the general solver")


@dataclass(frozen=True)
class _Layout:
    """Unknowns and sub-threshold balance entries of a K-level staircase.

    Unknowns pi_{i,t-i} are ordered by level t, then by i.  Balance entry e
    sits at (rows[e], cols[e]) and equals
        lam * lam_coef[e] + (s_{level[e]} * sign[e] * nu) * factor
    with nu = 0, nu1 or nu2 by nu_kind[e] and factor = 1, q or 1-q by
    factor_kind[e].
    """

    states: list
    index: dict                # state -> position among the unknowns
    rows: np.ndarray
    cols: np.ndarray
    lam_coef: np.ndarray
    level: np.ndarray
    sign: np.ndarray
    nu_kind: np.ndarray
    factor_kind: np.ndarray
    t_of: np.ndarray           # level i+j of each sub-threshold unknown


@functools.lru_cache(maxsize=None)
def _layout(K: int) -> _Layout:
    states = [(i, t - i) for t in range(K + 1) for i in range(t + 1)]
    idx = {state: k for k, state in enumerate(states)}
    NU1, NU2, Q, ONE_MINUS_Q = 1, 2, 1, 2
    entries = []

    def add(r, state, lam_coef, level=0, sign=0, nu=0, factor=0):
        entries.append((r, idx[state], lam_coef, level, sign, nu, factor))

    for r, (i, j) in enumerate(states[: K * (K + 1) // 2]):
        t = i + j
        if i == 0 and j == 0:
            add(r, (0, 0), 1)
            add(r, (0, 1), 0, 1, -1, NU2)
            add(r, (1, 0), 0, 1, -1, NU1, ONE_MINUS_Q)
        elif i == 0:
            add(r, (0, j), 1, j, 1, NU2)
            add(r, (0, j + 1), 0, j + 1, -1, NU2)
            add(r, (1, j - 1), 0, j, -1, NU1, Q)
            add(r, (1, j), 0, j + 1, -1, NU1, ONE_MINUS_Q)
        else:
            add(r, (i, j), 1, t, 1, NU1)
            add(r, (i - 1, j), -1)
            if j > 0:
                add(r, (i + 1, j - 1), 0, t, -1, NU1, Q)
            add(r, (i + 1, j), 0, t + 1, -1, NU1, ONE_MINUS_Q)
    rows, cols, lam_coef, level, sign, nu_kind, factor_kind = np.array(entries).T
    return _Layout(
        states=states, index=idx, rows=rows.astype(int), cols=cols.astype(int), lam_coef=lam_coef,
        level=level.astype(int), sign=sign, nu_kind=nu_kind.astype(int),
        factor_kind=factor_kind.astype(int),
        t_of=np.array([i + j for i, j in states[: K * (K + 1) // 2]]),
    )


class _Family:
    """Everything a family of K-level profiles shares: the K Maclaurin rows
    of the boundary system, the arriving work of its work-conservation row,
    the top-speed loads of the mean-drift identities, and the balance
    entries as the compiled loop reads them.  solve runs the family in one
    call of fbq_speed_family.  _stack builds systems as the loop fills
    them; solve builds only a failing profile's, for the condition estimate
    of its error message."""

    def __init__(self, model: SingleServerModel, K: int):
        lam, q, mu1 = model.lam, model.q, model.mu1     # mu1: top-speed rate
        rho1 = self.rho1 = model.rho1
        self.K, self.lam, self.q, self.rho2 = K, lam, q, model.rho2
        self.alpha = model.speeds.alpha
        lay = self.layout = _layout(K)
        idx, n_unknown = lay.index, len(lay.states)
        self.rate = lay.sign * np.array([0.0, model.service.nu1, model.service.nu2])[lay.nu_kind]
        self.factor = np.array([1.0, q, 1 - q])[lay.factor_kind]

        self.shared = np.zeros((K, n_unknown))
        # vanishing Maclaurin coefficients at z = 0 of the boundary combination
        # sum_j z^{K-j} y1(z)^{j-1} [lam y1(z) pi_{j-1,K-j} - mu1 (1-q) pi_{j,K-j}]
        y0 = kernel_root_series(rho1, q, 0.0, K - 1)
        ypow = [PowerSeries.constant(1.0, y0.order)]
        for _ in range(K):
            ypow.append(ypow[-1] * y0)
        for t in range(K):
            row = self.shared[t]
            for j in range(1, K + 1):
                s = t - (K - j)
                if s < 0:
                    continue
                row[idx[(j - 1, K - j)]] += lam * ypow[j].c[s]
                row[idx[(j, K - j)]] -= mu1 * (1 - q) * ypow[j - 1].c[s]
        self.work = lam * model.service.mean()      # work arriving per unit time
        # the balance entries as the compiled loop reads them: (row, column,
        # level) and (lam lam_coef, rate, factor) of each
        self.at = np.stack([lay.rows, lay.cols, lay.level], axis=1).astype(np.int64)
        self.coef = np.stack([lam * lay.lam_coef, self.rate, self.factor], axis=1)

    def solve(self, levels: np.ndarray) -> dict:
        """Metrics of the profiles in `levels` (B, K+1), as arrays."""
        loops = _kernels.compiled()
        K, count, n = self.K, len(levels), len(self.layout.states)
        levels = np.ascontiguousarray(levels, dtype=float)
        x, pivmin, summary = np.empty((count, n)), np.empty(count), np.empty(3, dtype=np.int64)
        p, sums = np.empty((count, K)), np.empty((5, count))
        dbl, i64 = ctypes.c_double.from_buffer, ctypes.c_int64.from_buffer
        status = loops.speed_family(count, K, len(self.at), i64(self.at), dbl(self.coef), dbl(self.shared),
                                    self.work, dbl(levels), PIVOT_RTOL, NEG_PROB_TOL, dbl(x), dbl(pivmin),
                                    i64(summary), dbl(p), dbl(sums))
        # only the message of a failed system builds and factors that system
        x = _checked(lambda k: _condition(self._stack(levels[k:k + 1])[0][0]), status, x, pivmin,
                     summary.tolist())
        return self._metrics(x, levels, p, *sums)

    def _stack(self, levels: np.ndarray):
        """The boundary systems (B, n, n) and right-hand sides (B, n) of the
        profiles in `levels`."""
        lay, K = self.layout, self.K
        n_unknown = len(lay.states)
        m = K * (K + 1) // 2
        top = levels[:, K]
        a = np.zeros((len(levels), n_unknown, n_unknown))
        a[:, lay.rows, lay.cols] = self.lam * lay.lam_coef + (levels[:, lay.level] * self.rate) * self.factor
        a[:, m:-1] = self.shared
        # work conservation: the server does the arriving work lam E[S] at
        # speed s_min(n,K) whenever n >= 1, so
        #   sum_{n<K} p_n (s_K - s_n [n >= 1]) = s_K - lam E[S]
        a[:, -1, :m] = top[:, None] - levels[:, lay.t_of] * (lay.t_of > 0)
        b = np.zeros((len(levels), n_unknown))
        b[:, -1] = top - self.work
        return a, b

    def _metrics(self, x, levels, p, tail, pi_idle_fg, iw, jw, w_busy) -> dict:
        """The metrics of solve from x, the level masses p, the tail mass and
        the weighted sums of _drift_means, as fbq_speed_family sums them."""
        K = self.K
        g0_at_1, L1, L2 = _drift_means(self.rho1, self.rho2, self.q, pi_idle_fg, iw, jw, w_busy)
        L = L1 + L2

        if self.alpha == 0.0:
            power = (levels != 0.0).astype(float)    # an idle stopped processor draws nothing
        else:
            power = levels**self.alpha
        energy = (p * power[:, :K]).sum(axis=1) + power[:, K] * tail
        return dict(boundary=x, g0_at_1=g0_at_1, L1=L1, L2=L2, L=L, p=p,
                    tail_mass=tail, energy_rate=energy)


def _drift_means(rho1, rho2, q, pi_idle_fg, iw, jw, w_busy):
    """g0(1), L1 and L2 from the mean-drift identities of the chain.

    With u = s_{i+j}/s_K, the stationary drifts of i, i^2, i*j and j^2 vanish
    (rate conservation, Miyazawa 1994), which gives E[u 1{i>0}] = rho1,
    E[u i] = rho1 (L1 + 1) and E[u j] = R (L2 + q L1) + q rho2 with
    R = rho1 + q rho2.  The speed deficit 1 - u is zero from level K on, so
    only the weights w_ij = (1 - s_{i+j}/s_K) pi_ij >= 0 of the sub-threshold
    states enter, through
        iw = sum i w_ij,  jw = sum j w_ij,  w_busy = sum_{i>0} w_ij,
    and g0(1) = P(i = 0) - pi_idle_fg with pi_idle_fg = sum_{j<K} pi_0j.
    Works on floats and on (B,) arrays.
    """
    L1 = (rho1 + iw) / (1.0 - rho1)
    R = rho1 + q * rho2
    L2 = (jw + q * R * L1 + q * rho2) / (1.0 - R)
    g0_at_1 = 1.0 - rho1 - pi_idle_fg - w_busy
    return g0_at_1, L1, L2


def _k1_core(model: SingleServerModel) -> tuple[float, float, float, float, float]:
    """pi_00, g0(1), L1, L2 and pi_10 of the two-speed (K = 1) chain at top-speed rates.

    The only sub-threshold state is (0, 0), so every weighted sum of
    _drift_means is zero."""
    require_stable_single(model)
    if model.lam == 0:
        raise ModelError("arrival rate must be positive to solve the chain")
    lam, q, mu1 = model.lam, model.q, model.mu1
    rho1, rho2 = model.rho1, model.rho2

    pi00 = 1.0 - rho1 - rho2 * q
    g0_at_1, L1, L2 = _drift_means(rho1, rho2, q, pi00, 0.0, 0.0, 0.0)

    y10_over = _stable_y1_at_0(rho1, q) / (1.0 - q) if q < 1.0 else 1.0 / (1.0 + rho1)
    pi10 = lam * pi00 * y10_over / mu1          # y1(0)/(1-q) stays finite as q -> 1
    return pi00, g0_at_1, L1, L2, pi10


def solve_k1_closed_form(model: SingleServerModel) -> SingleServerSolution:
    """Closed form for the two-speed profile: the foreground queue is M/M/1."""
    if model.K != 1:
        raise ModelError(f"closed form requires K = 1, got K = {model.K}")
    pi00, g0_at_1, L1, L2, pi10 = _k1_core(model)
    pi01 = (model.lam * pi00 - model.mu1 * (1 - model.q) * pi10) / model.mu2

    energy = pi00 * model.speeds.power(0) + model.speeds.power(1) * (1.0 - pi00)
    return SingleServerSolution(
        boundary=FrozenDict({(0, 0): pi00, (0, 1): pi01, (1, 0): pi10}),
        g0_at_1=g0_at_1,
        L1=L1,
        L2=L2,
        L=L1 + L2,
        p=(pi00,),
        tail_mass=1.0 - pi00,
        energy_rate=energy,
    )


def solve_zero_speed(model: SingleServerModel) -> SingleServerSolution:
    """Closed form when every sub-threshold speed is zero.

    The processor only works with K or more jobs present, so the background
    queue can never drop below K-1: states with j < K-1 are transient.  The
    recurrent chain is the K = 1 chain shifted up by K-1 background jobs,
    giving L2 = (K-1) + L2(K=1).  (Note the shift contributes the full K-1,
    the sum of the saturated share (K-1)(rho1 + rho2 q) and the boundary
    share (K-1) pi_{0,K-1}.)
    """
    pi0, g0_at_1, L1, L2_k1, pi_1Km1 = _k1_core(model)   # pi0: mass of the frozen state (0, K-1)
    K = model.K
    if any(model.speeds.levels[n] != 0 for n in range(K)):
        raise ModelError("zero-speed closed form requires s_n = 0 for every n < K")
    L2 = (K - 1) + L2_k1
    pi_0K = model.rho2 * pi0 * (1.0 - _stable_y1_at_0(model.rho1, model.q))

    boundary = {(i, t - i): 0.0 for t in range(K + 1) for i in range(t + 1)}
    boundary[(0, K - 1)] = pi0
    boundary[(0, K)] = pi_0K
    boundary[(1, K - 1)] = pi_1Km1

    p = [0.0] * K
    p[K - 1] = pi0
    tail = 1.0 - pi0
    energy = model.speeds.power(K) * tail  # sub-threshold levels draw nothing
    return SingleServerSolution(
        boundary=FrozenDict(boundary),
        g0_at_1=g0_at_1,
        L1=L1,
        L2=L2,
        L=L1 + L2,
        p=tuple(p),
        tail_mass=tail,
        energy_rate=energy,
    )


def evaluate_cost_single(solution, costs: CostCoefficients):
    """Linear holding + energy cost c1 L + c2 energy_rate of any solution,
    or of each profile of a SpeedFamilySolution."""
    return costs.c1 * solution.L + costs.c2 * solution.energy_rate


# --- consistency checks ------------------------------------------------------


def _numerator_at(model: SingleServerModel, boundary: dict, zv: float) -> float:
    """Direct float evaluation of the boundary combination at a point z."""
    K, lam, q, mu1, mu2 = model.K, model.lam, model.q, model.mu1, model.mu2
    y = kernel_root_series(model.rho1, q, zv, 0).value()
    acc = mu2 * boundary[(0, K)] * zv**K
    for j in range(1, K + 1):
        acc -= zv ** (K + 1 - j) * y ** (j - 1) * (
            lam * y * boundary[(j - 1, K - j)] - mu1 * (1 - q) * boundary[(j, K - j)]
        )
    return acc


def verify_single(model: SingleServerModel, sol: SingleServerSolution) -> dict:
    """Residuals of the structural identities; all should be ~ 0 on a valid solve."""
    K, lam, q, mu1, mu2 = model.K, model.lam, model.q, model.mu1, model.mu2
    b = sol.boundary
    res = {}
    res["normalization"] = abs(sum(sol.p) + sol.tail_mass - 1.0)
    # flow balance across the saturation boundary
    up = lam * sum(b[(j - 1, K - j)] for j in range(1, K + 1))
    down = mu2 * b[(0, K)] + mu1 * (1 - q) * sum(b[(j, K - j)] for j in range(1, K + 1))
    res["flow_balance"] = abs(up - down)
    # the boundary combination must vanish to order K-1 at z = 0
    r3 = abs(_numerator_at(model, b, 1e-3)) / 1e-3 ** max(K - 1, 0)
    r4 = abs(_numerator_at(model, b, 1e-4)) / 1e-4 ** max(K - 1, 0)
    res["maclaurin_at_1e3"] = r3
    res["maclaurin_decay"] = r4 / r3 if r3 > 0 else 0.0
    # pi_{0,K} must reappear as the z^K Maclaurin coefficient of g0
    if model.speeds.levels[1] > 0 or K == 1:
        y0 = kernel_root_series(model.rho1, q, 0.0, K)
        z0 = PowerSeries.variable(0.0, K)
        ypow = [PowerSeries.constant(1.0, K)]
        for _ in range(K):
            ypow.append(ypow[-1] * y0)
        num = mu2 * b[(0, K)] * z0.pow(K)
        for j in range(1, K + 1):
            combo = lam * b[(j - 1, K - j)] * ypow[j] - mu1 * (1 - q) * b[(j, K - j)] * ypow[j - 1]
            num = num - z0.pow(K + 1 - j) * combo
        den = mu2 * (1.0 - z0) - lam * z0 * (1.0 - y0)
        g0z = divide(num, den)
        res["g0_leading_coeffs"] = max(abs(c) for c in g0z.c[:K]) if K > 0 else 0.0
        res["pi0K_recovery"] = abs(g0z.c[K] - b[(0, K)])
    return res
