"""Reference scheduling policies for single-server comparisons.

Mean job counts under first-come-first-served (via the mean-value formula
from the first two service moments) and under least-attained-service (via
Schrage's integral over the truncated load), both specialised to the
two-phase Coxian distribution, plus the two-class preemptive-priority limit
that explains the behaviour when phase coupling is weak.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import block_diag

from .models import CoxianService, SolverError, UnstableModelError, frozen

LAS_ABS_TOL = 1e-8   # absolute error allowed in las_L's mean count
_LAS_PANELS = 12     # geometric panels [0, 2^-11], [2^-11, 2^-10], ..., [1/2, 1] of [0, x_max]
_LAS_PANEL_RATIO = 1e3   # rate ratio up to which _LAS_PANELS serve; one more panel per doubling
_LAS_NODES, _LAS_CHECK_NODES = 48, 32   # Gauss-Legendre nodes per panel of the two rules


def _las_terms(lam: float, service: CoxianService, x):
    """The length density f(x), the truncated load rho(x) = lam int_0^x S(t) dt
    and second moment M2(x) = 2 int_0^x t S(t) dt at the points x, in closed
    form for the two-exponential mixture (confluent for equal rates)."""
    nu1, nu2, q = service.nu1, service.nu2, service.q
    if service._equal_rates():
        e = np.exp(-nu1 * x)
        ramp = (1.0 - e * (1.0 + nu1 * x)) / nu1**2                            # int_0^x s e^{-nu1 s}
        square = (2.0 - e * (nu1 * nu1 * x * x + 2 * nu1 * x + 2.0)) / nu1**3  # int_0^x s^2 e^{-nu1 s}
        return (nu1 * e * (1.0 - q + q * nu1 * x), lam * ((1.0 - e) / nu1 + q * nu1 * ramp),
                2.0 * (ramp + q * nu1 * square))
    c = nu1 * q / (nu1 - nu2)
    e1, e2 = np.exp(-nu1 * x), np.exp(-nu2 * x)
    return ((1.0 - c) * nu1 * e1 + c * nu2 * e2,
            lam * ((1.0 - c) * (1.0 - e1) / nu1 + c * (1.0 - e2) / nu2),
            2.0 * ((1.0 - c) * (1.0 - e1 * (1.0 + nu1 * x)) / nu1**2
                   + c * (1.0 - e2 * (1.0 + nu2 * x)) / nu2**2))


def _las_panels(service: CoxianService) -> int:
    """_LAS_PANELS up to a fast-to-slow rate ratio of _LAS_PANEL_RATIO, and
    one panel more per doubling of the ratio above it, so that the first
    panel spans as many decay lengths of the fast phase as at that ratio."""
    rates = (service.nu1, service.nu2) if service.q > 0 else (service.nu1,)
    ratio = max(rates) / min(rates)
    return _LAS_PANELS + max(0, math.ceil(math.log2(ratio / _LAS_PANEL_RATIO)))


@functools.cache
def _las_rule(nodes: int, check_nodes: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes on [0, 1] of two composite Gauss-Legendre rules, `nodes` and
    `check_nodes` points on each of `panels` geometric panels, which halve
    towards 0 where the fast phase decays, and a (2, N) weight matrix whose
    rows integrate with the first rule and with the second."""
    edges = np.concatenate(([0.0], 2.0 ** np.arange(1 - panels, 1)))
    lo, half = edges[:-1, None], np.diff(edges)[:, None] / 2
    (t, w), (tc, wc) = map(np.polynomial.legendre.leggauss, (nodes, check_nodes))
    return (np.concatenate([(lo + half * (1.0 + u)).ravel() for u in (t, tc)]),
            block_diag((half * w).ravel(), (half * wc).ravel()))


@functools.lru_cache(maxsize=32)   # the nodes of the last 32 services
def _las_nodes(service: CoxianService, nodes: int, check_nodes: int):
    """las_L's cut x_max, its nodes x on [0, x_max] and the weights of its two
    rules of `nodes` and `check_nodes` points per panel for `service`, and
    the density, rho(x) / lam and M2 at the nodes, all read-only."""
    # survival < 1e-14 past x_max; the slowest rate dominates the tail
    slow = min(service.nu1, service.nu2 if service.q > 0 else service.nu1)
    x_max = 14.0 * math.log(10.0) / slow + 10.0 / slow
    unit, weights = _las_rule(nodes, check_nodes, _las_panels(service))
    x = x_max * unit
    return (x_max, *map(frozen, (x, weights, *_las_terms(1.0, service, x))))


def fcfs_L(lam: float, service: CoxianService) -> float:
    """Mean number in system under FCFS from the first two service moments."""
    rho = lam * service.mean()
    if rho >= 1.0:
        raise UnstableModelError(f"offered load {rho:.6g} >= 1")
    m2 = service.second_moment()
    return rho + lam**2 * m2 / (2.0 * (1.0 - rho))


def las_L(lam: float, service: CoxianService) -> float:
    """Mean number in system under least-attained-service (Schrage's integral).

    The conditional response time of a job of length x is
    x/(1-rho(x)) + lam M2(x) / (2 (1-rho(x))^2) with the truncated load and
    moment in closed form; integrating it against the length density gives
    the mean response time, and the mean count follows by Little's law.  The
    integrand decays like the service density, so the integral is cut where
    the survival drops below 1e-14.  The integrand is analytic, so fixed
    Gauss-Legendre rules converge on it exponentially (Trefethen, SIAM Review
    50, 2008): a 48-node and a 32-node rule per panel must agree to
    LAS_ABS_TOL, or SolverError is raised.  The panels halve towards 0, and
    their number grows with the log of the ratio of the phase rates.  The
    nodes and the terms but lam are kept per service (_las_nodes); rho(x) is
    lam times the kept load, the product that _las_terms forms, bit for bit.
    """
    rho = lam * service.mean()
    if rho >= 1.0:
        raise UnstableModelError(f"offered load {rho:.6g} >= 1")
    x_max, x, weights, density, load, m2 = _las_nodes(service, _LAS_NODES, _LAS_CHECK_NODES)
    rx = lam * load
    response = x / (1.0 - rx) + lam * m2 / (2.0 * (1.0 - rx) ** 2)   # of a job of length x
    fine, coarse = lam * x_max * (weights @ (density * response))
    if abs(fine - coarse) > LAS_ABS_TOL:
        raise SolverError(f"the {_LAS_NODES}- and {_LAS_CHECK_NODES}-node rules differ by "
                          f"{abs(fine - coarse):.3e}, above {LAS_ABS_TOL:.0e}")
    return float(fine)


def priority_two_class_L(lam: float, service: CoxianService) -> float:
    """Mean total count in the two-class preemptive-resume limit.

    When second phases are rare and slow, the two queues decouple into
    independent Poisson streams (rate lam at the first-phase rate, rate
    lam*q at the second-phase rate) served with preemptive priority; this is
    the classical closed form for that system.
    """
    mu1, mu2, q = service.nu1, service.nu2, service.q
    rho_h = lam / mu1
    rho_l = lam * q / mu2
    if rho_h + rho_l >= 1.0:
        raise UnstableModelError(f"total priority load {rho_h + rho_l:.6g} >= 1")
    L_high = rho_h / (1.0 - rho_h)
    # mean response of the low class: preempted service plus remaining-work backlog
    t_low = (1.0 / mu2) / (1.0 - rho_h) + (lam / mu1**2 + lam * q / mu2**2) / (
        (1.0 - rho_h) * (1.0 - rho_h - rho_l)
    )
    return L_high + lam * q * t_low
