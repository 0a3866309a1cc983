"""Reference scheduling policies for single-server comparisons.

Mean job counts under first-come-first-served (via the mean-value formula
from the first two service moments) and under least-attained-service (via
Schrage's integral over the truncated load), both specialised to the
two-phase Coxian distribution, plus the two-class preemptive-priority limit
that explains the behaviour when phase coupling is weak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .models import CoxianService, UnstableModelError

LAS_ABS_TOL = 1e-8   # absolute error allowed in las_L's mean count


@dataclass(frozen=True)
class TruncatedLoadFunctions:
    """Closed-form truncated load rho(x) and truncated second moment M2(x).

    rho(x) = lam * int_0^x S(t) dt and M2(x) = 2 * int_0^x t S(t) dt where S
    is the service-time survival function; both integrals are elementary for
    the two-exponential mixture (with a confluent branch for equal rates).
    """

    lam: float
    service: CoxianService

    def load(self, x: float) -> float:
        nu1, nu2, q = self.service.nu1, self.service.nu2, self.service.q
        if self.service._equal_rates():
            mu = nu1
            base = (1.0 - math.exp(-mu * x)) / mu
            extra = q * (1.0 - math.exp(-mu * x) * (1.0 + mu * x)) / mu
            return self.lam * (base + extra)
        c = nu1 * q / (nu1 - nu2)
        return self.lam * ((1.0 - c) * (1.0 - math.exp(-nu1 * x)) / nu1
                           + c * (1.0 - math.exp(-nu2 * x)) / nu2)

    def second_moment(self, x: float) -> float:
        nu1, nu2, q = self.service.nu1, self.service.nu2, self.service.q

        def ramp(mu, t):  # int_0^t s e^{-mu s} ds
            return (1.0 - math.exp(-mu * t) * (1.0 + mu * t)) / mu**2

        if self.service._equal_rates():
            mu = nu1
            # int_0^x s^2 e^{-mu s} ds
            quad2 = (2.0 - math.exp(-mu * x) * (mu * mu * x * x + 2 * mu * x + 2.0)) / mu**3
            return 2.0 * (ramp(mu, x) + q * mu * quad2)
        c = nu1 * q / (nu1 - nu2)
        return 2.0 * ((1.0 - c) * ramp(nu1, x) + c * ramp(nu2, x))


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
    the survival drops below 1e-14 and evaluated by adaptive quadrature.
    """
    rho = lam * service.mean()
    if rho >= 1.0:
        raise UnstableModelError(f"offered load {rho:.6g} >= 1")
    tl = TruncatedLoadFunctions(lam, service)

    def integrand(x):
        rx = tl.load(x)
        return service.density(x) * (x / (1.0 - rx) + lam * tl.second_moment(x) / (2.0 * (1.0 - rx) ** 2))

    # survival < 1e-14 past this point; slowest rate dominates the tail
    slow = min(service.nu1, service.nu2 if service.q > 0 else service.nu1)
    x_max = 14.0 * math.log(10.0) / slow + 10.0 / slow
    eps = LAS_ABS_TOL * 0.1 / max(lam, 1.0)
    response, err = quad(integrand, 0.0, x_max, epsabs=eps, epsrel=1e-11, limit=200)
    if lam * err > LAS_ABS_TOL:
        raise RuntimeError(f"quadrature error estimate {lam * err:.3e} above {LAS_ABS_TOL:.0e}")
    return lam * response


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
