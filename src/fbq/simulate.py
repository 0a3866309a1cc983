"""Event-driven simulation of the two- and three-phase foreground-background
systems under speed or capacity modulation.

Every sojourn in a state is exponential and the race between arrival and
service completions is memoryless, so the simulator redraws a single
exponential holding time at each state change instead of keeping an event
calendar; preemptions and speed changes then need no event cancellation.
Queue-length averages are accumulated per batch (batches split by arrival
count after a warmup) and a 95% confidence half-width comes from the batch
means and the Student t quantile.

All three models run through one event loop, `_run`, over a list of phase
counts.  A model supplies only its branch probabilities and a function from
the counts to its event rates.  Each event draws one exponential, one
uniform to pick the event and, on a completion that can branch, one more
uniform; the estimates for a given seed depend on that order.
"""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from scipy.special import stdtrit

from .models import (
    ModelError,
    MultiServerModel,
    SingleServerModel,
    check_stability_multi,
    check_stability_single,
    require_finite,
)

log = logging.getLogger("fbq.simulate")


@dataclass(frozen=True)
class ThreePhaseModel:
    """Three sequential service phases on one server, served in strict
    priority order of phase age: the third queue runs only when the first
    two are empty.  No speed modulation."""

    lam: float
    mu1: float
    mu2: float
    mu3: float
    q1: float
    q2: float

    def __post_init__(self):
        require_finite(lam=self.lam, mu1=self.mu1, mu2=self.mu2, mu3=self.mu3)
        if self.lam < 0:
            raise ModelError(f"arrival rate must be nonnegative, got {self.lam}")
        if min(self.mu1, self.mu2, self.mu3) <= 0:
            raise ModelError("phase rates must be positive")
        if not (0 <= self.q1 <= 1 and 0 <= self.q2 <= 1):
            raise ModelError("branch probabilities must lie in [0,1]")

    def offered_load(self) -> float:
        return self.lam * (1 / self.mu1 + self.q1 / self.mu2 + self.q1 * self.q2 / self.mu3)


def match_three_phase(mu2: float, mu3: float, q2: float) -> float:
    """Rate xi of a single merged background phase with the same mean work:
    1/xi = 1/mu2 + q2/mu3."""
    if mu2 <= 0 or mu3 <= 0:
        raise ModelError("phase rates must be positive")
    return 1.0 / (1.0 / mu2 + q2 / mu3)


def two_phase_approximation(model: ThreePhaseModel) -> "SingleServerModel":
    """Collapse the two background phases into one, first moment preserved."""
    from .models import CoxianService, SpeedProfile

    xi = match_three_phase(model.mu2, model.mu3, model.q2)
    return SingleServerModel(
        lam=model.lam,
        service=CoxianService(nu1=model.mu1, nu2=xi, q=model.q1),
        speeds=SpeedProfile((1.0, 1.0)),
    )


@dataclass(frozen=True)
class SimConfig:
    model: object
    jobs: int = 1_000_000
    warmup_jobs: int = 50_000
    seed: int = 42
    batch_count: int = 20

    def __post_init__(self):
        if self.jobs < 10 * self.warmup_jobs:
            raise ModelError("need jobs >= 10 * warmup_jobs for a usable measurement window")
        if self.batch_count < 10:
            raise ModelError("need at least 10 batches for a confidence interval")


@dataclass(frozen=True)
class SimEstimate:
    L: float
    L1: float
    L2: float
    ci_halfwidth: float
    jobs_completed: int
    seed: int
    U: float = 0.0  # multiserver runs: mean operative servers

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "L1": self.L1,
            "L2": self.L2,
            "ci": self.ci_halfwidth,
            "jobs": self.jobs_completed,
            "seed": self.seed,
        }


def _estimate(sums, config) -> SimEstimate:
    batch_time, batch_i, batch_j, batch_u = zip(*sums)
    tot_t = sum(batch_time)
    L1 = sum(batch_i) / tot_t
    L2 = sum(batch_j) / tot_t
    means = [(bi + bj) / bt for bi, bj, bt in zip(batch_i, batch_j, batch_time)]
    n = len(means)
    mean = sum(means) / n
    var = sum((x - mean) ** 2 for x in means) / (n - 1)
    ci = float(stdtrit(n - 1, 0.975)) * (var / n) ** 0.5
    return SimEstimate(
        L=L1 + L2,
        L1=L1,
        L2=L2,
        ci_halfwidth=ci,
        jobs_completed=config.jobs,
        seed=config.seed,
        U=sum(batch_u) / tot_t,
    )


def simulate(config: SimConfig) -> SimEstimate:
    """Run one replication and return time-averaged queue lengths."""
    model = config.model
    if isinstance(model, SingleServerModel):
        stable, qs, rates = check_stability_single(model), (model.q,), _single_rates(model)
    elif isinstance(model, MultiServerModel):
        stable, qs, rates = check_stability_multi(model), (model.q,), _pool_rates(model)
    elif isinstance(model, ThreePhaseModel):
        stable, qs, rates = model.offered_load() < 1, (model.q1, model.q2), _three_phase_rates(model)
    else:
        raise TypeError(f"no simulator for {type(model).__name__}")
    if not stable:
        log.warning("simulating an unstable model; averages will drift")
    return _run(config, model.lam, qs, rates)


def _run(config: SimConfig, lam: float, qs: tuple, rates) -> SimEstimate:
    """The event loop shared by every model.

    n[k] counts the jobs in phase k.  A phase-k completion sends its job on to
    phase k + 1 with probability qs[k] and out of the system otherwise; the
    last phase always sends it out.  rates(n) returns the total event rate
    r, the cumulative bounds that split [lam, r) among the completions (phase
    k completes when u falls below bound k but no earlier one) and the number
    of operative servers.  u = unif() * r < r holds in floating point too, so
    a bound equal to r is never passed.
    """
    if lam == 0:
        return SimEstimate(0.0, 0.0, 0.0, 0.0, 0, config.seed)
    rng = random.Random(config.seed)
    unif, ln = rng.random, math.log
    nb = config.batch_count
    warm, total, last = config.warmup_jobs, config.jobs, len(qs)
    size = (total - warm) // nb
    if size == 0:
        raise ModelError("too few jobs per batch")
    opens = {max(warm + b * size, 1) for b in range(nb)}  # arrival counts that open a batch

    n = [0] * (last + 1)
    jobs = arrivals = 0
    sums = []  # per batch: time and the time integrals of n[0], the later phases, the servers
    t = ti = tj = tu = 0.0  # the open batch's sums; the first "batch" is the warm-up
    while arrivals < total:
        rate, bounds, servers = rates(n)
        dt = -ln(1.0 - unif()) / rate  # rng.expovariate(rate) without the method call
        t += dt
        ti += n[0] * dt
        tj += (jobs - n[0]) * dt
        if servers:
            tu += servers * dt
        u = unif() * rate
        if u < lam:
            arrivals += 1
            jobs += 1
            n[0] += 1
            if arrivals in opens:
                sums.append((t, ti, tj, tu))
                t = ti = tj = tu = 0.0
            continue
        k = bisect_right(bounds, u)
        n[k] -= 1
        if k < last and unif() < qs[k]:
            n[k + 1] += 1
        else:
            jobs -= 1
    sums.append((t, ti, tj, tu))
    return _estimate(sums[1:], config)


def _single_rates(model: SingleServerModel):
    lam, K, levels = model.lam, model.K, model.speeds.levels
    nu1, nu2 = model.service.nu1, model.service.nu2
    fg = [(lam + nu1 * s, (lam + nu1 * s,), 0) for s in levels]  # indexed by min(i + j, K)
    bg = [(lam + nu2 * s, (lam,), 0) for s in levels]  # indexed by min(j, K)
    idle = (lam, (), 0)

    def rates(n):
        i, j = n
        if i:
            return fg[min(i + j, K)]
        return bg[min(j, K)] if j else idle

    return rates


def _pool_rates(model: MultiServerModel):
    lam, mu1, mu2, m, thr = model.lam, model.mu1, model.mu2, model.m, model.threshold
    # on[i][j] for i < m, j <= m: i foreground and min(j, m - i) background jobs in service
    on = [[(lam + mu1 * i + mu2 * min(j, m - i), (lam + mu1 * i,), m) for j in range(m + 1)]
          for i in range(m)]
    full = (lam + mu1 * m, (lam + mu1 * m,), m)  # i >= m: no server left for the background
    off = (lam, (lam,), 0)  # servers switched off until the next arrival

    def rates(n):
        i, j = n
        if i + j <= thr:
            return off
        return on[i][j if j < m else m] if i < m else full

    return rates


def _three_phase_rates(model: ThreePhaseModel):
    lam = model.lam
    r1, r2, r3 = lam + model.mu1, lam + model.mu2, lam + model.mu3
    s1, s2, s3, idle = (r1, (r1, r1), 0), (r2, (lam, r2), 0), (r3, (lam, lam), 0), (lam, (), 0)

    def rates(n):
        a, b, c = n
        return s1 if a else s2 if b else s3 if c else idle

    return rates
