"""Event-driven simulation of the two- and three-phase foreground-background
systems under speed or capacity modulation.

Every sojourn in a state is exponential and the race between arrival and
service completions is memoryless, so the simulator redraws a single
exponential holding time at each state change instead of keeping an event
calendar; preemptions and speed changes then need no event cancellation.
Queue-length averages are accumulated per batch (batches split by arrival
count after a warmup) and a 95% confidence half-width comes from the batch
means.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

from scipy.stats import t as student_t

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


def _estimate(batch_time, batch_i, batch_j, batch_u, config) -> SimEstimate:
    tot_t = sum(batch_time)
    L1 = sum(batch_i) / tot_t
    L2 = sum(batch_j) / tot_t
    means = [(bi + bj) / bt for bi, bj, bt in zip(batch_i, batch_j, batch_time)]
    n = len(means)
    mean = sum(means) / n
    var = sum((x - mean) ** 2 for x in means) / (n - 1)
    ci = float(student_t.ppf(0.975, n - 1)) * (var / n) ** 0.5
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
        if not check_stability_single(model):
            log.warning("simulating an unstable model; averages will drift")
        return _sim_single(config)
    if isinstance(model, MultiServerModel):
        if not check_stability_multi(model):
            log.warning("simulating an unstable model; averages will drift")
        return _sim_multi(config)
    if isinstance(model, ThreePhaseModel):
        if model.offered_load() >= 1:
            log.warning("simulating an unstable model; averages will drift")
        return _sim_three_phase(config)
    raise TypeError(f"no simulator for {type(model).__name__}")


def _batch_edges(config):
    measured = config.jobs - config.warmup_jobs
    size = measured // config.batch_count
    if size == 0:
        raise ModelError("too few jobs per batch")
    return size


def _sim_single(config: SimConfig) -> SimEstimate:
    model: SingleServerModel = config.model
    lam, q, K = model.lam, model.q, model.K
    nu1, nu2 = model.service.nu1, model.service.nu2
    levels = model.speeds.levels
    if lam == 0:
        return SimEstimate(0.0, 0.0, 0.0, 0.0, 0, config.seed)
    rng = random.Random(config.seed)
    expo, unif = rng.expovariate, rng.random
    size = _batch_edges(config)
    nb = config.batch_count
    bt = [0.0] * nb
    bi = [0.0] * nb
    bj = [0.0] * nb
    warm = config.warmup_jobs
    total = config.jobs

    i = j = 0
    arrivals = 0
    batch = -1  # warming up
    while arrivals < total:
        if i > 0:
            srate = nu1 * levels[min(i + j, K)]
            fg = True
        elif j > 0:
            srate = nu2 * levels[min(j, K)]
            fg = False
        else:
            srate = 0.0
        rate = lam + srate
        dt = expo(rate)
        if batch >= 0:
            bt[batch] += dt
            bi[batch] += i * dt
            bj[batch] += j * dt
        if unif() * rate < lam:
            arrivals += 1
            i += 1
            if arrivals >= warm:
                batch = min((arrivals - warm) // size, nb - 1)
        elif fg:
            i -= 1
            if unif() < q:
                j += 1
        else:
            j -= 1
    return _estimate(bt, bi, bj, [0.0] * nb, config)


def _sim_multi(config: SimConfig) -> SimEstimate:
    model: MultiServerModel = config.model
    lam, q, m, thr = model.lam, model.q, model.m, model.threshold
    mu1, mu2 = model.mu1, model.mu2
    if lam == 0:
        return SimEstimate(0.0, 0.0, 0.0, 0.0, 0, config.seed)
    rng = random.Random(config.seed)
    expo, unif = rng.expovariate, rng.random
    size = _batch_edges(config)
    nb = config.batch_count
    bt = [0.0] * nb
    bi = [0.0] * nb
    bj = [0.0] * nb
    bu = [0.0] * nb
    warm = config.warmup_jobs
    total = config.jobs

    i = j = 0
    arrivals = 0
    batch = -1
    while arrivals < total:
        if i + j > thr:
            fgrate = mu1 * (i if i < m else m)
            bgrate = mu2 * min(j, m - i if i < m else 0)
        else:
            fgrate = bgrate = 0.0  # servers switched off until the next arrival
        rate = lam + fgrate + bgrate
        dt = expo(rate)
        if batch >= 0:
            bt[batch] += dt
            bi[batch] += i * dt
            bj[batch] += j * dt
            if i + j > thr:
                bu[batch] += m * dt
        u = unif() * rate
        if u < lam:
            arrivals += 1
            i += 1
            if arrivals >= warm:
                batch = min((arrivals - warm) // size, nb - 1)
        elif u < lam + fgrate:
            i -= 1
            if unif() < q:
                j += 1
        else:
            j -= 1
    return _estimate(bt, bi, bj, bu, config)


def _sim_three_phase(config: SimConfig) -> SimEstimate:
    model: ThreePhaseModel = config.model
    lam, q1, q2 = model.lam, model.q1, model.q2
    mu1, mu2, mu3 = model.mu1, model.mu2, model.mu3
    if lam == 0:
        return SimEstimate(0.0, 0.0, 0.0, 0.0, 0, config.seed)
    rng = random.Random(config.seed)
    expo, unif = rng.expovariate, rng.random
    size = _batch_edges(config)
    nb = config.batch_count
    bt = [0.0] * nb
    bi = [0.0] * nb
    bj = [0.0] * nb  # both background queues together
    warm = config.warmup_jobs
    total = config.jobs

    a = b = c = 0
    arrivals = 0
    batch = -1
    while arrivals < total:
        if a > 0:
            srate, stage = mu1, 1
        elif b > 0:
            srate, stage = mu2, 2
        elif c > 0:
            srate, stage = mu3, 3
        else:
            srate, stage = 0.0, 0
        rate = lam + srate
        dt = expo(rate)
        if batch >= 0:
            bt[batch] += dt
            bi[batch] += a * dt
            bj[batch] += (b + c) * dt
        if unif() * rate < lam:
            arrivals += 1
            a += 1
            if arrivals >= warm:
                batch = min((arrivals - warm) // size, nb - 1)
        elif stage == 1:
            a -= 1
            if unif() < q1:
                b += 1
        elif stage == 2:
            b -= 1
            if unif() < q2:
                c += 1
        else:
            c -= 1
    return _estimate(bt, bi, bj, [0.0] * nb, config)
