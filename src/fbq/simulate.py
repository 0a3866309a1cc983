"""Simulation of the two- and three-phase foreground-background systems
under speed or capacity modulation.

The simulator walks the embedded jump chain and adds the mean holding time
1/rate of each state it leaves instead of drawing an exponential: the time
averages stay consistent and their variance is no larger (discrete-time
conversion).  Averages are kept per batch of arrivals after a warmup, and a
95% half-width comes from the batch means.  All three models run through one
loop over a finite rate table whose rows are phase counts clamped where
the rates stop changing, with the servers and phase completion rates that
the model's `rates` gives there.  Each jump draws one uniform, which picks
the arrival or a completion with its branch folded in; the estimates for a
seed depend on that order.

The loop is compiled: `fbq_jump_chain` of `_kernels.c`, called through
ctypes, continues the Mersenne Twister stream of `random.Random(seed)`.  It
makes the stream's uniforms a block of 312 at a time, one regeneration of
the generator's 624 words each, and runs about 60 million jumps a second
on a 2-vCPU x86 machine.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import math
import numbers
import random
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .models import (
    CoxianService,
    ModelError,
    MultiServerModel,
    SingleServerModel,
    SpeedProfile,
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

    def rates(self, a, b, c):
        """Servers counted in U (none) and the completion rates of the three
        phases, each served only while the earlier ones are empty."""
        return (0, np.where(a > 0, self.mu1, 0.0), np.where((a == 0) & (b > 0), self.mu2, 0.0),
                np.where((a == 0) & (b == 0) & (c > 0), self.mu3, 0.0))


def match_three_phase(mu2: float, mu3: float, q2: float) -> float:
    """Rate xi of a single merged background phase with the same mean work:
    1/xi = 1/mu2 + q2/mu3."""
    if mu2 <= 0 or mu3 <= 0:
        raise ModelError("phase rates must be positive")
    return 1.0 / (1.0 / mu2 + q2 / mu3)


def two_phase_approximation(model: ThreePhaseModel) -> "SingleServerModel":
    """Collapse the two background phases into one, first moment preserved."""
    xi = match_three_phase(model.mu2, model.mu3, model.q2)
    return SingleServerModel(model.lam, CoxianService(model.mu1, xi, model.q1),
                             SpeedProfile((1.0, 1.0)))


@dataclass(frozen=True)
class SimConfig:
    model: object
    jobs: int = 1_000_000
    warmup_jobs: int = 50_000
    seed: int = 42
    batch_count: int = 20

    def __post_init__(self):
        for name in ("jobs", "warmup_jobs", "seed", "batch_count"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ModelError(f"{name} must be an integer, got {value!r}")
            # a Python int, which random.Random takes as a seed and numpy integers are not
            object.__setattr__(self, name, int(value))
        if self.warmup_jobs < 0:
            raise ModelError(f"warmup_jobs must be nonnegative, got {self.warmup_jobs}")
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
    jobs_completed: int       # jobs that left by the end of the run
    seed: int
    U: float = 0.0  # multiserver runs: mean operative servers

    def to_json(self) -> dict:
        return {"L": self.L, "L1": self.L1, "L2": self.L2, "ci": self.ci_halfwidth,
                "jobs": self.jobs_completed, "seed": self.seed}


def _estimate(sums, config, completed: int) -> tuple[SimEstimate, float]:
    """The estimate, given the jobs that left, and the batch means' lag-1 autocorrelation."""
    from scipy.special import stdtrit   # here, so that importing fbq does not load it

    batch_time, batch_i, batch_j, batch_u = zip(*sums)
    tot_t = sum(batch_time)
    L1 = sum(batch_i) / tot_t
    L2 = sum(batch_j) / tot_t
    means = [(bi + bj) / bt for bi, bj, bt in zip(batch_i, batch_j, batch_time)]
    n = len(means)
    mean = sum(means) / n
    dev = [x - mean for x in means]
    ss = sum(d * d for d in dev)
    ci = float(stdtrit(n - 1, 0.975)) * (ss / (n - 1) / n) ** 0.5
    lag1 = sum(a * b for a, b in zip(dev, dev[1:])) / ss if ss > 0 else 0.0
    return SimEstimate(L1 + L2, L1, L2, ci, completed, config.seed, sum(batch_u) / tot_t), lag1


def simulate(config: SimConfig) -> SimEstimate:
    """Run one replication and return time-averaged queue lengths."""
    model = config.model
    if isinstance(model, SingleServerModel):
        stable, qs, clamp = check_stability_single(model), (model.q,), model.K
    elif isinstance(model, MultiServerModel):
        stable, qs, clamp = check_stability_multi(model), (model.q,), model.m
    elif isinstance(model, ThreePhaseModel):
        stable, qs, clamp = model.offered_load() < 1, (model.q1, model.q2), 1
    else:
        raise TypeError(f"no simulator for {type(model).__name__}")
    if not stable:
        log.warning("simulating an unstable model; averages will drift")
    if model.lam == 0:
        return SimEstimate(0.0, 0.0, 0.0, 0.0, 0, config.seed)
    tab = _table(model, qs, clamp)
    start = time.perf_counter()
    sums, left, jumps = _jump_chain(config.seed, tab, clamp, _stops(config))
    est, lag1 = _estimate(sums[1:], config, config.jobs - left)
    took = time.perf_counter() - start
    log.debug("%s: %d jumps, %d table rows, %.3f s, %.0f arrivals/s, batch-mean lag-1 "
              "autocorrelation %.3f", type(model).__name__, jumps, len(tab), took,
              config.jobs / took, lag1)
    return est


def _table(model, qs: tuple, clamp: int) -> list[tuple]:
    """One row per phase-count state clamped at `clamp`, in C order from the
    empty system, with the servers and rates of one `model.rates` call on the
    grid's index arrays: (1/rate, servers/rate, the arrival probability, the
    cumulative probabilities that split the completions, the completions, the
    arrival's next row).  A completion (p, on, lo, hi) moves a job from phase
    p on to phase p + 1 or out; the next row is hi if phase p still holds
    `clamp` jobs or more, else lo."""
    shape = (clamp + 1,) * (len(qs) + 1)
    grid = (np.broadcast_to(r, shape).ravel().tolist() for r in model.rates(*np.indices(shape)))

    def row_of(counts):
        return functools.reduce(lambda row, c: row * (clamp + 1) + (c if c < clamp else clamp), counts, 0)

    def bump(counts, p, d=1):
        return counts[:p] + (counts[p] + d,) + counts[p + 1:]

    rows = []
    for state, (servers, *mus) in zip(np.ndindex(shape), zip(*grid)):
        rate = model.lam + sum(mus)
        cum, moves = [model.lam / rate], []
        for p, mu in enumerate(mus):
            q = qs[p] if p < len(qs) else 0.0
            for on, r in ((True, mu * q), (False, mu * (1.0 - q))):
                if r > 0:
                    hi = bump(state, p + 1) if on else state
                    cum.append(cum[-1] + r / rate)
                    moves.append((p, on, row_of(bump(hi, p, -1)), row_of(hi)))
        rows.append((1.0 / rate, servers / rate, cum[0], tuple(cum[1:-1]), tuple(moves),
                     row_of(bump(state, 0))))
    return rows


def _stops(config: SimConfig) -> list[int]:
    """Arrival counts that close a batch; the first "batch" is the warm-up."""
    warm, total, nb = config.warmup_jobs, config.jobs, config.batch_count
    size = (total - warm) // nb
    if size == 0:
        raise ModelError("too few jobs per batch")
    return sorted({max(warm + b * size, 1) for b in range(nb)}) + [total]


def _jump_chain(seed: int, tab: list[tuple], clamp: int, stops: list[int]) -> tuple[list, int, int]:
    """The jump chain shared by every model, run by the compiled
    `fbq_jump_chain` from the state of `random.Random(seed)`: the per-batch
    sums of time and of the time integrals of the foreground, background
    and working-server counts, the jobs left at the end and the number of
    jumps.  Each jump adds the mean holding time of the state it leaves to
    the batch sums, draws one uniform u and takes the first outcome whose
    cumulative probability exceeds u: the arrival, then each phase's
    completion, moving on before leaving.  The table is flattened to
    arrays; each row's moves end at an infinite bound, so the kernel's scan
    for the first bound above u stops in the row."""
    inv, srv, pa, cums, row_moves, up = zip(*tab)
    first, bound, move = [], [], []
    for cum, moves in zip(cums, row_moves):
        first.append(len(bound))
        if moves:
            bound += (*cum, math.inf)
            move += [x for m in moves for x in m]
    words = random.Random(seed).getstate()[1][:-1]  # the index, last, is always 624 after seeding
    sums = (ctypes.c_double * (4 * len(stops)))()
    counts = (ctypes.c_int64 * 4)()
    _kernels.compiled().jump_chain(
        _array(ctypes.c_uint32, words), _array(ctypes.c_double, inv),
        _array(ctypes.c_double, srv), _array(ctypes.c_double, pa), _array(ctypes.c_int64, up),
        _array(ctypes.c_int64, first), _array(ctypes.c_double, bound),
        _array(ctypes.c_int64, move), clamp, _array(ctypes.c_int64, stops), len(stops), sums,
        counts)
    n0, nl, arrivals, completions = counts
    return [tuple(sums[4 * s:4 * s + 4]) for s in range(len(stops))], n0 + nl, arrivals + completions


def _array(ctype, values):
    return (ctype * len(values))(*values)

