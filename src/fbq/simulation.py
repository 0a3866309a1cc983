"""Simulation of the two- and three-phase foreground-background systems
under speed or capacity modulation.

The simulator walks the embedded jump chain and adds the mean holding time
1/rate of each state it leaves instead of drawing an exponential: the time
averages stay consistent and their variance is no larger (discrete-time
conversion).  All three models run through one loop over a finite rate
table whose rows are phase counts clamped where the rates stop changing,
with the servers and phase completion rates that the model's `rates` gives
there.  Each jump draws one uniform, which picks the arrival or a
completion with its branch folded in; the estimates for a seed depend on
that order.

A run is REPLICATIONS independent replications, however many CPUs there
are.  Replication r continues the Mersenne Twister stream of
`random.Random(seed + r * 2**64)`, so replication 0 draws the seed's own
stream and no two replications share one; a seed must lie in [0, 2**64),
since random.Random seeds by the absolute value.  Each
starts from the empty system, warms up for `warmup_jobs` arrivals and
then takes its share of the `batch_count` batches of arrivals, the last
replication the remainder; the averages and a 95% half-width come from
the batch means of all replications pooled.

The loop is compiled: `fbq_jump_chain` of `_kernels.c`, called through
ctypes, runs the replications on up to one thread per CPU, started and
joined within the call.  It makes each stream's uniforms a block of 312
at a time, one regeneration of the generator's 624 words each, and runs
about 80 million jumps a second per thread on a 2-vCPU x86 machine.
"""

from __future__ import annotations

import array
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
        if not 0 <= self.seed < 2**64:   # so that seed + r * 2**64 names one stream per seed and r
            raise ModelError(f"seed must lie in [0, 2**64), got {self.seed}")
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
    jobs_completed: int       # jobs that left by the end of the replications
    seed: int
    U: float = 0.0  # multiserver runs: mean operative servers

    def to_json(self) -> dict:
        return {"L": self.L, "L1": self.L1, "L2": self.L2, "ci": self.ci_halfwidth,
                "jobs": self.jobs_completed, "seed": self.seed}


REPLICATIONS = 2   # independent replications of one run, whatever the CPU count


def _estimate(runs, config) -> tuple[SimEstimate, float, list[float]]:
    """The estimate from the per-replication batch sums and jobs that left,
    the batch means' lag-1 autocorrelation within the replications, and
    each replication's mean count."""
    from scipy.special import stdtrit   # here, so that importing fbq does not load it

    sums = [s for batches, _ in runs for s in batches]
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
    lag1, k = 0.0, 0
    for batches, _ in runs:   # adjacent batches of one replication
        lag1 += sum(a * b for a, b in zip(dev[k:k + len(batches)], dev[k + 1:k + len(batches)]))
        k += len(batches)
    lag1 = lag1 / ss if ss > 0 else 0.0
    rep_means = [sum(s[1] + s[2] for s in batches) / sum(s[0] for s in batches) for batches, _ in runs]
    est = SimEstimate(L1 + L2, L1, L2, ci, sum(left for _, left in runs), config.seed,
                      sum(batch_u) / tot_t)
    return est, lag1, rep_means


def simulate(config: SimConfig) -> SimEstimate:
    """Run REPLICATIONS replications and return time-averaged queue lengths."""
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
    stops = _stops(config)
    threads = min(len(stops), _kernels.cpus())
    runs = _jump_chain([config.seed + r * 2**64 for r in range(len(stops))], tab, clamp, stops, threads)
    # each replication's batches after its warm-up, and its arrivals less the jobs left
    est, lag1, means = _estimate([(sums[1:], ends[-1] - left) for (sums, left, _), ends
                                  in zip(runs, stops)], config)
    took = time.perf_counter() - start
    log.debug("%s: %d jumps, %d table rows, %d replications on %d threads, means %s, %.3f s, "
              "%.0f arrivals/s, batch-mean lag-1 autocorrelation %.3f", type(model).__name__,
              sum(jumps for *_, jumps in runs), len(tab), len(runs), threads,
              " ".join(f"{m:.4g}" for m in means), took, config.jobs / took, lag1)
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


def _stops(config: SimConfig) -> list[list[int]]:
    """Each replication's arrival counts that close a batch; its first
    "batch" is the warm-up.  The batches are split as evenly as they go,
    the first replications taking one more, and the last batch of the last
    replication takes the arrivals that do not fill a batch."""
    warm, total, nb = config.warmup_jobs, config.jobs, config.batch_count
    size = (total - warm) // nb
    if size == 0:
        raise ModelError("too few jobs per batch")
    shares = [nb // REPLICATIONS + (r < nb % REPLICATIONS) for r in range(REPLICATIONS)]
    runs = [sorted({max(warm + b * size, 1) for b in range(k)}) + [warm + k * size] for k in shares]
    runs[-1][-1] += total - warm - nb * size
    return runs


def _jump_chain(seeds: list[int], tab: list[tuple], clamp: int, stops: list[list[int]],
                threads: int) -> list[tuple[list, int, int]]:
    """The replications of the jump chain shared by every model, run by the
    compiled `fbq_jump_chain` on `threads` threads, replication r from the
    state of `random.Random(seeds[r])` with the batch stops `stops[r]`: for
    each, the per-batch sums of time and of the time integrals of the
    foreground, background and working-server counts, the jobs left at the
    end and the number of jumps.  Each jump adds the mean holding time of
    the state it leaves to the batch sums, draws one uniform u and takes
    the first outcome whose cumulative probability exceeds u: the arrival,
    then each phase's completion, moving on before leaving.  The table is
    flattened to arrays; each row's moves end at an infinite bound, so the
    kernel's scan for the first bound above u stops in the row."""
    inv, srv, pa, cums, row_moves, up = zip(*tab)
    first, bound, move = [], [], []
    for cum, moves in zip(cums, row_moves):
        first.append(len(bound))
        if moves:
            bound += (*cum, math.inf)
            move += [x for m in moves for x in m]
    words = array.array("I")
    for seed in seeds:
        words.extend(random.Random(seed).getstate()[1][:-1])  # the index, last, is always 624 after seeding
    at = np.cumsum([0, *map(len, stops)]).tolist()
    sums = (ctypes.c_double * (4 * at[-1]))()
    counts = (ctypes.c_int64 * (4 * len(seeds)))()
    _kernels.compiled().jump_chain(
        len(seeds), threads, _array("I", words), _array("d", inv), _array("d", srv), _array("d", pa),
        _array("q", up), _array("q", first), _array("d", bound), _array("q", move), clamp,
        _array("q", at), _array("q", [s for run in stops for s in run]), sums, counts)
    runs = []
    for r in range(len(seeds)):
        n0, nl, arrivals, completions = counts[4 * r:4 * r + 4]
        runs.append(([tuple(sums[4 * s:4 * s + 4]) for s in range(at[r], at[r + 1])], n0 + nl,
                     arrivals + completions))
    return runs


_CTYPES = {"I": ctypes.c_uint32, "d": ctypes.c_double, "q": ctypes.c_int64}


def _array(code, values):
    """`values` as a C array of the `array` type code `code`, which keeps
    the array it views alive."""
    values = array.array(code, values)
    return (_CTYPES[code] * len(values)).from_buffer(values)
