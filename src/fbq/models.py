"""Domain types shared by every solver: Coxian-2 service, speed profiles,
single- and multi-server model definitions, stability checks, the JSON
wire format used by the CLI, the read-only containers and shared JSON
fields of solutions, and the Scores (L and energy rate) that the cost
evaluators read.

Rate conventions.  A job consists of an exponential first phase (rate nu1)
followed, with probability q, by an exponential second phase (rate nu2).
First-phase work is served in the foreground queue, second-phase work in the
background queue at lower priority.  For a single speed-modulated server the
effective rates scale with the current speed level: mu_{1,n} = nu1*s_n and
mu_{2,n} = nu2*s_n when n jobs are present (capped at level K).  For a pool
of m identical servers the per-server rates mu1, mu2 are given directly.
Each model's `rates(i, j)`, on ints or integer arrays alike, gives the servers
working and the two completion rates, zero for an empty queue, in state (i, j).
"""

from __future__ import annotations

import collections
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Two rates closer than this (relatively) are treated as equal so the
# two-exponential survival mixture can switch to its confluent limit form.
EQUAL_RATE_RTOL = 1e-9


class ModelError(ValueError):
    """Invalid model parameters."""


class UnstableModelError(ModelError):
    """The offered load exceeds what the system can serve."""


class SolverError(RuntimeError):
    """Numerical failure inside a solver (singular system, lost root, ...)."""


def require_finite(**fields: float) -> None:
    """Raise a ModelError naming the first field that is NaN or infinite."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ModelError(f"{name} must be finite, got {value}")


class FrozenDict(dict):
    """A dict that rejects edits, for solutions that caches share; unlike
    types.MappingProxyType it pickles and deep-copies."""

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return FrozenDict, (dict(self),)


def frozen(a: np.ndarray) -> np.ndarray:
    """The array a, made read-only in place."""
    a.setflags(write=False)
    return a


def solution_json(sol) -> dict:
    """The JSON of the fields that every solution shares: the mean counts
    L1, L2 and L, the total-count marginal p, the tail mass, the energy rate
    and the boundary probabilities as sorted [i, j, pi_ij] triples."""
    return {
        "L1": sol.L1,
        "L2": sol.L2,
        "L": sol.L,
        "p": list(sol.p),
        "tail_mass": sol.tail_mass,
        "energy_rate": sol.energy_rate,
        "boundary": [[i, j, v] for (i, j), v in sorted(sol.boundary.items())],
    }


@dataclass(frozen=True)
class CoxianService:
    """Two-phase Coxian job-length distribution (rates per unit of speed)."""

    nu1: float
    nu2: float
    q: float

    def __post_init__(self):
        require_finite(nu1=self.nu1, nu2=self.nu2)
        if not (self.nu1 > 0 and self.nu2 > 0):
            raise ModelError(f"phase rates must be positive, got nu1={self.nu1}, nu2={self.nu2}")
        if not 0.0 <= self.q <= 1.0:
            raise ModelError(f"branch probability q must lie in [0,1], got {self.q}")

    def mean(self) -> float:
        return 1.0 / self.nu1 + self.q / self.nu2

    def second_moment(self) -> float:
        return 2.0 / self.nu1**2 + 2.0 * self.q / (self.nu1 * self.nu2) + 2.0 * self.q / self.nu2**2

    def _equal_rates(self) -> bool:
        return abs(self.nu1 - self.nu2) < EQUAL_RATE_RTOL * self.nu1

    def survival(self, t: float) -> float:
        """P(job length > t), the two-exponential mixture tail."""
        if t < 0:
            raise ValueError(f"time must be nonnegative, got {t}")
        if self._equal_rates():
            # confluent limit of the mixture when the two rates coincide
            return (1.0 + self.nu1 * self.q * t) * math.exp(-self.nu1 * t)
        c = self.nu1 * self.q / (self.nu1 - self.nu2)
        return (1.0 - c) * math.exp(-self.nu1 * t) + c * math.exp(-self.nu2 * t)


@dataclass(frozen=True)
class SpeedProfile:
    """Speed levels s_0 <= s_1 <= ... <= s_K and the power-law exponent alpha.

    Level s_n applies while n jobs are present (n < K); s_K applies from K
    jobs up.  Speeds are dimensionless multipliers of the nu-rates.  Equal
    consecutive levels are permitted so that degenerate profiles (all-zero
    low speeds, or no modulation at all) are representable.
    """

    levels: tuple[float, ...]
    alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(float(s) for s in self.levels))
        if len(self.levels) < 2:
            raise ModelError("need at least two speed levels (K >= 1)")
        for n, s in enumerate(self.levels):
            if not math.isfinite(s):
                raise ModelError(f"speed s_{n} must be finite, got {s}")
        require_finite(alpha=self.alpha)
        if any(s < 0 for s in self.levels):
            raise ModelError(f"speeds must be nonnegative: {self.levels}")
        if any(a > b for a, b in zip(self.levels, self.levels[1:])):
            raise ModelError(f"speeds must be nondecreasing: {self.levels}")
        if self.levels[-1] <= 0:
            raise ModelError("top speed must be positive")
        if self.alpha < 0:
            raise ModelError(f"power exponent alpha must be nonnegative, got {self.alpha}")

    @property
    def K(self) -> int:
        return len(self.levels) - 1

    def power(self, n: int) -> float:
        """Energy drawn per unit time at occupancy n, s_min(n,K)^alpha."""
        s = self.levels[min(n, self.K)]
        if s == 0.0 and self.alpha == 0.0:
            return 0.0  # an idle stopped processor draws nothing
        return s**self.alpha


@dataclass(frozen=True)
class SingleServerModel:
    """Poisson arrivals at a single server whose speed tracks the job count."""

    lam: float
    service: CoxianService
    speeds: SpeedProfile

    def __post_init__(self):
        require_finite(lam=self.lam)
        if self.lam < 0:
            raise ModelError(f"arrival rate must be nonnegative, got {self.lam}")

    @property
    def K(self) -> int:
        return self.speeds.K

    @property
    def mu1(self) -> float:
        """Top-speed foreground rate."""
        return self.service.nu1 * self.speeds.levels[-1]

    @property
    def mu2(self) -> float:
        """Top-speed background rate."""
        return self.service.nu2 * self.speeds.levels[-1]

    @property
    def q(self) -> float:
        return self.service.q

    @property
    def rho1(self) -> float:
        return self.lam / self.mu1

    @property
    def rho2(self) -> float:
        return self.lam / self.mu2

    def offered_load(self) -> float:
        """Work arriving per unit of top-speed capacity; < 1 means stable."""
        return self.lam * (1.0 / self.mu1 + self.q / self.mu2)

    def rates(self, i, j):
        """Servers counted in U (none) and the completion rates at (i, j):
        the foreground goes first, both at speed s_min(i+j, K)."""
        speed = np.asarray(self.speeds.levels)[np.minimum(i + j, self.K)]
        return (0, np.where(i > 0, self.service.nu1 * speed, 0.0),
                np.where((i == 0) & (j > 0), self.service.nu2 * speed, 0.0))


@dataclass(frozen=True)
class MultiServerModel:
    """m identical servers with an all-on/all-off switch-off threshold.

    When the total job count drops to `threshold` every server is switched
    off; the next arrival switches them all back on.  threshold = 0 leaves
    the service process of the uncontrolled pool unchanged.
    """

    lam: float
    mu1: float
    mu2: float
    q: float
    m: int
    threshold: int = 0

    def __post_init__(self):
        require_finite(lam=self.lam, mu1=self.mu1, mu2=self.mu2)
        if self.lam < 0:
            raise ModelError(f"arrival rate must be nonnegative, got {self.lam}")
        if not (self.mu1 > 0 and self.mu2 > 0):
            raise ModelError(f"service rates must be positive, got mu1={self.mu1}, mu2={self.mu2}")
        if not 0.0 <= self.q <= 1.0:
            raise ModelError(f"branch probability q must lie in [0,1], got {self.q}")
        for name, value in (("m", self.m), ("threshold", self.threshold)):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ModelError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))   # a Python int, which json.dumps takes
        if self.m < 1:
            raise ModelError(f"server count must be >= 1, got {self.m}")
        if not 0 <= self.threshold <= self.m - 1:
            raise ModelError(
                f"switch-off threshold must lie in [0, m-1] = [0, {self.m - 1}], got {self.threshold}"
            )

    @property
    def rho1(self) -> float:
        return self.lam / self.mu1

    @property
    def rho2(self) -> float:
        return self.lam * self.q / self.mu2

    def offered_load(self) -> float:
        """Total server-equivalents of work offered; < m means stable."""
        return self.rho1 + self.rho2

    def rates(self, i, j):
        """Servers working and the completion rates at (i, j): all m run above
        the threshold, the foreground takes up to m and the background the rest."""
        on = i + j > self.threshold
        return (np.where(on, self.m, 0), np.where(on, np.minimum(i, self.m) * self.mu1, 0.0),
                np.where(on, np.minimum(j, np.maximum(self.m - i, 0)) * self.mu2, 0.0))


@dataclass(frozen=True)
class CostCoefficients:
    """Relative weights of holding jobs (c1) and spending energy (c2)."""

    c1: float = 1.0
    c2: float = 0.0

    def __post_init__(self):
        require_finite(c1=self.c1, c2=self.c2)
        if self.c1 < 0 or self.c2 < 0:
            raise ModelError(f"cost coefficients must be nonnegative, got c1={self.c1}, c2={self.c2}")


# L and the energy rate of each profile of a speed family (single._Family.scores)
# or of each threshold of a pool (multi.sweep_costs): all that the cost
# evaluators read
Scores = collections.namedtuple("Scores", "L energy_rate")


def check_stability_single(model: SingleServerModel) -> bool:
    """True iff the top-speed server can absorb the offered load."""
    return model.offered_load() < 1.0


def check_stability_multi(model: MultiServerModel) -> bool:
    """True iff the total offered load is below the number of servers."""
    return model.offered_load() < model.m


def require_stable_single(model: SingleServerModel) -> None:
    if not check_stability_single(model):
        raise UnstableModelError(
            f"unstable model: lambda*(1/mu1 + q/mu2) = {model.offered_load():.6g} >= 1"
        )


def require_stable_multi(model: MultiServerModel) -> None:
    if not check_stability_multi(model):
        raise UnstableModelError(
            f"unstable model: rho1 + rho2 = {model.offered_load():.6g} >= m = {model.m}"
        )


# --- JSON wire format -------------------------------------------------------
#
# single-server: {"lambda", "nu1", "nu2", "q", "speeds": [..], "alpha"}
# multi-server:  {"lambda", "mu1", "mu2", "q", "m", "threshold"}


def single_model_to_json(model: SingleServerModel) -> dict:
    return {
        "lambda": model.lam,
        "nu1": model.service.nu1,
        "nu2": model.service.nu2,
        "q": model.service.q,
        "speeds": list(model.speeds.levels),
        "alpha": model.speeds.alpha,
    }


def _number(name: str, value) -> float:
    """A rate, probability, exponent or speed read from JSON; a boolean, a
    string or null raises a ModelError naming the field instead of being
    read as 1, 0 or the number it spells, and so does an integer too large
    for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ModelError(f"{name} is too large for a float") from None


def single_model_from_json(doc: dict) -> SingleServerModel:
    try:
        speeds = doc["speeds"]
        if not isinstance(speeds, list):
            raise ModelError(f"speeds must be a list of numbers, got {speeds!r}")
        return SingleServerModel(
            lam=_number("lambda", doc["lambda"]),
            service=CoxianService(nu1=_number("nu1", doc["nu1"]), nu2=_number("nu2", doc["nu2"]),
                                  q=_number("q", doc["q"])),
            speeds=SpeedProfile(levels=tuple(_number(f"speeds[{n}]", s) for n, s in enumerate(speeds)),
                                alpha=_number("alpha", doc.get("alpha", 1.0))),
        )
    except KeyError as exc:
        raise ModelError(f"missing model field {exc}") from exc


def multi_model_to_json(model: MultiServerModel) -> dict:
    return {
        "lambda": model.lam,
        "mu1": model.mu1,
        "mu2": model.mu2,
        "q": model.q,
        "m": model.m,
        "threshold": model.threshold,
    }


def _whole(name: str, value) -> int:
    """A count read from JSON, where 3 may come as 3.0; a fractional value
    raises a ModelError naming the field instead of being truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    return int(value)


def multi_model_from_json(doc: dict) -> MultiServerModel:
    try:
        return MultiServerModel(
            lam=_number("lambda", doc["lambda"]),
            mu1=_number("mu1", doc["mu1"]),
            mu2=_number("mu2", doc["mu2"]),
            q=_number("q", doc["q"]),
            m=_whole("m", doc["m"]),
            threshold=_whole("threshold", doc.get("threshold", 0)),
        )
    except KeyError as exc:
        raise ModelError(f"missing model field {exc}") from exc
