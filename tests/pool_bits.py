"""Digests of every threshold outcome of the pool solver of fbq.multi.

For each pool below and each threshold K, solved one at a time from a cold
pool cache, the outcome is every field of the solution in float.hex, or the
type and message of the SolverError that the solve raised.  A pool's digest
is the sha256 of its outcomes, so a change that moves one bit of one
threshold of one pool moves that pool's digest.  The pools are figure 8's
family (its rate ratios and load, m = 2..24) and `seeded_pools()`, which
together hold successful and failing thresholds at q = 0, q = 1 and in
between.

Run as a script from the root of a checkout, it writes
`tests/data/pool_bits.json`, {pool name: digest}; a test compares the
solver with that file and names every pool whose digest moved.

    PYTHONPATH=src python tests/pool_bits.py
"""

import dataclasses
import hashlib
import json
import pathlib
import random

from fbq import multi
from fbq.models import MultiServerModel, SolverError

PINS = pathlib.Path(__file__).parent / "data" / "pool_bits.json"


def seeded_pools():
    """One pool per m = 2..24, cycling q through 0, a drawn value and 1.  On
    the m = 14 and m = 17 pools, both at q = 1, bisection down the interlacing
    zeros of the leading minors loses a zero in floats; sign counts do not."""
    rng = random.Random(26)
    for m in range(2, 25):
        q = (0.0, rng.uniform(0.02, 0.98), 1.0)[m % 3]
        mu1, mu2 = rng.uniform(0.5, 3.0), rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.3, 0.9) * m / (1.0 / mu1 + q / mu2)
        yield MultiServerModel(lam, mu1, mu2, q, m)


def pools() -> dict[str, MultiServerModel]:
    """Figure 8's pool (lam = 5, mu1 = 1, mu2 = 0.2, q = 0.1, m = 10) scaled
    to m = 2..24 at its load, and the seeded pools, by name."""
    out = {f"figure8_m{m}": MultiServerModel(0.5 * m, 1.0, 0.2, 0.1, m) for m in range(2, 25)}
    out.update((f"seed26_m{model.m}", model) for model in seeded_pools())
    return out


def solution_hex(sol):
    """Every field of a MultiServerSolution, its floats as float.hex, so
    that a signed zero differs from 0.0, with each container's type."""
    out = {}
    for field in dataclasses.fields(sol):
        v = getattr(sol, field.name)
        if isinstance(v, dict):
            v = type(v), [(k, x.hex()) for k, x in v.items()]
        elif isinstance(v, (list, tuple)):
            v = type(v), [x.hex() for x in v]
        out[field.name] = v.hex() if isinstance(v, float) else v
    return out


def threshold_outcomes(model):
    """Per threshold, from a cold pool cache: every solution field in
    float.hex, or the error's type and message."""
    out = []
    multi._pool_data.cache_clear()
    for K in range(model.m):
        try:
            out.append(solution_hex(multi.solve_threshold(dataclasses.replace(model, threshold=K))))
        except SolverError as exc:
            out.append((type(exc), str(exc)))
    multi._pool_data.cache_clear()
    return out


def digests() -> dict[str, str]:
    """{pool name: sha256 of its threshold outcomes} over `pools()`."""
    return {name: hashlib.sha256(repr(threshold_outcomes(model)).encode()).hexdigest()
            for name, model in pools().items()}


if __name__ == "__main__":
    PINS.write_text(json.dumps(digests(), indent=1) + "\n")
