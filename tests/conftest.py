"""Fixtures shared by the test modules: the compiled loops, one call run on
both the compiled loops and their references, what a fresh interpreter
loads when it imports fbq, and the pool and family bits of a fresh
interpreter per OpenBLAS kernel."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fbq  # noqa: F401  (loads the modules below)
import reference
from pool_bits import seeded_pools

DATA = pathlib.Path(__file__).parent / "data"
KERNELS = sys.modules["fbq._kernels"]
MULTI = sys.modules["fbq.multi"]
SRC = str(pathlib.Path(fbq.__file__).resolve().parent.parent)

# run in a fresh interpreter with an empty kernel cache (argv[1]): what
# `import fbq` loaded, then what the first family solve left in the cache
_IMPORT_PROBE = """
import json, os, sys, fbq
bound = sys.modules['fbq._kernels']._bound
seen = {'lookups': bound.cache_info().currsize, 'cache made': os.path.exists(sys.argv[1]),
        'capsule reads': sys.modules['fbq._kernels'].dgbsv.cache_info().currsize,
        'loaded': [name for name in ('scipy.stats', 'scipy.special', 'scipy.integrate', 'scipy.optimize')
                   if name in sys.modules]}
fbq.solve_general(fbq.SingleServerModel(0.5, fbq.CoxianService(2.0, 1.0, 0.5),
                                        fbq.SpeedProfile((0.5, 0.75, 1.0))))
seen['lookups after a solve'] = bound.cache_info().currsize
seen['cache after a solve'] = sorted(os.listdir(sys.argv[1]))
print(json.dumps(seen))
"""

# OpenBLAS kernels that x86 CPUs of four generations select
BLAS_KERNELS = ("Prescott", "Sandybridge", "Haswell", "SkylakeX")

# run in a fresh interpreter (argv[1]: the pools and the family base): the
# hash of every threshold of the pools, each solution's fields in float.hex
# or the error's message, and the bytes of a speed family's solve
_BLAS_PROBE = """
import dataclasses, hashlib, json, sys
import numpy as np
import fbq
from fbq.models import MultiServerModel, SolverError
from fbq.multi import sweep_thresholds
from fbq.single import _Family
pools, b = json.loads(sys.argv[1])
out = []
for spec in pools:
    model = MultiServerModel(**spec)
    for K in range(model.m):
        try:
            sol = sweep_thresholds(model)[K]
        except SolverError as exc:
            out.append(str(exc))
            break
        out.append(repr([v.hex() if isinstance(v, float) else
                         [x.hex() for x in (v.values() if isinstance(v, dict) else v)]
                         if isinstance(v, (dict, tuple)) else v
                         for v in dataclasses.astuple(sol)]))
model = fbq.SingleServerModel(b['lam'], fbq.CoxianService(b['nu1'], b['nu2'], b['q']),
                              fbq.SpeedProfile((b['s0'], b['top']), alpha=b['alpha']))
inter = np.sort(np.random.default_rng(5).uniform(b['s0'], b['top'], (40, 2)), axis=1)
family = _Family(model, 3)
solved = family.solve(family.levels(inter))
print(json.dumps({
    "pools": [hashlib.sha256(repr(out).encode()).hexdigest(), len(out)],
    "family": np.concatenate([solved[f].ravel() for f in ("boundary", "g0_at_1", "L1", "L2", "energy_rate")]
                             ).tobytes().hex()}))
"""


@pytest.fixture
def compiled_loops():
    """The compiled loops; the test fails where they do not build or load."""
    return KERNELS.compiled()


@pytest.fixture
def on_both_paths(compiled_loops, monkeypatch):
    """A function that calls run() on the compiled loops, then with every
    compiled entry point of fbq replaced by its Python reference
    (reference.REFERENCES), and returns both results.  The pool cache is
    emptied before each call, so that neither reuses the other's solves,
    and after them."""

    def both(run):
        MULTI._pool_data.cache_clear()
        compiled = run()
        with monkeypatch.context() as m:
            for owner, name, ref in reference.REFERENCES:
                m.setattr(owner, name, ref)
            MULTI._pool_data.cache_clear()
            python = run()
        MULTI._pool_data.cache_clear()
        return compiled, python

    return both


@pytest.fixture(scope="session")
def fresh_import(tmp_path_factory):
    """What one fresh interpreter with an empty kernel cache reports (see
    _IMPORT_PROBE): right after `import fbq`, how often the compiled loops
    were looked up, whether the cache directory exists, whether the CTMC
    oracle's LAPACK capsule was read and which of the slow scipy modules
    are loaded; after one family solve, the lookups and the files in the
    cache.  The import tests share this one subprocess."""
    cache = tmp_path_factory.mktemp("import-probe")
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(cache / "fbq")], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache)), check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="session")
def blas_kernel_bits():
    """{kernel: {"pools": [hash, count], "family": hex}} of one fresh
    interpreter per OpenBLAS kernel of BLAS_KERNELS (OPENBLAS_CORETYPE picks
    the kernels of an OpenBLAS built for several CPUs, and others ignore
    it), each running _BLAS_PROBE on figure 8's pinned pool and the seeded
    pools of pool_bits, then on the seed7 base of family_solve_pins.json.
    The BLAS-kernel tests of pools and of families share these processes."""
    sweep_pins = json.loads((DATA / "threshold_sweep_pins.json").read_text())
    family_pins = json.loads((DATA / "family_solve_pins.json").read_text())
    pools = [sweep_pins["pools"]["figure8"]] + [dataclasses.asdict(model) for model in seeded_pools()]
    arg = json.dumps([pools, family_pins["bases"]["seed7"]])
    out = {}
    for core in BLAS_KERNELS:
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_CORETYPE=core)
        out[core] = json.loads(subprocess.run([sys.executable, "-c", _BLAS_PROBE, arg], env=env,
                                              capture_output=True, text=True, check=True).stdout)
    return out
