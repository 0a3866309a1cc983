"""Fixtures shared by the test modules: the compiled loops, one call run on
both the compiled loops and their references, and what a fresh
interpreter loads when it imports fbq."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import fbq  # noqa: F401  (loads the modules below)
import reference

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
