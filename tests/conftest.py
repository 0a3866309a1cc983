"""Fixtures shared by the test modules: the compiled loops, one call run on
both the compiled and the Python loops, and the systems that either pool
path hands to the LU of fbq.linsys."""

import shutil
import sys

import numpy as np
import pytest

import fbq  # noqa: F401  (loads the modules below)

KERNELS = sys.modules["fbq._kernels"]
LINSYS = sys.modules["fbq.linsys"]
MULTI = sys.modules["fbq.multi"]


@pytest.fixture
def compiled_loops():
    """The compiled loops.  The test is skipped where no C compiler is on
    PATH, and fails where one is but the loops did not load."""
    loops = KERNELS.compiled()
    if loops is None:
        assert shutil.which(KERNELS._COMPILER) is None, "a C compiler is on PATH but the compiled loops did not load"
        pytest.skip("no C compiler to build the compiled loops with")
    return loops


@pytest.fixture
def on_both_paths(compiled_loops, monkeypatch):
    """A function that calls run() on the compiled loops, then on the Python
    ones, and returns both results.  The pool cache is emptied before each
    call, so that neither reuses the other's solves, and after them."""

    def both(run):
        MULTI._pool_data.cache_clear()
        compiled = run()
        with monkeypatch.context() as m:
            m.setattr(KERNELS, "compiled", lambda: None)
            MULTI._pool_data.cache_clear()
            python = run()
        MULTI._pool_data.cache_clear()
        return compiled, python

    return both


@pytest.fixture
def pool_systems(monkeypatch):
    """The list of every system that either pool path hands to
    linsys.solve_scaled_system, in call order: its status, copies of the
    row-scaled a and b taken before getrf factors a in place (None where
    the status is not 0), and the unscaled system that a message would
    quote."""
    seen = []
    solve = LINSYS.solve_scaled_system

    def spy(a, b, status, system):
        copies = (None, None, None) if status else (np.array(a), np.array(b), np.array(system()))
        seen.append((status, *copies))
        return solve(a, b, status, system)

    monkeypatch.setattr(LINSYS, "solve_scaled_system", spy)
    monkeypatch.setattr(MULTI, "solve_scaled_system", spy)
    return seen
