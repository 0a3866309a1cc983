"""The model-to-solver dispatch fbq.solve, and the package names the
benchmark's tracer wraps."""

import importlib
import importlib.util
import pathlib

import pytest

import fbq
from fbq import ctmc
from fbq.models import CoxianService, MultiServerModel, SingleServerModel, SpeedProfile
from fbq.multi import solve_threshold
from fbq.single import solve_general, solve_k1_closed_form, solve_zero_speed

SERVICE = CoxianService(5.0, 1.0, 0.1)
TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("model, solver", [
    (SingleServerModel(2.0, SERVICE, SpeedProfile((0.0, 0.0, 0.0, 1.0))), solve_zero_speed),
    (SingleServerModel(2.0, SERVICE, SpeedProfile((0.0, 1.0))), solve_zero_speed),
    (SingleServerModel(2.0, SERVICE, SpeedProfile((0.5, 1.0), alpha=2.0)), solve_k1_closed_form),
    (SingleServerModel(2.0, SERVICE, SpeedProfile((0.2, 0.6, 1.0), alpha=2.0)), solve_general),
    (MultiServerModel(1.0, 1.0, 0.5, 0.5, 4, threshold=2), solve_threshold),
], ids=["zero-speed", "zero-speed-K1", "K1", "general", "pool"])
def test_solve_returns_the_solution_of_the_solver_it_routes_to(model, solver):
    assert fbq.solve(model) == solver(model)


def _tracing():
    """The benchmark's tracer module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve_in_fbq():
    # a removed or renamed function would break the benchmark's traced run
    tracing = _tracing()
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), name)), f"{module}.{name}"


def test_the_tracer_counts_a_superlu_solve_and_its_unknowns():
    # the tracer's spsolve probe takes (a, *_), so a keyword argument would
    # break the traced run; a 71 x 71 rectangle is wider than the band LU
    # takes, so SuperLU solves it
    model = SingleServerModel(0.5, CoxianService(5.0, 1.0, 0.4), SpeedProfile((0.5, 1.0)))
    chain = (*ctmc._rates(model, 70, 70), 0)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        _, _, solver = ctmc._stationary(*chain)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert solver.startswith("SuperLU") and metrics["ctmc.spsolve.calls"] == 1
    assert metrics["ctmc.states_solved"] == ctmc._rectangle(*chain, False)[1].size == 71 * 71 - 1
