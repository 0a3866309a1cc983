"""Threshold sweeps of a pool (fbq.multi.sweep_thresholds).

data/threshold_sweep_pins.json holds figure 8's curves, optimize_threshold's
results on figure 8's pool and on two seeded pools for figure 8's three cost
vectors, and the SolverError of a 20-server pool at figure 8's rate ratios,
all recorded when every threshold isolated the determinant zeros again.  The
sweep isolates them once per pool and must give the same optima, costs within
1e-12 relative, and the same error.  That error quotes a solved probability
of a system with condition estimate 7.4e17, which is BLAS rounding: it reads
-9.3e-5 to -8.4e-4 under the OpenBLAS kernels of different CPUs.  So the pin
is compared without it (`same_failure`); where two paths or repeat calls must
agree, the whole messages are compared.
"""

import dataclasses
import json
import pathlib
import re

import numpy as np
import pytest

from fbq.experiments import optimize_threshold, reproduce_figure
from fbq.models import CostCoefficients, ModelError, MultiServerModel, SolverError
from fbq.multi import solve_threshold, sweep_thresholds

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "threshold_sweep_pins.json").read_text())


def same_failure(message, pinned):
    """Whether a failure message equals the pinned one in its fixed text and
    condition estimate, the solved probability it quotes left out."""
    def without_value(text):
        blanked, found = re.subn(r"^solved probability -\d\.\d{3}e[-+]\d\d ", "solved probability <p> ", text)
        return blanked if found == 1 else None
    return without_value(pinned) is not None and without_value(message) == without_value(pinned)


@pytest.mark.parametrize("pin", PINS["optima"], ids=lambda p: f"{p['pool']}-c2={p['c2']:g}")
def test_optimize_threshold_matches_pinned_values(pin):
    model = MultiServerModel(**PINS["pools"][pin["pool"]])
    best, curve = optimize_threshold(model, CostCoefficients(pin["c1"], pin["c2"]))
    assert best == pin["best"]
    assert curve.label == "cost"
    assert curve.xs == pin["xs"]
    np.testing.assert_allclose(curve.ys, pin["ys"], rtol=1e-12, atol=0)


def test_figure8_matches_pinned_curves():
    fig = reproduce_figure(8)
    assert [c.label for c in fig.curves] == [p["label"] for p in PINS["figure8"]]
    for curve, pin in zip(fig.curves, PINS["figure8"]):
        assert curve.xs == pin["xs"]
        np.testing.assert_allclose(curve.ys, pin["ys"], rtol=1e-12, atol=0)


@pytest.mark.parametrize("pool", sorted(PINS["pools"]))
def test_sweep_equals_one_solve_per_threshold(pool):
    model = MultiServerModel(**PINS["pools"][pool], threshold=1)   # a sweep ignores it
    sweep = sweep_thresholds(model)
    assert [sol.threshold for sol in sweep] == list(range(model.m))
    for K, sol in enumerate(sweep):
        alone = solve_threshold(dataclasses.replace(model, threshold=K))
        for field in dataclasses.fields(sol):
            assert getattr(sol, field.name) == getattr(alone, field.name), (K, field.name)


def test_failure_at_a_threshold_propagates_with_the_pinned_error():
    pin = dict(PINS["failing_pool"])
    message = pin.pop("message")
    model = MultiServerModel(**pin)
    with pytest.raises(SolverError) as exc:
        sweep_thresholds(model)
    swept = str(exc.value)
    assert same_failure(swept, message), swept
    with pytest.raises(SolverError) as exc:
        optimize_threshold(model, CostCoefficients(1.0, 0.5))
    assert str(exc.value) == swept


def test_zero_arrival_rate_is_rejected():
    model = MultiServerModel(0.0, 1.0, 0.5, 0.3, 3)
    with pytest.raises(ModelError, match="arrival rate must be positive"):
        solve_threshold(model)
    with pytest.raises(ModelError, match="arrival rate must be positive"):
        sweep_thresholds(model)
