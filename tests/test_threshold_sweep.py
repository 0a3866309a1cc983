"""Threshold sweeps of a pool (fbq.multi.sweep_thresholds).

data/threshold_sweep_pins.json holds figure 8's curves, optimize_threshold's
results on figure 8's pool and on two seeded pools for figure 8's three cost
vectors, and the SolverError of a 20-server pool at figure 8's rate ratios.
The pool path calls no BLAS or LAPACK, so these values and the message are
the same on every CPU; sweeps must give the same optima, costs within 1e-12
relative, and the same message.

data/pool_50_digits.json holds every threshold of the three pinned pools as
the same formulation gives it at 50 digits (tests/pool_50_digits.py writes
it).  The sweeps and the pinned costs must agree with it within the float
solver's measured error: about 7e-12 relative in figure 8's L2 and 1.2e-9
in the m = 14 pool's, whose boundary systems round worse (ROADMAP item 1).
"""

import dataclasses
import json
import pathlib

import mpmath
import numpy as np
import pytest

from fbq.experiments import optimize_threshold, reproduce_figure
from fbq.models import CostCoefficients, ModelError, MultiServerModel, SolverError
from fbq.multi import solve_threshold, sweep_thresholds

DATA = pathlib.Path(__file__).parent / "data"
PINS = json.loads((DATA / "threshold_sweep_pins.json").read_text())
FIFTY_DIGITS = json.loads((DATA / "pool_50_digits.json").read_text())
# (rtol of L1, L2, L and U and the costs, atol of g(1) and p) against the
# 50-digit values, about three times the largest error measured
FIFTY_DIGIT_TOL = {"figure8": (2e-11, 2e-11), "seed6_m6": (1e-14, 2e-14), "seed14_m14": (3e-9, 5e-9)}


def fifty_digit_values(pool):
    """Per threshold, L1, L2, L, U, g(1) and p of the 50-digit reference as floats."""
    out = []
    for th in FIFTY_DIGITS[pool]["thresholds"]:
        L1, L2 = mpmath.mpf(th["L1"]), mpmath.mpf(th["L2"])
        out.append({"L1": float(L1), "L2": float(L2), "L": float(L1 + L2), "U": float(th["U"]),
                    "g_at_1": [float(x) for x in th["g_at_1"]], "p": [float(x) for x in th["p"]]})
    return out


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
    assert swept == message
    with pytest.raises(SolverError) as exc:
        optimize_threshold(model, CostCoefficients(1.0, 0.5))
    assert str(exc.value) == swept


def test_zero_arrival_rate_is_rejected():
    model = MultiServerModel(0.0, 1.0, 0.5, 0.3, 3)
    with pytest.raises(ModelError, match="arrival rate must be positive"):
        solve_threshold(model)
    with pytest.raises(ModelError, match="arrival rate must be positive"):
        sweep_thresholds(model)


@pytest.mark.parametrize("pool", sorted(FIFTY_DIGITS))
def test_sweep_agrees_with_the_50_digit_reference(pool):
    assert FIFTY_DIGITS[pool]["pool"] == PINS["pools"][pool]
    rtol, atol = FIFTY_DIGIT_TOL[pool]
    sweep = sweep_thresholds(MultiServerModel(**PINS["pools"][pool]))
    for K, (sol, want) in enumerate(zip(sweep, fifty_digit_values(pool), strict=True)):
        for field in ("L1", "L2", "L", "U"):
            assert getattr(sol, field) == pytest.approx(want[field], rel=rtol, abs=0), (K, field)
        for field in ("g_at_1", "p"):
            np.testing.assert_allclose(getattr(sol, field), want[field], rtol=0, atol=atol,
                                       err_msg=f"{K} {field}")


def test_pinned_costs_agree_with_the_50_digit_reference():
    curves = [(pin["pool"], pin["c1"], pin["c2"], pin["ys"]) for pin in PINS["optima"]]
    figure8 = PINS["figure8"] + json.loads((DATA / "figure_pins.json").read_text())["8"]
    curves += [("figure8", 1.0, float(pin["label"].split("=")[1]), pin["ys"]) for pin in figure8]
    for pool, c1, c2, ys in curves:
        want = [c1 * v["L"] + c2 * v["U"] for v in fifty_digit_values(pool)]
        np.testing.assert_allclose(ys, want, rtol=FIFTY_DIGIT_TOL[pool][0], atol=0, err_msg=f"{pool} c2={c2}")
