"""Event simulator (fbq.simulate): exact pins of every SimEstimate field, and
the import cost of the package.

data/sim_pins.json holds the full SimEstimate of 21 runs (30k arrivals each):
single servers with K = 1..5, q = 0 and q = 1 and a zero-speed profile;
pools with m = 1..7, switch-off thresholds and q = 0 / 0.4 / 1; one unstable
pool; three-phase models with q2 = 0 / 0.5 / 1; and lam = 0 for each model
type.  They were recorded with the earlier simulator, one event loop per
model.  The draw order and every float expression are part of the contract,
so the estimates must be equal, not close: a reordered rate sum or a moved
uniform draw changes them.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import fbq
from fbq.models import CoxianService, MultiServerModel, SingleServerModel, SpeedProfile
from fbq.simulate import SimConfig, SimEstimate, ThreePhaseModel, simulate

PINS = json.loads((pathlib.Path(__file__).parent / "data" / "sim_pins.json").read_text())


def _model(spec):
    if spec["kind"] == "single":
        return SingleServerModel(spec["lam"], CoxianService(spec["nu1"], spec["nu2"], spec["q"]),
                                 SpeedProfile(tuple(spec["levels"])))
    if spec["kind"] == "multi":
        return MultiServerModel(spec["lam"], spec["mu1"], spec["mu2"], spec["q"], spec["m"],
                                threshold=spec["threshold"])
    return ThreePhaseModel(spec["lam"], spec["mu1"], spec["mu2"], spec["mu3"], spec["q1"], spec["q2"])


@pytest.mark.parametrize("pin", PINS["pins"], ids=lambda p: p["model"]["label"])
def test_matches_pinned_estimate(pin):
    cfg = SimConfig(model=_model(pin["model"]), jobs=PINS["jobs"], warmup_jobs=PINS["warmup_jobs"],
                    seed=pin["seed"], batch_count=PINS["batch_count"])
    assert simulate(cfg) == SimEstimate(**pin["estimate"])


def test_import_leaves_scipy_stats_unloaded():
    src = str(pathlib.Path(fbq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, fbq; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
