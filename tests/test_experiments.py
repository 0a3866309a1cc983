import json
import pathlib
import threading

import numpy as np
import pytest

from fbq import _kernels, experiments
from fbq.experiments import (
    COST_ALPHA,
    FigureResult,
    PolicyCurve,
    optimize_intermediate_speeds,
    optimize_threshold,
    reproduce_figure,
)
from fbq.models import (
    CostCoefficients,
    CoxianService,
    ModelError,
    MultiServerModel,
    SingleServerModel,
    SpeedProfile,
    UnstableModelError,
)
from fbq.simulation import ThreePhaseModel

# every curve value of figures 3, 4 and 8, recorded while the single-server
# mean counts still came from z = 1 limit passes; figure 5's points are
# pinned in family_solve_pins.json
FIGURE_PINS = json.loads((pathlib.Path(__file__).parent / "data" / "figure_pins.json").read_text())


def assert_matches_pins(fig):
    pins = FIGURE_PINS[str(fig.figure)]
    assert [c.label for c in fig.curves] == [pin["label"] for pin in pins]
    for curve, pin in zip(fig.curves, pins):
        assert list(curve.xs) == pin["xs"], curve.label
        np.testing.assert_allclose(curve.ys, pin["ys"], rtol=1e-12, atol=0, err_msg=curve.label)


FIG4_BASE = SingleServerModel(2.5, CoxianService(5.0, 1.0, 0.1),
                              SpeedProfile((0.0, 0.5, 1.0), alpha=COST_ALPHA))


class TestSpecs:
    def test_curve_validation(self):
        c = PolicyCurve("x", [0.0, 1.0], [3.0, 2.0])
        assert c.argmin() == 1.0
        with pytest.raises(ModelError):
            PolicyCurve("x", [0.0, 0.0], [1.0, 1.0])


def test_solve_rejects_a_model_without_an_exact_solver_by_type():
    # the three-phase model is simulated only
    with pytest.raises(TypeError, match="^no exact solver for ThreePhaseModel$"):
        experiments.solve(ThreePhaseModel(1.0, 5.0, 1.0, 0.5, 0.1, 0.5))


class TestSpeedOptimizer:
    def test_published_operating_point(self):
        profile, cost, curve = optimize_intermediate_speeds(
            FIG4_BASE, 2, CostCoefficients(1.0, 20.0))
        assert 0.55 <= profile.levels[1] <= 0.65
        assert cost <= min(curve.ys) + 1e-12

    def test_pure_holding_cost_wants_full_speed(self):
        profile, _, _ = optimize_intermediate_speeds(FIG4_BASE, 2, CostCoefficients(1.0, 0.0))
        assert profile.levels[1] == pytest.approx(1.0)

    def test_incumbent_never_worse_than_curve(self):
        _, cost, curve = optimize_intermediate_speeds(FIG4_BASE, 2, CostCoefficients(1.0, 5.0))
        assert cost <= min(curve.ys) + 1e-12

    def test_three_levels_at_least_as_good(self):
        costs = CostCoefficients(1.0, 20.0)
        base3 = SingleServerModel(2.5, CoxianService(5.0, 1.0, 0.1),
                                  SpeedProfile((0.0, 0.4, 0.8, 1.0), alpha=COST_ALPHA))
        _, c2, _ = optimize_intermediate_speeds(FIG4_BASE, 2, costs)
        _, c3, _ = optimize_intermediate_speeds(base3, 3, costs)
        assert c3 <= c2 + 1e-9

    def test_unstable_base_rejected(self):
        bad = SingleServerModel(4.0, CoxianService(5.0, 1.0, 0.1),
                                SpeedProfile((0.0, 0.5, 1.0)))
        with pytest.raises(UnstableModelError):
            optimize_intermediate_speeds(bad, 2, CostCoefficients(1.0, 1.0))

    def test_k_range(self):
        with pytest.raises(ModelError):
            optimize_intermediate_speeds(FIG4_BASE, 4, CostCoefficients())


class TestThresholdOptimizer:
    BASE = MultiServerModel(5.0, 1.0, 0.2, 0.1, 10)

    def test_holding_only_never_switches_off(self):
        best, curve = optimize_threshold(self.BASE, CostCoefficients(1.0, 0.0))
        assert best == 0
        assert curve.ys == sorted(curve.ys)

    def test_energy_dominated_switches_late(self):
        best, _ = optimize_threshold(self.BASE, CostCoefficients(1.0, 1000.0))
        assert best == self.BASE.m - 1

    def test_published_optima(self):
        assert optimize_threshold(self.BASE, CostCoefficients(1.0, 0.5))[0] == 3
        assert optimize_threshold(self.BASE, CostCoefficients(1.0, 1.5))[0] == 7


class TestFigures:
    def test_figure3_ordering_and_determinism(self):
        fig = reproduce_figure(3)
        labels = [c.label for c in fig.curves]
        assert labels == ["FCFS", "LAS", "FB-ph2"]
        fcfs, las, fb = fig.curves
        assert fcfs.xs[0] == pytest.approx(2.1) and fcfs.xs[-1] == pytest.approx(3.2)
        for f, l, b in zip(fcfs.ys, las.ys, fb.ys):
            assert f > l > b
        again = reproduce_figure(3)
        assert again.curves[0].ys == fcfs.ys
        assert_matches_pins(fig)

    def test_figure4_shape(self):
        fig = reproduce_figure(4)
        (curve,) = fig.curves
        assert curve.xs[0] == pytest.approx(0.1) and curve.xs[-1] == pytest.approx(1.0)
        assert 0.55 <= curve.argmin() <= 0.65
        assert fig.metadata["alpha"] == COST_ALPHA
        assert_matches_pins(fig)

    def test_figure8_optima(self):
        fig = reproduce_figure(8)
        mins = {c.label: int(c.argmin()) for c in fig.curves}
        assert mins["c2=0.5"] == 3
        assert mins["c2=1.5"] == 7
        assert_matches_pins(fig)

    def test_unknown_figure(self):
        with pytest.raises(ModelError):
            reproduce_figure(2)

    def test_csv_and_metadata_round_trip(self, tmp_path):
        fig = reproduce_figure(3)
        csv_path = tmp_path / "fig3.csv"
        meta_path = tmp_path / "fig3.meta.json"
        fig.write_csv(csv_path)
        fig.write_metadata(meta_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,series,value"
        assert len(lines) == 1 + 3 * 12
        x, series, value = lines[1].split(",")
        assert series == "FCFS"
        assert float(x) == pytest.approx(2.1)
        assert float(value) == pytest.approx(2.537027027027, rel=1e-11)
        import json

        meta = json.loads(meta_path.read_text())
        assert meta["figure"] == 3

    def test_simulated_figure_small_run(self):
        fig = reproduce_figure(6, sim_jobs=30_000)
        approx, sim = fig.curves
        assert approx.label == "Approximation" and sim.label == "Simulation"
        assert len(approx.xs) == 10
        # rough agreement even on a short run at light load
        assert sim.ys[0] == pytest.approx(approx.ys[0], rel=0.15)
        again = reproduce_figure(6, sim_jobs=30_000)
        assert again.curves[1].ys == sim.ys  # a seeded run repeats its data

    def test_simulated_figure_is_equal_on_one_and_on_two_threads(self, monkeypatch):
        # the points run on a thread per CPU that the process may use; each
        # keeps its seed, so the thread count cannot move an estimate
        point, runs = experiments._three_phase_point, {}
        for cpus in (1, 2):
            threads = set()

            def spy(*args):
                threads.add(threading.get_ident())
                return point(*args)
            monkeypatch.setattr(_kernels, "cpus", lambda: cpus)
            monkeypatch.setattr(experiments, "_three_phase_point", spy)
            runs[cpus] = reproduce_figure(6, sim_jobs=30_000)
            assert len(threads) == cpus
        assert runs[1].curves == runs[2].curves and runs[1].metadata == runs[2].metadata
