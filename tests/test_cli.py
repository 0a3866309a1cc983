import json
import logging

import pytest

from fbq import baselines
from fbq.cli import main
import output_bits


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSolveSingle:
    def test_reference_point(self, capsys):
        code, out = run(capsys, "solve-single", "--lambda", "2", "--nu1", "5",
                        "--nu2", "1", "--q", "0.1", "--speeds", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["L"] == pytest.approx(1.266666666667, rel=1e-11)
        assert set(doc) == {"L", "L1", "L2", "p", "tail_mass", "energy_rate", "boundary"}

    def test_zero_speed_route(self, capsys):
        code, out = run(capsys, "solve-single", "--lambda", "2", "--nu1", "5",
                        "--nu2", "1", "--q", "0.1", "--speeds", "0,0,0,1")
        assert code == 0
        assert json.loads(out)["L2"] == pytest.approx(2.6, rel=1e-10)

    def test_unstable_exits_2(self, capsys):
        code, _ = run(capsys, "solve-single", "--lambda", "4", "--nu1", "5",
                      "--nu2", "1", "--q", "0.1", "--speeds", "0,1")
        assert code == 2

    def test_missing_flags_exit_2(self, capsys):
        code, _ = run(capsys, "solve-single", "--lambda", "2")
        assert code == 2

    def test_twelve_significant_digits(self, capsys):
        _, out = run(capsys, "solve-single", "--lambda", "2", "--nu1", "3",
                     "--nu2", "1", "--q", "0.3", "--speeds", "1,1")
        for token in out.replace(",", " ").split():
            try:
                float(token)
            except ValueError:
                continue
            digits = token.lstrip("-0.").replace(".", "").rstrip("0")
            assert len(digits) <= 12, token


class TestModelFiles:
    def test_dump_model_round_trip(self, capsys, tmp_path):
        code, out = run(capsys, "solve-single", "--lambda", "2.5", "--nu1", "5",
                        "--nu2", "1", "--q", "0.1", "--speeds", "0,0.6,1",
                        "--alpha", "2", "--dump-model")
        assert code == 0
        path = tmp_path / "model.json"
        path.write_text(out)
        code2, out2 = run(capsys, "solve-single", "--model", str(path), "--dump-model")
        assert code2 == 0
        assert json.loads(out2) == json.loads(out)

    def test_solve_from_file(self, capsys, tmp_path):
        path = tmp_path / "multi.json"
        path.write_text(json.dumps({"lambda": 5, "mu1": 1, "mu2": 0.2,
                                    "q": 0.1, "m": 10, "threshold": 3}))
        code, out = run(capsys, "solve-multi", "--model", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["threshold"] == 3
        assert len(doc["roots"]) == 9
        assert doc["U"] == pytest.approx(9.6596177, rel=1e-6)

    @pytest.mark.parametrize("command, doc, field", [
        ("solve-single", {"lambda": True, "nu1": 5, "nu2": 1, "q": 0.1, "speeds": [0.5, 1]}, "lambda"),
        ("solve-single", {"lambda": 2, "nu1": 5, "nu2": 1, "q": 0.1, "speeds": [0.5, True]}, "speeds[1]"),
        ("solve-multi", {"lambda": 1, "mu1": True, "mu2": 0.5, "q": 0.2, "m": 3}, "mu1"),
        ("solve-multi", {"lambda": 1, "mu1": 1, "mu2": 0.5, "q": False, "m": 3}, "q"),
        ("solve-multi", {"lambda": "1", "mu1": 1, "mu2": 0.5, "q": 0.2, "m": 3}, "lambda")])
    def test_boolean_or_string_field_exits_2(self, capsys, caplog, tmp_path, command, doc, field):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, command, "--model", str(path))
        assert code == 2 and out == ""
        assert f"{field} must be a number" in caplog.text

    def test_missing_file_exits_2(self, capsys):
        code, _ = run(capsys, "solve-single", "--model", "/nonexistent.json")
        assert code == 2


class TestOtherCommands:
    def test_a_solver_failure_exits_1_without_a_traceback(self, capsys, caplog, monkeypatch):
        monkeypatch.setattr(baselines, "LAS_ABS_TOL", 0.0)   # LAS's two rules never agree
        with caplog.at_level(logging.ERROR, logger="fbq"):
            code, _ = run(capsys, "compare-policies", "--lambda", "0.5", "--nu1", "30000",
                          "--nu2", "1", "--q", "0.05")
        assert code == 1
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["internal solver failure"]
        assert "Traceback" not in capsys.readouterr().err

    def test_an_overflowing_pool_exits_1_without_a_traceback(self, capsys, caplog):
        with caplog.at_level(logging.ERROR, logger="fbq"):
            code, _ = run(capsys, "optimize-threshold", "--lambda", "85.5", "--mu1", "1", "--mu2", "0.5",
                          "--q", "0.2", "--m", "171")
        assert code == 1
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["internal solver failure"]
        assert "m = 171" in caplog.records[0].getMessage()
        assert "Traceback" not in capsys.readouterr().err

    def test_compare_policies_csv(self, capsys):
        code, out = run(capsys, "compare-policies", "--nu1", "5", "--nu2", "1",
                        "--q", "0.1", "--lambdas", "2.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,series,value"
        vals = {line.split(",")[1]: float(line.split(",")[2]) for line in lines[1:]}
        assert vals["FCFS"] > vals["LAS"] > vals["FB-ph2"]

    def test_simulate_deterministic(self, capsys):
        args = ("simulate", "--lambda", "1", "--nu1", "5", "--nu2", "1", "--q", "0.1",
                "--speeds", "1,1", "--jobs", "20000", "--warmup", "2000")
        code, out1 = run(capsys, *args)
        assert code == 0
        _, out2 = run(capsys, *args)
        assert out1 == out2
        assert json.loads(out1)["seed"] == 42  # default seed

    def test_simulate_pool_and_three_phase(self, capsys):
        code, out = run(capsys, "simulate", "--lambda", "1", "--mu1", "1", "--mu2", "0.5",
                        "--q", "0.5", "--m", "4", "--threshold", "2",
                        "--jobs", "20000", "--warmup", "2000")
        assert code == 0
        assert json.loads(out)["L"] > 0
        code, out = run(capsys, "simulate", "--lambda", "1.5", "--mu1", "5", "--mu2", "1",
                        "--mu3", "0.5", "--q", "0.1", "--q2", "0.5",
                        "--jobs", "20000", "--warmup", "2000")
        assert code == 0
        assert json.loads(out)["L"] > 0

    def test_pool_simulation_reports_U_near_the_exact_value(self, capsys):
        pool = ("--lambda", "1", "--mu1", "1", "--mu2", "0.5", "--q", "0.5", "--m", "4",
                "--threshold", "2")
        code, out = run(capsys, "simulate", *pool, "--jobs", "200000", "--warmup", "5000")
        assert code == 0
        simulated = json.loads(out)
        _, out = run(capsys, "solve-multi", *pool)
        assert simulated["U"] == pytest.approx(json.loads(out)["U"], rel=0.02)

    def test_single_server_simulation_prints_no_U(self, capsys):
        code, out = run(capsys, "simulate", "--lambda", "1", "--nu1", "5", "--nu2", "1",
                        "--q", "0.1", "--speeds", "1,1", "--jobs", "2000", "--warmup", "200")
        assert code == 0
        assert set(json.loads(out)) == {"L", "L1", "L2", "ci", "jobs", "seed"}

    def test_optimize_threshold(self, capsys):
        code, out = run(capsys, "optimize-threshold", "--lambda", "5", "--mu1", "1",
                        "--mu2", "0.2", "--q", "0.1", "--m", "10", "--c1", "1", "--c2", "0.5")
        assert code == 0
        assert json.loads(out)["best_threshold"] == 3

    def test_validate_single(self, capsys):
        code, out = run(capsys, "validate", "single", "--lambda", "2", "--nu1", "5",
                        "--nu2", "1", "--q", "0.1", "--speeds", "0,1")
        assert code == 0
        assert "PASS stability" in out and "FAIL" not in out

    def test_validate_single_q_one(self, capsys):
        # the general solver rejects q = 1, so the closed-form cross-check is skipped
        code, out = run(capsys, "validate", "single", "--lambda", "0.5", "--nu1", "4",
                        "--nu2", "1", "--q", "1", "--speeds", "0.5,1")
        assert code == 0
        assert "PASS oracle_agreement" in out and "closed_form_agreement" not in out

    def test_validate_checks_the_oracle_and_logs_its_truncation(self, capsys, caplog):
        with caplog.at_level(logging.DEBUG, logger="fbq.ctmc"):
            code, out = run(capsys, "validate", "multi", "--lambda", "1.2", "--mu1", "1",
                            "--mu2", "0.6", "--q", "1", "--m", "4", "--threshold", "2")
        assert code == 0
        assert "PASS oracle_agreement" in out and "at truncation (29, 161)" in out
        steps = [r.getMessage() for r in caplog.records if r.name == "fbq.ctmc"]
        assert [s.split(":")[0] for s in steps] == ["(29, 16)", "(29, 64)", "(29, 161)"]

    def test_validate_flags_unstable(self, capsys):
        code, out = run(capsys, "validate", "single", "--lambda", "4", "--nu1", "5",
                        "--nu2", "1", "--q", "0.1", "--speeds", "0,1")
        assert code == 2
        assert "FAIL stability" in out

    def test_reproduce_figure_writes_files(self, capsys, tmp_path):
        out_path = tmp_path / "fig8.csv"
        code, _ = run(capsys, "reproduce-figure", "8", "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        meta = json.loads((tmp_path / "fig8.csv.meta.json").read_text())
        assert meta["figure"] == 8

    def test_reproduce_figure_file_equals_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "fig8.csv"
        run(capsys, "reproduce-figure", "8", "--out", str(out_path))
        code, out = run(capsys, "reproduce-figure", "8")
        assert code == 0
        assert out_path.read_bytes() == out.encode()

    def test_non_finite_rate_names_the_field(self, capsys, caplog):
        code, _ = run(capsys, "solve-multi", "--lambda", "nan", "--mu1", "1", "--mu2", "0.5",
                      "--q", "0.2", "--m", "4")
        assert code == 2
        assert "lam must be finite, got nan" in caplog.text
        assert "unstable" not in caplog.text


def test_every_published_output_keeps_its_pinned_digest():
    # figures 3-8, the CLI's JSON and the demos' stdout, as output_bits.py
    # hashes them into data/output_bits.json
    pinned = json.loads(output_bits.PINS.read_text())
    got = output_bits.digests()
    assert sorted(got) == sorted(pinned)
    moved = [name for name in pinned if got[name] != pinned[name]]
    assert not moved, f"these outputs moved: {', '.join(moved)}"
