import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polystab
import polystab.analysis
from polystab import problems
from polystab.checks import ConditionCheck
from polystab.cli import ExperimentSpec, main
from polystab.ensemble import CSV_HEADER, MomentSeries


def run(argv):
    return main(argv)


def write_power_law_csv(path, exponent, n=60, t_max=1e4, n_paths=100):
    t = np.concatenate([[0.0], np.geomspace(0.01, t_max, n - 1)])
    lines = [CSV_HEADER]
    for i, ti in enumerate(t):
        m2 = float((1 + ti) ** exponent)
        lines.append(f"{i},{float(ti)!r},{m2!r},0.0,{n_paths},0")
    path.write_text("\n".join(lines) + "\n")


class TestSimulate:
    def test_writes_artifacts(self, tmp_path, capsys):
        code = run([
            "simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1",
            "--steps", "200", "--paths", "32", "--seed", "42",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        csv_path = tmp_path / "linear_em_seed42.csv"
        cfg_path = tmp_path / "linear_em_seed42_config.json"
        assert csv_path.exists() and cfg_path.exists()
        series = MomentSeries.from_csv(csv_path)
        assert series.step_index[-1] == 200
        config = json.loads(cfg_path.read_text())
        assert config["problem"] == "linear" and config["seed"] == 42
        out = capsys.readouterr().out
        assert "mean_square" in out

    def test_missing_flags_usage_error(self, capsys):
        assert run(["simulate", "--problem", "linear"]) == 1
        assert "missing required flags" in capsys.readouterr().err

    def test_invalid_value_usage_error(self, tmp_path, capsys):
        code = run([
            "simulate", "--problem", "linear", "--scheme", "em", "--dt", "-0.1",
            "--steps", "10", "--paths", "4", "--seed", "1", "--out-dir", str(tmp_path),
        ])
        assert code == 1

    def test_bem_dt_violation_is_usage_error(self, tmp_path, capsys):
        code = run([
            "simulate", "--problem", "counterexample", "--scheme", "bem", "--dt", "0.5",
            "--steps", "10", "--paths", "4", "--seed", "1", "--out-dir", str(tmp_path),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: dt=0.5 violates") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    SMALL_RUN = ["simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1",
                 "--steps", "10", "--paths", "10", "--seed", "1"]

    def test_cap_whose_square_overflows(self, tmp_path):
        code = run(self.SMALL_RUN + ["--out-dir", str(tmp_path), "--blow-up-cap", "1e200"])
        assert code == 0
        assert (tmp_path / "linear_em_seed1.csv").exists()

    def test_initial_value_whose_square_overflows_is_usage_error(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(self.SMALL_RUN + ["--out-dir", str(tmp_path), "--x0", "1e200",
                                         "--blow-up-cap", "1e300"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: |initial_value|^2 must be finite, got (1e+200,)\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_dir_under_a_regular_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the directory is checked before the simulation runs
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated although the output directory is unusable")

        monkeypatch.setattr("polystab.ensemble.simulate_ensemble", no_simulation)
        (tmp_path / "file").write_text("x")
        code = run(self.SMALL_RUN + ["--out-dir", str(tmp_path / "file" / "sub")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("occupied", ["linear_em_seed1.csv", "linear_em_seed1_envelope.csv"])
    def test_output_file_that_is_a_directory_is_usage_error(self, tmp_path, capsys, occupied):
        (tmp_path / occupied).mkdir()
        code = run(self.SMALL_RUN + ["--out-dir", str(tmp_path), "--envelope"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("count", ["1", "0"])
    def test_checkpoint_count_below_two_is_usage_error(self, tmp_path, capsys, count):
        assert run(self.SMALL_RUN + ["--out-dir", str(tmp_path), "--checkpoints", count]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "count must be an integer >= 2" in err
        assert not (tmp_path / "linear_em_seed1.csv").exists()

    def test_two_checkpoints_are_first_and_last_step(self, tmp_path):
        argv = ["simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1",
                "--steps", "300", "--paths", "10", "--seed", "1", "--checkpoints", "2",
                "--out-dir", str(tmp_path)]
        assert run(argv) == 0
        series = MomentSeries.from_csv(tmp_path / "linear_em_seed1.csv")
        assert list(series.step_index) == [0, 300]

    def test_envelope_file(self, tmp_path):
        code = run([
            "simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1",
            "--steps", "100", "--paths", "16", "--seed", "7",
            "--out-dir", str(tmp_path), "--prefix", "env", "--envelope",
        ])
        assert code == 0
        lines = (tmp_path / "env_envelope.csv").read_text().splitlines()
        assert lines[0] == "k,t,envelope"
        series = MomentSeries.from_csv(tmp_path / "env.csv")
        assert len(lines) == 1 + len(series)

    @pytest.mark.parametrize("dt,code", [("0.1", 0), ("0.4", 1)])  # 0.4 >= 1/|Kbar| = 1/3
    def test_bem_envelope_file(self, tmp_path, dt, code):
        assert run([
            "simulate", "--problem", "counterexample", "--scheme", "bem", "--dt", dt,
            "--steps", "50", "--paths", "8", "--seed", "3", "--x0", "2.0",
            "--out-dir", str(tmp_path), "--prefix", "env", "--envelope",
        ]) == code
        env_path = tmp_path / "env_envelope.csv"
        if code:
            assert not env_path.exists()
            return
        problem = problems.cubic_counterexample()
        series = MomentSeries.from_csv(tmp_path / "env.csv")
        expected = polystab.analysis.bem_envelope(series.step_index, 0.1, problem.k1,
                                                  problem.c, 4.0)
        rows = [line.split(",") for line in env_path.read_text().splitlines()[1:]]
        assert [int(k) for k, _, _ in rows] == list(series.step_index)
        assert [float(v) for _, _, v in rows] == list(expected)

    def test_builder_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # the benchmark traces em-long by replacing the registry entry after
        # import, so simulate must read problems.PROBLEM_BUILDERS on each call
        calls = []
        linear = problems.linear_example()

        def counted_drift(x, t):
            calls.append(1)
            return linear.drift(x, t)

        counted = dataclasses.replace(linear, drift=counted_drift)
        monkeypatch.setitem(problems.PROBLEM_BUILDERS, "linear", lambda: counted)
        assert run(self.SMALL_RUN + ["--out-dir", str(tmp_path)]) == 0
        assert calls

    def test_spec_file(self, tmp_path):
        spec = {
            "problem": "linear", "scheme": "em", "dt": 0.1, "steps": 100,
            "paths": 16, "seed": 3, "out_dir": str(tmp_path), "prefix": "from_spec",
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["simulate", "--spec", str(spec_path)]) == 0
        assert (tmp_path / "from_spec.csv").exists()

    def test_spec_file_flag_override(self, tmp_path):
        spec = {
            "problem": "linear", "scheme": "em", "dt": 0.1, "steps": 100,
            "paths": 16, "seed": 3, "out_dir": str(tmp_path),
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["simulate", "--spec", str(spec_path), "--seed", "9"]) == 0
        assert (tmp_path / "linear_em_seed9.csv").exists()

    def test_spec_file_unknown_key(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"problem": "linear", "fancy": 1}))
        assert run(["simulate", "--spec", str(spec_path)]) == 1
        assert "unknown spec keys" in capsys.readouterr().err

    @pytest.mark.parametrize("x0,message", [
        ([1.0, 2.0], "error: x0 has shape (2,), problem 'linear' needs (1,)"),
        ([[1.0]], "error: x0 has shape (1, 1), problem 'linear' needs (1,)"),
        ({"a": 1.0}, "error: "),
    ], ids=["two-values", "nested", "object"])
    def test_spec_x0_of_wrong_shape_is_usage_error(self, tmp_path, capsys, x0, message):
        spec = {
            "problem": "linear", "scheme": "em", "dt": 0.1, "steps": 10,
            "paths": 4, "seed": 3, "x0": x0, "out_dir": str(tmp_path),
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run(["simulate", "--spec", str(spec_path)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("entry", [
        {"out_dir": 5},
        {"out_dir": None},
        {"prefix": 5},
        {"prefix": ["run"]},
        {"envelope": "no"},
        {"envelope": 1},
        {"checkpoints": [0.5, 3]},
        {"checkpoints": 2.5},
        {"dt": "0.1"},
        {"steps": True},
        {"seed": 1.5},
        {"k1": "2"},
        {"problem": ["linear"]},
        {"x0": 10**400},
        {"x0": "2"},
        {"x0": True},
        {"x0": ["1"]},
        {"x0": [True]},
        {"out_dir": "a\u0000b"},
        {"prefix": "a\u0000b"},
    ], ids=lambda entry: json.dumps(entry)[:32])
    def test_spec_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, monkeypatch, entry):
        monkeypatch.chdir(tmp_path)  # a relative out_dir must stay in here
        spec = {"problem": "linear", "scheme": "em", "dt": 0.1, "steps": 10, "paths": 4,
                "seed": 3, "out_dir": "out"} | entry
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert run(["simulate", "--spec", "spec.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["spec.json"]

    def test_envelope_constant_beyond_the_float_range_is_a_warning(self, tmp_path, capsys):
        assert run(self.SMALL_RUN + ["--out-dir", str(tmp_path), "--c", "1e200", "--envelope"]) == 0
        assert "warning: envelope not written: c = 1e+200 is too large" in capsys.readouterr().err
        assert (tmp_path / "linear_em_seed1.csv").exists()
        assert not (tmp_path / "linear_em_seed1_envelope.csv").exists()

    def test_library_warning_is_one_line(self, tmp_path, capsys):
        code = run(["simulate", "--problem", "bem-example", "--scheme", "bem", "--dt", "0.5",
                    "--steps", "20", "--paths", "10", "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: dt=0.5 is not below 1/K1 = 0.3333333333333333; the polynomial "
            "decay guarantee does not cover this step size\n"
        )

    def test_library_warning_raised_as_error_is_a_numerical_failure(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["simulate", "--problem", "bem-example", "--scheme", "bem", "--dt", "0.5",
                        "--steps", "20", "--paths", "10", "--seed", "1", "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: dt=0.5 is not below 1/K1 = 0.3333333333333333; the polynomial "
            "decay guarantee does not cover this step size\n"
        )
        assert not any(tmp_path.iterdir())

    def test_overflowing_drift_fails_the_implicit_solve(self, tmp_path, capsys):
        # the cubic drift overflows at x0 = 1e110: every solve fails, none raises
        code = run(["simulate", "--problem", "counterexample", "--scheme", "bem", "--dt", "0.1",
                    "--steps", "50", "--paths", "100", "--seed", "1", "--x0", "1e110",
                    "--blow-up-cap", "1e300", "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "numerical failure: 100/100 paths failed the implicit solve (100.0% > 1%); aborting\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_arithmetic_error_from_a_coefficient_is_a_numerical_failure(self, tmp_path, capsys):
        # bem-example's (1 + t)**4 overflows on the Python float t = 1e78
        code = run(["simulate", "--problem", "bem-example", "--scheme", "em", "--dt", "1e78",
                    "--steps", "3", "--paths", "4", "--seed", "1", "--x0", "0",
                    "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("numerical failure: OverflowError: ")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_counterexample_blow_up_fraction_reported(self, tmp_path, capsys):
        code = run([
            "simulate", "--problem", "counterexample", "--scheme", "em", "--dt", "0.1",
            "--steps", "200", "--paths", "64", "--seed", "1", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "blown up 64" in out
        assert "lower bounds" in out


class TestAnalyze:
    def test_conforming_power_law(self, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        write_power_law_csv(csv, -5.0)
        code = run(["analyze", "--csv", str(csv), "--k1", "3.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slope"] == pytest.approx(-5.0, abs=1e-9)
        assert report["theoretical_bound"] == -5.0
        assert report["conforms"] is True

    def test_report_to_file(self, tmp_path):
        csv = tmp_path / "m.csv"
        write_power_law_csv(csv, -1.0)
        out = tmp_path / "report.json"
        code = run(["analyze", "--csv", str(csv), "--k1", "1.0", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["conforms"] is True

    def test_zero_mean_square_warning_is_one_line(self, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        write_power_law_csv(csv, -1.0)
        lines = csv.read_text().splitlines()
        for i in (-1, -2):  # the last two checkpoints, inside the fit window
            fields = lines[i].split(",")
            fields[2] = "0.0"
            lines[i] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        assert run(["analyze", "--csv", str(csv), "--k1", "1"]) == 0
        assert capsys.readouterr().err == (
            "warning: excluding 2 checkpoints with mean_square == 0 from the fit\n"
        )

    def test_zero_mean_square_warning_raised_as_error(self, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        write_power_law_csv(csv, -1.0)
        lines = csv.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[2] = "0.0"  # the last checkpoint, inside the fit window
        lines[-1] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["analyze", "--csv", str(csv), "--k1", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: excluding 1 checkpoints with mean_square == 0 from the fit\n"
        )

    def test_nonconforming_exit_code(self, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        write_power_law_csv(csv, -1.0)
        code = run(["analyze", "--csv", str(csv), "--k1", "3.0"])
        assert code == 3
        assert "conformance failure" in capsys.readouterr().err

    def test_blow_ups_in_window_numerical_error(self, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        t = np.concatenate([[0.0], np.geomspace(0.01, 1e4, 59)])
        lines = [CSV_HEADER]
        for i, ti in enumerate(t):
            blown = 5 if i >= len(t) - 3 else 0
            lines.append(f"{i},{float(ti)!r},{float((1 + ti) ** -1)!r},0.0,{100 - blown},{blown}")
        csv.write_text("\n".join(lines) + "\n")
        code = run(["analyze", "--csv", str(csv), "--k1", "1.0"])
        assert code == 2
        assert "estimation error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["inf", "nan", "-0.001"])
    def test_invalid_mean_square_numerical_error(self, tmp_path, capsys, bad):
        # mean_square bad at every other checkpoint: an estimation error, not
        # a verdict on a NaN slope (inf) or a fit on the rest (nan, negative)
        csv = tmp_path / "m.csv"
        write_power_law_csv(csv, -1.0)
        lines = csv.read_text().splitlines()
        for i in range(2, len(lines), 2):
            fields = lines[i].split(",")
            fields[2] = bad
            lines[i] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        code = run(["analyze", "--csv", str(csv), "--k1", "1.0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("estimation error: ") and "NaN, infinite or negative" in captured.err
        assert "mean_square == 0" not in captured.err

    def test_malformed_csv_names_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text(CSV_HEADER + "\n0,0.0,1.0,0.0,10,0\noops\n")
        code = run(["analyze", "--csv", str(csv), "--k1", "1.0"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @staticmethod
    def bad_csv_rows(kind):
        """Rows (k, t, mean_square, surviving, blown_up) of a CSV that analyze refuses."""
        if kind == "one time":
            return [(k, 1.0, 0.5, 100, 0) for k in range(30)]
        if kind == "negative time":
            return [(k, 0.1 * k - 2.0, 0.5, 100, 0) for k in range(40)]
        rows = [(k, 0.1 * 1.3**k, (1.0 + 0.1 * 1.3**k) ** -1, 100, 0) for k in range(40)]
        if kind == "swapped rows":
            rows[35], rows[36] = rows[36], rows[35]
        else:  # alternating surviving, blown_up fixed
            rows = [(k, t, m2, 90 if k % 2 else 100, 0) for k, t, m2, _, _ in rows]
        return rows

    @pytest.mark.parametrize("kind,message", [
        ("one time", "estimation error: every usable checkpoint in the fit window has the same time"),
        ("negative time", "parse error: m.csv: line 2: t must be finite and >= 0, got -2.0"),
        ("swapped rows", "parse error: m.csv: line 38: k must strictly increase, got 35 after 36"),
        ("alternating surviving", "parse error: m.csv: line 3: surviving + blown_up must be "
                                  "the same on every row, got 90 after 100"),
    ])
    def test_bad_series_is_a_data_error(self, tmp_path, monkeypatch, capsys, kind, message):
        monkeypatch.chdir(tmp_path)
        lines = [CSV_HEADER] + [f"{k},{t!r},{m2!r},0.0,{s},{b}"
                                for k, t, m2, s, b in self.bad_csv_rows(kind)]
        (tmp_path / "m.csv").write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["analyze", "--csv", "m.csv", "--k1", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1

    def test_missing_file_usage_error(self, tmp_path):
        assert run(["analyze", "--csv", str(tmp_path / "nope.csv"), "--k1", "1.0"]) == 1

    @pytest.mark.parametrize("out", ["missing/report.json", ".", "a\0b"])
    def test_unwritable_out_is_usage_error(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        write_power_law_csv(tmp_path / "m.csv", -1.0)
        assert run(["analyze", "--csv", "m.csv", "--k1", "1.0", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --out:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--k1", "nan"), ("--k1", "inf"), ("--k1", "-inf"),
        ("--tolerance", "nan"), ("--tolerance", "inf"), ("--tolerance", "-1"),
        ("--window-fraction", "nan"),
    ])
    def test_nonfinite_k1_or_bad_tolerance_is_usage_error(self, tmp_path, capsys, flag, value):
        csv = tmp_path / "m.csv"
        write_power_law_csv(csv, -1.0)
        argv = ["analyze", "--csv", str(csv), "--k1", "1.0", f"{flag}={value}"]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestRoundTrip:
    def test_simulate_then_analyze_deterministic(self, tmp_path):
        def one_round(tag):
            out_dir = tmp_path / tag
            assert run([
                "simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1",
                "--steps", "2000", "--paths", "200", "--seed", "5",
                "--out-dir", str(out_dir), "--prefix", "run",
            ]) == 0
            report = out_dir / "report.json"
            assert run([
                "analyze", "--csv", str(out_dir / "run.csv"), "--k1", "1.0",
                "--out", str(report),
            ]) == 0
            payload = json.loads(report.read_text())
            payload.pop("csv")  # path differs between rounds by construction
            return (out_dir / "run.csv").read_bytes(), payload

        csv_a, report_a = one_round("a")
        csv_b, report_b = one_round("b")
        assert csv_a == csv_b
        assert report_a == report_b
        assert report_a["conforms"] is True


VERIFY_GAMMA_STDOUT_300_60 = (
    "gamma checks (worst relative error or log margin of each, against its rule):\n"
    "  product identity     <= 1e-10   pass  worst +1.767e-14 at "
    "(7124, 9407, 3.960187289067554, 9.44923096041372, 0.21256858976656534)  (300 samples)\n"
    "  ratio/power eta < 1  < 0        pass  worst -4.500e-06 at (10000.0, 0.9)  (35 samples)\n"
    "  ratio/power eta > 1  > 0        pass  worst +5.500e-06 at (10000.0, 1.1)  (35 samples)\n"
    "  em-initial-term      >= -1e-12  pass  worst +1.026e-01 at (39, 0.05, 1.0)  (885 samples)\n"
    "  em-sum-term          >= -1e-12  pass  worst +2.516e-02 at (60, 59, 0.05, 1.0)  "
    "(27435 samples)\n"
    "  bem-initial-term     >= -1e-12  pass  worst +1.477e-01 at (60, 0.05, 1.0)  (885 samples)\n"
    "  bem-sum-term         >= -1e-12  pass  worst +4.923e-02 at (60, 59, 0.05, 1.0)  "
    "(27435 samples)\n"
    "all gamma checks passed\n"
)


class TestVerifyGamma:
    def test_stdout_pinned(self, capsys):
        # the whole report on the fixed grids, recorded before they became
        # module constants: the grids, tolerance and slack are part of it
        assert run(["verify-gamma", "--samples", "300", "--k-max", "60"]) == 0
        captured = capsys.readouterr()
        assert captured.out == VERIFY_GAMMA_STDOUT_300_60
        assert captured.err == ""

    def test_default_grids_pass(self, capsys):
        code = run(["verify-gamma", "--samples", "200", "--k-max", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all gamma checks passed" in out
        assert "product identity" in out
        assert "em-sum-term" in out

    def test_violation_reported_with_point(self, monkeypatch, capsys):
        fake = (
            ConditionCheck(
                name="em-initial-term", rule=">= -1e-12", worst_margin=-1.0,
                worst_point=(7, 0.1, 2.0), samples=10, passed=False,
            ),
        )
        monkeypatch.setattr(polystab.analysis, "verify_proof_bounds", lambda **kw: fake)
        code = run(["verify-gamma", "--samples", "50", "--k-max", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "em-initial-term" in err and "(7, 0.1, 2.0)" in err

    def test_every_failing_check_is_named(self, monkeypatch, capsys):
        # a zero margin breaks both strict sign rules, eta < 1 and eta > 1
        monkeypatch.setattr(polystab.gamma, "ratio_power_margin", lambda x, eta: 0.0)
        assert run(["verify-gamma", "--samples", "5", "--k-max", "10"]) == 2
        captured = capsys.readouterr()
        fails = [line for line in captured.err.splitlines() if line.startswith("FAIL: ")]
        assert [line.split(":")[1].strip() for line in fails] == [
            "ratio/power eta < 1", "ratio/power eta > 1"
        ]
        assert captured.out.count(" FAIL ") == 2

    def test_k_max_above_the_ceiling_is_usage_error(self, capsys):
        k_max = str(polystab.analysis.PROOF_BOUNDS_MAX_K + 1)
        assert run(["verify-gamma", "--samples", "5", "--k-max", k_max]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: k_max must be an integer <= ")

    @pytest.mark.parametrize("argv", [
        ["--k-max", "0"], ["--k-max", "1"], ["--seed", "-1"],
        ["--samples", "0"], ["--samples", "-3"],
    ], ids=" ".join)
    def test_bad_argument_is_usage_error(self, capsys, argv):
        assert run(["verify-gamma", "--samples", "5", "--k-max", "10", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestCounterexample:
    def test_reports_divergence_step(self, capsys):
        code = run(["counterexample", "--dt", "0.1", "--cap", "1e12", "--paths", "64",
                    "--steps", "120", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exceeded at step" in out
        assert "invariant" in out and "holds" in out
        assert "blown up" in out

    def test_cap_not_exceeded_within_k_max(self, capsys):
        code = run(["counterexample", "--dt", "0.1", "--k-max", "3", "--cap", "1e300",
                    "--paths", "50", "--steps", "50"])
        assert code == 0
        assert "cap 1e+300 not exceeded within k_max=3\n" in capsys.readouterr().out

    def test_dt_out_of_range_usage(self, capsys):
        assert run(["counterexample", "--dt", "0.6"]) == 1
        assert "0, 0.5" in capsys.readouterr().err.replace("(", "").replace(")", "")

    @pytest.mark.parametrize("argv", [
        ["--cap", "nan"], ["--cap", "inf"], ["--cap", "0.5"],
        ["--steps", "0"], ["--paths", "0"], ["--x0", "inf"],
    ], ids=" ".join)
    def test_bad_argument_is_usage_error_before_any_output(self, capsys, argv):
        assert run(["counterexample", "--dt", "0.1", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_unknown_command_usage(self):
        assert run(["frobnicate"]) == 1


# The child limits its address space to 2 GiB before it imports numpy, so a
# run that grows its memory chunk by chunk ends there in a MemoryError rather
# than taking the machine's memory; the timeout ends a run that hangs.
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
from polystab.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS as Linux applies it")
@pytest.mark.parametrize("command", [
    ["simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1", "--steps", "10"],
    ["counterexample", "--dt", "0.1"],
], ids=lambda command: command[0])
def test_run_too_large_to_allocate_is_one_line(tmp_path, command):
    # 1e14 paths need petabytes for their checkpoint norms alone
    src = str(Path(polystab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, *command, "--paths", "100000000000000", "--seed", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1


# Strings hold no path separator or dot, so no drawn out_dir or prefix leaves
# the test's directory; NUL is kept, since a path may not contain it.
TEXT = st.text(st.characters(blacklist_characters="/\\.", blacklist_categories=("Cs",)),
               max_size=4)
# Integers stay at or below 8, so no drawn run exceeds 8 paths x 20 steps.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=2),
    max_leaves=4,
)
GOOD = {
    "problem": st.sampled_from(["linear", "counterexample", "bem-example"]),
    "scheme": st.sampled_from(["em", "bem"]),
    "dt": st.floats(1e-3, 0.6),
    "steps": st.integers(1, 20),
    "paths": st.integers(1, 8),
    "seed": st.integers(-2**70, 2**70),
    "x0": st.floats(-10, 10) | st.lists(st.floats(-10, 10), min_size=1, max_size=1),
    "k1": st.floats(0.01, 1e3),
    "c": st.floats(0.01, 1e200),
    "checkpoints": st.integers(2, 25) | st.lists(st.integers(-1, 21), max_size=4),
    "blow_up_cap": st.floats(0.5, 1e308),
    "out_dir": st.sampled_from(["", "out", "a/b"]),
    "prefix": st.none() | TEXT,
    "envelope": st.booleans(),
}
SPEC_KEYS = [f.name for f in dataclasses.fields(ExperimentSpec)]
REQUIRED = ["problem", "scheme", "dt", "steps", "paths", "seed"]
FLAG_VALUES = {
    "--problem": GOOD["problem"], "--scheme": GOOD["scheme"], "--dt": GOOD["dt"].map(repr),
    "--steps": GOOD["steps"].map(str), "--paths": GOOD["paths"].map(str),
    "--seed": GOOD["seed"].map(str), "--x0": st.floats(-10, 10).map(repr),
    "--k1": GOOD["k1"].map(repr), "--c": GOOD["c"].map(repr),
    "--checkpoints": st.integers(-1, 25).map(str), "--blow-up-cap": GOOD["blow_up_cap"].map(repr),
    "--out-dir": GOOD["out_dir"], "--prefix": st.sampled_from(["run", "x y", "\u00e9"]),
}
JUNK_WORDS = st.sampled_from(["", "-1", "2.5", "1e300", "nan", "inf", "abc", "[1]", "--dt"])


@st.composite
def specs(draw):
    """A valid spec with up to three keys dropped or set to any JSON value."""
    spec = draw(st.fixed_dictionaries(
        {key: GOOD[key] for key in REQUIRED},
        optional={key: GOOD[key] for key in SPEC_KEYS if key not in REQUIRED},
    ))
    for key in draw(st.lists(st.sampled_from(SPEC_KEYS + ["extra"]), max_size=3, unique=True)):
        if draw(st.booleans()):
            spec.pop(key, None)
        else:
            spec[key] = draw(JSON)
    return spec


@st.composite
def flag_lists(draw, values=FLAG_VALUES, max_size=3):
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(values)), max_size=max_size, unique=True)):
        junk = draw(st.integers(0, 9)) == 5  # most flags get a value argparse takes
        argv += [flag, draw(JUNK_WORDS if junk else values[flag])]
    return argv


# Any float: nan, inf, negatives and the extremes included.
ANY_FLOAT = st.floats().map(repr)
# Flag values for the other commands. Each of their fuzz argv starts from small
# valid values for the required and costly flags, which a drawn flag overrides
# (argparse keeps the last).
ANALYZE_VALUES = {
    "--csv": st.sampled_from(["m.csv", "blown.csv", "bad.csv", "missing.csv"]),
    "--k1": st.floats(0, 5).map(repr) | ANY_FLOAT,
    "--window-fraction": st.floats(0, 1).map(repr) | ANY_FLOAT,
    "--tolerance": st.floats(0, 1).map(repr) | ANY_FLOAT,
    "--out": st.sampled_from(["r.json", ".", "missing/r.json", "a\0b"]),
}
# --k-max and --samples stay small, so no draw builds a large grid.
VERIFY_VALUES = {
    "--samples": st.integers(-1, 5).map(str),
    "--seed": st.integers(-1, 2**70).map(str),
    "--k-max": st.integers(0, 12).map(str),
}
# --paths and --steps stay small; --k-max bounds the recursion's length.
COUNTEREXAMPLE_VALUES = {
    "--dt": st.floats(0, 0.6).map(repr) | ANY_FLOAT,
    "--cap": st.floats(0.5, 1e308).map(repr) | ANY_FLOAT,
    "--k-max": st.integers(0, 40).map(str),
    "--paths": st.integers(0, 8).map(str),
    "--steps": st.integers(0, 20).map(str),
    "--seed": GOOD["seed"].map(str),
    "--x0": st.floats(-10, 10).map(repr),
}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def fuzz_main(argv):
    """main(argv) with warnings silenced; must return a documented exit code."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2, 3), argv


class TestFuzz:
    def test_good_values_cover_every_spec_key(self):
        assert sorted(GOOD) == sorted(SPEC_KEYS)

    @settings(FUZZ, max_examples=150)
    @given(spec=specs() | st.none() | JSON, flags=flag_lists(), envelope=st.booleans())
    def test_simulate_returns_a_documented_exit_code(self, tmp_path, monkeypatch, spec,
                                                     flags, envelope):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", *flags, *(["--envelope"] if envelope else [])]
        if spec is not None:
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            argv += ["--spec", "spec.json"]
        fuzz_main(argv)

    @FUZZ
    @given(flags=flag_lists(ANALYZE_VALUES, max_size=5))
    def test_analyze_returns_a_documented_exit_code(self, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        write_power_law_csv(tmp_path / "m.csv", -1.0)
        lines = (tmp_path / "m.csv").read_text().splitlines()
        blown = lines[:-1] + ["59,1e4,1e-4,0.0,90,10"]
        (tmp_path / "blown.csv").write_text("\n".join(blown) + "\n")
        (tmp_path / "bad.csv").write_text(CSV_HEADER + "\n0,0.0,1.0\n")
        fuzz_main(["analyze", "--csv", "m.csv", "--k1", "1.0", *flags])

    @settings(FUZZ, max_examples=30)  # a run that passes its checks takes ~35 ms
    @given(flags=flag_lists(VERIFY_VALUES))
    def test_verify_gamma_returns_a_documented_exit_code(self, flags):
        fuzz_main(["verify-gamma", "--samples", "2", "--k-max", "4", *flags])

    @FUZZ
    @given(flags=flag_lists(COUNTEREXAMPLE_VALUES, max_size=4))
    def test_counterexample_returns_a_documented_exit_code(self, flags):
        fuzz_main(["counterexample", "--dt", "0.1", "--paths", "4", "--steps", "10", *flags])
