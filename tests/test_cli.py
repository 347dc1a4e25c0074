import json
import math

import numpy as np
import pytest

from riskbench import (
    CalibrationEntry,
    CalibrationTable,
    estimate,
    exact_unbiased_es_constant,
    load_returns_csv,
)
from riskbench.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exact_table(tmp_path, n, alpha) -> str:
    """Path of a table file holding the exact constant for (n, alpha)."""
    table = CalibrationTable()
    table.add(exact_unbiased_es_constant(n, alpha))
    path = tmp_path / "exact.json"
    table.save(path)
    return str(path)


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1", "--length", "5", "--bogus")
        assert code == 1

    def test_unknown_method_tag_lists_valid(self, capsys):
        code, _, err = run(
            capsys, "backtest", "--simulate", "--alpha", "0.05", "--methods", "wat",
            "--length", "200",
        )
        assert code == 1
        assert "valid tags" in err

    def test_help_lists_flags_with_defaults(self, capsys):
        for sub, flag in [
            ("calibrate", "--mc"),
            ("estimate", "--scale"),
            ("backtest", "--window"),
            ("simulate", "--seed"),
            ("replicate", "--reps"),
        ]:
            code, out, _ = run(capsys, sub, "--help")
            assert code == 0
            assert flag in out
            if sub in ("backtest", "replicate"):
                assert "default: 50" in out  # window default surfaced


class TestSimulate:
    def test_round_trip_via_loader(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        code, _, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                         "--length", "120", "--seed", "3", "--out", str(out))
        assert code == 0
        series = load_returns_csv(out, "ret", "decimal")
        assert len(series) == 120

    def test_out_into_missing_directory_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "simulate", "--mu", "0", "--sigma", "1", "--length", "10",
                             "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1

    def test_stdout_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                             "--length", "10", "--seed", "3")
        code2, out2, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                             "--length", "10", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("command", [
        ["simulate"], ["backtest", "--simulate", "--alpha", "0.05", "--methods", "gaussian"]])
    def test_zero_length_names_the_option(self, capsys, command):
        code, out, err = run(capsys, *command, "--mu", "0", "--sigma", "1", "--length", "0")
        assert (code, out, err) == (3, "", "error: length must be positive, got 0\n")


class TestCalibrate:
    def test_writes_table_and_prints_constant(self, capsys, tmp_path):
        table_path = tmp_path / "table.json"
        code, out, _ = run(
            capsys, "calibrate", "--n", "50", "--alpha", "0.10",
            "--mc", "200000", "--seed", "42", "--table", str(table_path),
        )
        assert code == 0
        assert "a_n=" in out
        entry = CalibrationTable.load(table_path).lookup(50, 0.10)
        assert entry.a_n == pytest.approx(-1.81033, abs=0.01)

    def test_stores_exact_constant_and_prints_mc_check(self, capsys, tmp_path):
        table_path = tmp_path / "table.json"
        code, out, _ = run(
            capsys, "calibrate", "--n", "50", "--alpha", "0.10",
            "--mc", "200000", "--seed", "3", "--table", str(table_path),
        )
        assert code == 0
        entry = CalibrationTable.load(table_path).lookup(50, 0.10)
        assert entry.source == "quadrature"
        assert entry.a_n == pytest.approx(-1.8101034083, abs=1e-9)
        exact_line, mc_line = out.splitlines()
        assert "source=quadrature" in exact_line
        assert mc_line.startswith("mc_check a_n=") and "diff=" in mc_line

    def test_bad_samples_is_numeric_error(self, capsys):
        code, _, _ = run(capsys, "calibrate", "--n", "50", "--alpha", "0.10",
                         "--mc", "100", "--seed", "0")
        assert code == 3


class TestEstimate:
    @pytest.fixture()
    def csv_path(self, capsys, tmp_path):
        path = tmp_path / "returns.csv"
        code, _, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                         "--length", "200", "--seed", "9", "--out", str(path))
        assert code == 0
        return path

    def test_var_estimates(self, capsys, csv_path):
        code, out, _ = run(
            capsys, "estimate", "--input", str(csv_path), "--column", "ret",
            "--scale", "decimal", "--method", "emp,norm,u", "--measure", "var",
            "--alpha", "0.05",
        )
        assert code == 0
        assert "empirical" in out and "gaussian_unbiased" in out

    def test_unbiased_es_without_table_matches_exact_table(self, capsys, csv_path, tmp_path):
        args = ("estimate", "--input", str(csv_path), "--column", "ret", "--scale", "decimal",
                "--method", "u,norm", "--measure", "es", "--alpha", "0.10")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert (0, out, "") == run(capsys, *args, "--table", exact_table(tmp_path, 200, 0.10))

    def test_stored_entry_replaces_exact_constant(self, capsys, csv_path, tmp_path):
        table = CalibrationTable()
        table.add(CalibrationEntry(200, 0.10, 2.0 * math.sqrt(200 / (199 * 201)), -2.0, 1, 0, 0.0))
        table.save(tmp_path / "stored.json")
        args = ("estimate", "--input", str(csv_path), "--column", "ret", "--scale", "decimal",
                "--method", "u", "--measure", "es", "--alpha", "0.10")
        x = load_returns_csv(csv_path, "ret", "decimal").values
        _, out, _ = run(capsys, *args, "--table", str(tmp_path / "stored.json"))
        capital = float(out.split("capital=")[1])
        assert capital == estimate("gaussian_unbiased", x, 0.10, "es", table=table)
        assert capital != estimate("gaussian_unbiased", x, 0.10, "es")

    @pytest.mark.parametrize("q", ["-0.5", "nan"])
    def test_gpd_quantile_outside_unit_interval_exits_1(self, capsys, csv_path, q):
        code, out, err = run(
            capsys, "estimate", "--input", str(csv_path), "--column", "ret",
            "--scale", "decimal", "--method", "gpd", "--measure", "var",
            "--alpha", "0.05", f"--gpd-q={q}",
        )
        assert code == 1
        assert err.splitlines() == [f"error: gpd_threshold_quantile must lie in (0, 1), got {q}"]

    @pytest.mark.parametrize("q", ["-0.5", "nan"])
    def test_gpd_quantile_checked_when_no_gpd_method_runs(self, capsys, csv_path, q):
        # as in backtest, the option is checked wherever it is passed
        code, _, err = run(
            capsys, "estimate", "--input", str(csv_path), "--column", "ret",
            "--scale", "decimal", "--method", "u", "--measure", "var",
            "--alpha", "0.05", f"--gpd-q={q}",
        )
        assert code == 1
        assert err.splitlines() == [f"error: gpd_threshold_quantile must lie in (0, 1), got {q}"]

    def test_missing_column_exits_2(self, capsys, csv_path):
        code, _, _ = run(
            capsys, "estimate", "--input", str(csv_path), "--column", "nope",
            "--scale", "decimal", "--method", "emp", "--measure", "var",
            "--alpha", "0.05",
        )
        assert code == 2

    def test_es_with_table(self, capsys, csv_path, tmp_path):
        table_path = tmp_path / "t.json"
        code, _, _ = run(capsys, "calibrate", "--n", "200", "--alpha", "0.10",
                         "--mc", "150000", "--seed", "2", "--table", str(table_path))
        assert code == 0
        code, out, _ = run(
            capsys, "estimate", "--input", str(csv_path), "--column", "ret",
            "--scale", "decimal", "--method", "u,norm", "--measure", "es",
            "--alpha", "0.10", "--table", str(table_path),
        )
        assert code == 0
        assert "gaussian_unbiased" in out


class TestBacktest:
    def test_simulated_table_output(self, capsys):
        code, out, _ = run(
            capsys, "backtest", "--simulate", "--mu", "0", "--sigma", "1",
            "--length", "4000", "--window", "50", "--alpha", "0.05",
            "--methods", "emp,norm,cf,u", "--seed", "7",
        )
        assert code == 0
        assert "gaussian_unbiased" in out

    def test_table_bytes_with_a_failed_method_and_an_undefined_z(self, capsys):
        code, out, err = run(capsys, "backtest", "--simulate", "--length", "300", "--window", "10",
                             "--alpha", "0.05", "--methods", "gpd,u,mean", "--measure", "both",
                             "--seed", "3")
        assert (code, err) == (0, "")
        assert out == (
            "series=simulated(mu=0,sigma=1,n=300,seed=3) window=10 alpha=0.05 windows=30 evaluated=290\n"
            "method              exceed     rate       bias       es_z    var_score  joint_score\n"
            "gpd                FAILED: InsufficientTailError: window 0: only 3 observations strictly "
            "below threshold -0.1352130321022479 (need 5)\n"
            "gaussian_unbiased       15   0.0517      0.114    -0.0848      0.12847     0.075126\n"
            "mean                   139   0.4793       1.85          -      0.42663       4.4744\n"
        )

    def test_table_prints_data_unit_columns_in_significant_digits(self, capsys):
        # at sigma = 2^-560 fixed decimals printed every bias and score as zero
        args = ("backtest", "--simulate", "--length", "2000", "--sigma", repr(2.0**-560),
                "--alpha", "0.05", "--methods", "u,norm,emp,cf,gpd,mean", "--measure", "both",
                "--seed", "1")
        code, out, _ = run(capsys, *args)
        methods = json.loads(run(capsys, *args, "--format", "json")[1])["methods"]
        lines = out.splitlines()
        assert code == 0
        assert {len(line) for line in lines[2:]} == {len(lines[1])}  # the header's columns
        for line in lines[2:]:
            tag, _, _, bias, _, var_score, joint_score = line.split()
            r = methods[tag]
            assert float(bias) == pytest.approx(r["bias_statistic"], rel=5e-3)
            assert float(var_score) == pytest.approx(r["var_mean_score"], rel=5e-5)
            assert float(joint_score) == pytest.approx(r["joint_mean_score"], rel=5e-5)
            assert r["bias_statistic"] != 0.0 and abs(r["var_mean_score"]) < 2.0**-500

    def test_json_stdout_byte_identical(self, capsys):
        args = (
            "backtest", "--simulate", "--length", "500", "--alpha", "0.05",
            "--methods", "emp,u", "--seed", "3", "--format", "json",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["type"] == "backtest_report"

    def test_csv_output_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "backtest", "--simulate", "--length", "500", "--alpha", "0.05",
            "--methods", "emp", "--seed", "3", "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith("method,")

    def test_too_short_series_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "backtest", "--simulate", "--length", "60", "--alpha", "0.05",
            "--methods", "emp", "--seed", "3",
        )
        assert code == 2

    def test_es_without_table_matches_exact_table(self, capsys, tmp_path):
        args = ("backtest", "--simulate", "--length", "500", "--alpha", "0.10", "--methods", "u,norm",
                "--measure", "both", "--seed", "3", "--format", "json")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert (0, out, "") == run(capsys, *args, "--table", exact_table(tmp_path, 50, 0.10))

    def test_table_entry_at_another_alpha_is_not_read(self, capsys, tmp_path):
        # a table holding a_50 at 4e-7 leaves a backtest at 1e-7 as no table does
        args = ("backtest", "--simulate", "--length", "2000", "--alpha", "1e-7", "--methods", "u",
                "--measure", "es", "--format", "json")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert (0, out, "") == run(capsys, *args, "--table", exact_table(tmp_path, 50, 4e-7))

    def test_table_entry_a_rounding_step_away_is_not_read(self, capsys, tmp_path):
        # 0.0500004 lies within 1e-6 of a held 0.05 and reads its own exact constant
        args = ("backtest", "--simulate", "--length", "1000", "--alpha", "0.0500004", "--methods",
                "u", "--measure", "es", "--format", "json")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert (0, out, "") == run(capsys, *args, "--table", exact_table(tmp_path, 50, 0.05))

    def test_kde_at_its_minimum_window_runs(self, capsys):
        code, out, err = run(capsys, "backtest", "--simulate", "--window", "10", "--alpha", "0.05",
                             "--methods", "kde", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["methods"]["kde"]["failed"] is False

    def test_kde_below_its_minimum_window_exits_1(self, capsys):
        code, out, err = run(capsys, "backtest", "--simulate", "--window", "5", "--alpha", "0.05",
                             "--methods", "kde")
        assert (code, out) == (1, "")
        assert "window 5 is below the 10 observations that kde needs" in err


class TestReplicate:
    def test_summary_and_csv_long(self, capsys):
        code, out, _ = run(
            capsys, "replicate", "--reps", "5", "--length", "300", "--alpha", "0.05",
            "--methods", "emp,u", "--seed", "4", "--format", "csv-long",
        )
        assert code == 0
        assert out.splitlines()[0] == "method,statistic,value"

    def test_table_output(self, capsys):
        code, out, _ = run(
            capsys, "replicate", "--reps", "4", "--length", "300", "--alpha", "0.05",
            "--methods", "emp,u", "--seed", "4",
        )
        assert code == 0
        assert "er_mean" in out

    def test_table_bytes_with_a_failing_method(self, capsys):
        code, out, err = run(capsys, "replicate", "--reps", "4", "--length", "300", "--window", "10",
                             "--alpha", "0.05", "--methods", "gpd,u,norm,emp", "--measure", "both",
                             "--seed", "4")
        assert (code, err) == (0, "")
        assert out == (
            "replications=4 length=300 window=10 alpha=0.05 mu=0 sigma=1 reference=gaussian_unbiased\n"
            "method              er_mean    er_sd   rd_mean    rd_sd      or   z_mean    z_or\n"
            "gpd                       -        -         -        -       -        -       -\n"
            "gaussian_unbiased    0.0466   0.0107         -        -       -   0.0711       -\n"
            "gaussian             0.0690   0.0074     51.7%    21.4%   75.0%  -0.5686   75.0%\n"
            "empirical            0.1147   0.0114    158.9%    73.8%  100.0%  -2.3269  100.0%\n"
        )
        summary = json.loads(run(capsys, "replicate", "--reps", "4", "--length", "300", "--window",
                                 "10", "--alpha", "0.05", "--methods", "gpd,u,norm,emp",
                                 "--measure", "both", "--seed", "4", "--format", "json")[1])
        assert {m: r["failures"] for m, r in summary["methods"].items()} == {
            "gpd": 4, "gaussian_unbiased": 0, "gaussian": 0, "empirical": 0}

    def test_table_format_to_file_writes_json(self, capsys, tmp_path):
        args = ("replicate", "--reps", "3", "--length", "300", "--alpha", "0.05", "--methods", "emp,u")
        path = tmp_path / "summary.json"
        assert run(capsys, *args, "--out", str(path)) == (0, "", f"wrote {path}\n")
        assert path.read_text().rstrip("\n") == run(capsys, *args, "--format", "json")[1].rstrip("\n")

    def test_es_without_table_matches_exact_table(self, capsys, tmp_path):
        args = ("replicate", "--reps", "4", "--length", "300", "--alpha", "0.05", "--methods", "u,norm",
                "--measure", "both", "--seed", "4", "--format", "json")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert (0, out, "") == run(capsys, *args, "--table", exact_table(tmp_path, 50, 0.05))


    def test_kde_below_its_minimum_window_exits_1(self, capsys):
        code, out, err = run(capsys, "replicate", "--reps", "2", "--length", "300", "--window", "9",
                             "--alpha", "0.05", "--methods", "kde", "--seed", "4")
        assert (code, out) == (1, "")
        assert "window 9 is below the 10 observations that kde needs" in err


class TestTablePaths:
    """A table path that cannot be written or read ends in one error line and exit 2."""

    COMMANDS = {
        "estimate": ("estimate", "--column", "ret", "--scale", "decimal", "--method", "u",
                     "--measure", "es", "--alpha", "0.10"),
        "backtest": ("backtest", "--simulate", "--length", "300", "--alpha", "0.10",
                     "--methods", "u", "--measure", "es"),
        "replicate": ("replicate", "--reps", "2", "--length", "300", "--alpha", "0.10",
                      "--methods", "u", "--measure", "es"),
    }

    def command(self, capsys, tmp_path, name):
        args = self.COMMANDS[name]
        if name == "estimate":
            csv_path = tmp_path / "returns.csv"
            assert run(capsys, "simulate", "--mu", "0", "--sigma", "1", "--length", "60",
                       "--out", str(csv_path))[0] == 0
            args = (*args, "--input", str(csv_path))
        return args

    def assert_one_error_line(self, result, path):
        code, out, err = result
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1

    def test_calibrate_into_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "nodir" / "t.json"
        self.assert_one_error_line(
            run(capsys, "calibrate", "--n", "50", "--alpha", "0.10", "--mc", "100000",
                "--table", str(path)),
            path,
        )

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_malformed_table(self, capsys, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 2, "entries": [')
        args = self.command(capsys, tmp_path, name)
        self.assert_one_error_line(run(capsys, *args, "--table", str(path)), path)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_missing_table_is_not_created(self, capsys, tmp_path, name):
        path = tmp_path / "typo.json"
        args = self.command(capsys, tmp_path, name)
        self.assert_one_error_line(run(capsys, *args, "--table", str(path)), path)
        assert not path.exists()

    # an entry of one observation divided by zero in its consistency check, and NaN
    # constants passed the sign checks and failed every window of a backtest
    @pytest.mark.parametrize("entry", [{"n": 1, "b_n": 1.0, "a_n": -1.0},
                                       {"n": 50, "b_n": math.nan, "a_n": math.nan}],
                             ids=["n1", "nan"])
    @pytest.mark.parametrize("name", [*COMMANDS, "calibrate"])
    def test_malformed_entry(self, capsys, tmp_path, name, entry):
        path = tmp_path / "bad.json"
        record = {"alpha": 0.10, "mc_samples": None, "seed": None, "residual": 0.0,
                  "source": "quadrature", **entry}
        path.write_text(json.dumps({"version": 2, "entries": [record]}))
        if name == "calibrate":
            args = ("calibrate", "--n", "50", "--alpha", "0.10", "--mc", "100000")
        else:
            args = self.command(capsys, tmp_path, name)
        result = run(capsys, *args, "--table", str(path))
        self.assert_one_error_line(result, path)
        assert "cannot read calibration table" in result[2]
