import json

import numpy as np
import pytest

from riskbench import CalibrationTable, exact_unbiased_es_constant, load_returns_csv
from riskbench.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            ("calibrate", "--samples"),
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

    def test_stdout_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                             "--length", "10", "--seed", "3")
        code2, out2, _ = run(capsys, "simulate", "--mu", "0", "--sigma", "1",
                             "--length", "10", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2


class TestCalibrate:
    def test_writes_table_and_prints_constant(self, capsys, tmp_path):
        table_path = tmp_path / "table.json"
        code, out, _ = run(
            capsys, "calibrate", "--n", "50", "--alpha", "0.10",
            "--samples", "200000", "--seed", "42", "--table", str(table_path),
        )
        assert code == 0
        assert "a_n=" in out
        entry = CalibrationTable.load(table_path).lookup(50, 0.10)
        assert entry.a_n == pytest.approx(-1.81033, abs=0.01)

    def test_stores_exact_constant_and_prints_mc_check(self, capsys, tmp_path):
        table_path = tmp_path / "table.json"
        code, out, _ = run(
            capsys, "calibrate", "--n", "50", "--alpha", "0.10",
            "--samples", "200000", "--seed", "3", "--table", str(table_path),
        )
        assert code == 0
        entry = CalibrationTable.load(table_path).lookup(50, 0.10)
        assert entry.source == "quadrature"
        assert entry.a_n == pytest.approx(-1.8101034083, abs=1e-9)
        exact_line, mc_line = out.splitlines()
        assert "source=quadrature" in exact_line
        assert mc_line.startswith("mc_check a_n=") and "diff=" in mc_line

    def test_env_var_supplies_table(self, capsys, tmp_path, monkeypatch):
        table_path = tmp_path / "env_table.json"
        monkeypatch.setenv("RISKBENCH_TABLE", str(table_path))
        code, _, _ = run(capsys, "calibrate", "--n", "20", "--alpha", "0.25",
                         "--samples", "150000", "--seed", "1")
        assert code == 0
        assert table_path.exists()

    def test_bad_samples_is_numeric_error(self, capsys):
        code, _, _ = run(capsys, "calibrate", "--n", "50", "--alpha", "0.10",
                         "--samples", "100", "--seed", "0")
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

    def test_unbiased_es_without_table_exits_3(self, capsys, csv_path):
        code, _, err = run(
            capsys, "estimate", "--input", str(csv_path), "--column", "ret",
            "--scale", "decimal", "--method", "u", "--measure", "es",
            "--alpha", "0.10",
        )
        assert code == 3
        assert "calibration" in err.lower()

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
                         "--samples", "150000", "--seed", "2", "--table", str(table_path))
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

    def test_auto_calibrate_persists_entry(self, capsys, tmp_path):
        table_path = tmp_path / "auto.json"
        code, _, _ = run(
            capsys, "backtest", "--simulate", "--length", "500", "--alpha", "0.10",
            "--methods", "u", "--measure", "es", "--seed", "3",
            "--table", str(table_path), "--auto-calibrate",
        )
        assert code == 0
        entry = CalibrationTable.load(table_path).lookup(50, 0.10)
        assert entry.source == "quadrature"
        assert entry.a_n == exact_unbiased_es_constant(50, 0.10).a_n


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
