import json
import os
import threading

import numpy as np
import pytest

from riskbench import (
    BacktestConfig,
    DataError,
    DomainError,
    GaussianParams,
    IngestionError,
    OutputError,
    ReturnSeries,
    SeededRng,
    SizeError,
    load_returns_csv,
    rolling_backtest,
    simulate_series,
    write_report,
)


def _assert_days(dates, *iso):
    assert dates.dtype == np.dtype("datetime64[D]")
    np.testing.assert_array_equal(dates, np.array(iso, "datetime64[D]"))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadReturnsCsv:
    # numpy's DataSource picks a decompressor by suffix; these files hold plain text
    @pytest.mark.parametrize("name", ["a.csv", "a.csv.gz", "a.csv.bz2", "a.csv.xz", "a.csv.lzma"])
    def test_percent_scaling_and_dates(self, tmp_path, name):
        path = _write(
            tmp_path, name, "date,A\n20050127,1.0\n20050128,-0.5\n20050131,0.25\n"
        )
        series = load_returns_csv(path, "A", "percent")
        np.testing.assert_allclose(series.values, [0.01, -0.005, 0.0025])
        _assert_days(series.dates, "2005-01-27", "2005-01-28", "2005-01-31")
        assert series.name == "A"

    def test_iso_dates(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n2005-01-27,1.0\n2005-01-28,2.0\n")
        _assert_days(load_returns_csv(path, "A", "decimal").dates, "2005-01-27", "2005-01-28")

    def test_decimal_scale_identity(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20050127,1.0\n20050128,-0.5\n")
        np.testing.assert_allclose(load_returns_csv(path, "A", "decimal").values, [1.0, -0.5])

    def test_missing_column_names_available(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A,B\n20050127,1.0,2.0\n")
        with pytest.raises(IngestionError, match="available columns: date, A, B"):
            load_returns_csv(path, "Z", "decimal")

    def test_sentinel_rows_itemised(self, tmp_path):
        path = _write(
            tmp_path,
            "a.csv",
            "date,A\n20050127,1.0\n20050128,-99.99\n20050131,2.0\n20050201,-999\n",
        )
        with pytest.raises(IngestionError) as err:
            load_returns_csv(path, "A", "percent")
        assert "rows 3, 5" in str(err.value)

    def test_unparseable_cells_itemised(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20050127,x\n20050128,1.0\n")
        with pytest.raises(IngestionError, match="rows 2"):
            load_returns_csv(path, "A", "decimal")

    def test_no_date_column(self, tmp_path):
        path = _write(tmp_path, "a.csv", "ret\n0.5\n-0.25\n")
        series = load_returns_csv(path, "ret", "decimal")
        assert series.dates is None
        np.testing.assert_allclose(series.values, [0.5, -0.25])

    def test_numeric_first_column_not_mistaken_for_dates(self, tmp_path):
        path = _write(tmp_path, "a.csv", "idx,ret\n1,0.5\n2,-0.25\n")
        assert load_returns_csv(path, "ret", "decimal").dates is None

    def test_non_increasing_dates_rejected(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20050128,1.0\n20050127,2.0\n")
        with pytest.raises(IngestionError, match="strictly increasing"):
            load_returns_csv(path, "A", "decimal")

    def test_scale_required(self, tmp_path):
        path = _write(tmp_path, "a.csv", "ret\n0.5\n")
        with pytest.raises(DomainError):
            load_returns_csv(path, "ret", "bps")

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            load_returns_csv(tmp_path / "nope.csv", "A", "decimal")

    @pytest.mark.parametrize(
        "body", [b"A\n\xe9\n", b"A\n1\n" * 20000 + b"\xe9\n"], ids=["header", "tail"]
    )
    def test_undecodable_file_is_an_ingestion_error(self, tmp_path, body):
        path = tmp_path / "a.csv"
        path.write_bytes(body)
        with pytest.raises(IngestionError, match="cannot read .*can't decode byte 0xe9"):
            load_returns_csv(path, "A", "decimal")

    def test_short_row_itemised_as_unparseable(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20200101,1\n20200102\n20200103,2\n")
        with pytest.raises(IngestionError, match="unparseable cells on rows 3$"):
            load_returns_csv(path, "A", "decimal")

    def test_nan_and_inf_cells_itemised_as_unparseable(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20200101,nan\n20200102,1\n20200103,-inf\n")
        with pytest.raises(IngestionError, match="unparseable cells on rows 2, 4$"):
            load_returns_csv(path, "A", "decimal")

    def test_unparseable_cells_reported_before_sentinels(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20200101,-999\n20200102,x\n")
        with pytest.raises(IngestionError, match="unparseable cells on rows 3$"):
            load_returns_csv(path, "A", "decimal")

    def test_empty_cells_row_skipped(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20200101,1\n,,\n  \n20200102,2\n")
        series = load_returns_csv(path, "A", "decimal")
        np.testing.assert_array_equal(series.values, [1.0, 2.0])
        _assert_days(series.dates, "2020-01-01", "2020-01-02")

    def test_quoted_empty_cells_row_skipped(self, tmp_path):
        path = _write(tmp_path, "a.csv", 'date,A\n20200101,1\n"",""\n" "\n20200102,2\n')
        series = load_returns_csv(path, "A", "decimal")
        np.testing.assert_array_equal(series.values, [1.0, 2.0])
        _assert_days(series.dates, "2020-01-01", "2020-01-02")

    def test_quotes_after_a_space_are_not_a_blank_row(self, tmp_path):
        path = _write(tmp_path, "a.csv", 'date,A\n20200101,1\n ""\n20200102,2\n')
        with pytest.raises(IngestionError, match="unparseable cells on rows 3$"):
            load_returns_csv(path, "A", "decimal")

    def test_mixed_date_forms_recognised(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20200101,1\n2020-01-02,2\n 20200103 ,3\n")
        _assert_days(
            load_returns_csv(path, "A", "decimal").dates, "2020-01-01", "2020-01-02", "2020-01-03"
        )

    def test_half_iso_date_is_not_a_date(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20200101,1\n2020-0102,2\n")
        assert load_returns_csv(path, "A", "decimal").dates is None

    def test_non_ascii_digit_lookalike_is_not_a_date(self, tmp_path):
        # U+0131 is "1" plus 256: read modulo 256, 2020010\u0131 would pass for 20200101
        path = _write(tmp_path, "a.csv", "date,A\n2020010\u0131,1\n20200102,2\n")
        assert load_returns_csv(path, "A", "decimal").dates is None

    def test_date_in_non_ascii_whitespace_is_a_date(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n\u00a020200101,1\n20200102\u3000,2\n")
        _assert_days(load_returns_csv(path, "A", "decimal").dates, "2020-01-01", "2020-01-02")

    def test_more_than_twenty_bad_rows_summarised(self, tmp_path):
        body = "".join(f"2020{1 + i // 28:02d}{1 + i % 28:02d},x\n" for i in range(30))
        path = _write(tmp_path, "a.csv", "date,A\n" + body)
        with pytest.raises(IngestionError) as err:
            load_returns_csv(path, "A", "decimal")
        rows = ", ".join(str(line) for line in range(2, 22))
        assert str(err.value).endswith(f"on rows {rows}, and 10 more")

    def test_byte_order_mark_header(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes("date,A\n20200101,1\n20200102,2\n".encode("utf-8-sig"))
        series = load_returns_csv(path, "date", "decimal")
        np.testing.assert_array_equal(series.values, [20200101.0, 20200102.0])
        assert series.dates is None

    def test_value_within_1e9_of_sentinel(self, tmp_path):
        path = _write(tmp_path, "a.csv", "A\n1\n-99.9900000001\n-99.9899\n-999.0000000005\n")
        with pytest.raises(IngestionError, match="sentinels on rows 3, 5$"):
            load_returns_csv(path, "A", "percent")

    def test_bad_cell_named_by_file_line_after_blank_lines(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20200101,1\n\n20200102,x\n")
        with pytest.raises(IngestionError, match="unparseable cells on rows 4$"):
            load_returns_csv(path, "A", "decimal")

    def test_unordered_date_named_by_file_line_after_blank_lines(self, tmp_path):
        path = _write(tmp_path, "a.csv", "\ndate,A\n20200102,1\n\n20200101,2\n")
        with pytest.raises(IngestionError, match="not strictly increasing on row 5$"):
            load_returns_csv(path, "A", "decimal")

    @pytest.mark.parametrize(
        "cell", ["1_000", "\u0661"], ids=["digit-separator", "arabic-indic-one"]
    )
    def test_python_only_number_syntax_itemised_as_unparseable(self, tmp_path, cell):
        # float() reads both cells; the C reader takes ASCII digits without separators
        path = _write(tmp_path, "a.csv", f"date,A\n20200101,{cell}\n20200102,2")
        with pytest.raises(IngestionError, match="unparseable cells on rows 2$"):
            load_returns_csv(path, "A", "decimal")

    def test_hash_in_value_cell_itemised_not_cut_as_comment(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A\n20200101,1.0#x\n20200102,2\n")
        with pytest.raises(IngestionError, match="unparseable cells on rows 2$"):
            load_returns_csv(path, "A", "decimal")

    def test_quoted_numeric_cell(self, tmp_path):
        path = _write(tmp_path, "a.csv", 'date,A\n20200101,"2.5"\n"20200102",-1\n')
        series = load_returns_csv(path, "A", "decimal")
        np.testing.assert_array_equal(series.values, [2.5, -1.0])
        _assert_days(series.dates, "2020-01-01", "2020-01-02")

    @pytest.mark.parametrize(
        "raw",
        [b"date,A\r\n20200101,1.5\r\n20200102,-2\r\n", b"date,A\n20200101,1.5\n20200102,-2"],
        ids=["crlf", "no-final-newline"],
    )
    def test_line_endings(self, tmp_path, raw):
        path = tmp_path / "a.csv"
        path.write_bytes(raw)
        series = load_returns_csv(path, "A", "decimal")
        np.testing.assert_array_equal(series.values, [1.5, -2.0])
        _assert_days(series.dates, "2020-01-01", "2020-01-02")

    def test_single_data_row(self, tmp_path):
        path = _write(tmp_path, "a.csv", "date,A,B\n20200101,1.5,2\n")
        series = load_returns_csv(path, "B", "percent")
        np.testing.assert_array_equal(series.values, [0.02])
        _assert_days(series.dates, "2020-01-01")
        assert load_returns_csv(path, "date", "decimal").values.shape == (1,)

    @pytest.mark.parametrize("day", ["20200229", "20000229"])
    @pytest.mark.parametrize("iso", [False, True], ids=["compact", "iso"])
    def test_leap_days_load(self, tmp_path, day, iso):
        cell = f"{day[:4]}-{day[4:6]}-{day[6:]}" if iso else day
        y = day[:4]
        path = _write(tmp_path, "a.csv", f"date,A\n{y}0228,1\n{cell},2\n{y}0301,3\n")
        days = load_returns_csv(path, "A", "decimal").dates
        _assert_days(days, f"{y}-02-28", f"{y}-02-29", f"{y}-03-01")

    @pytest.mark.parametrize(
        "day", ["20210229", "19000229", "20200001", "20201301", "20200100", "20200132", "20201340"]
    )
    @pytest.mark.parametrize("iso", [False, True], ids=["compact", "iso"])
    def test_date_shaped_cell_that_is_no_calendar_day_itemised(self, tmp_path, day, iso):
        cell = f"{day[:4]}-{day[4:6]}-{day[6:]}" if iso else day
        path = _write(tmp_path, "a.csv", f"date,A\n20191231,1\n\n{cell},2\n20300101,3\n{cell},4\n")
        with pytest.raises(IngestionError, match="invalid calendar dates on rows 4, 6$"):
            load_returns_csv(path, "A", "decimal")

    @pytest.mark.parametrize("second", ["2020-01-02", "20200101"], ids=["equal", "backward"])
    def test_equal_or_backward_date_across_forms_named_by_file_line(self, tmp_path, second):
        path = _write(tmp_path, "a.csv", f"date,A\n20200101,1\n20200102,2\n\n{second},3\n")
        with pytest.raises(IngestionError, match="not strictly increasing on row 5$"):
            load_returns_csv(path, "A", "decimal")

    def test_long_first_cell_is_not_a_date(self, tmp_path):
        # 17 characters: cut to a fixed width and stripped, it would read as 20200101
        path = _write(tmp_path, "a.csv", "date,A\n20200101        x,1\n20200102,2\n")
        assert load_returns_csv(path, "A", "decimal").dates is None

    def test_bad_cell_named_by_file_line_after_multiline_quoted_cell(self, tmp_path):
        path = _write(tmp_path, "a.csv", 'date,A,note\n20200101,1,"two\nlines"\n20200102,x,\n')
        with pytest.raises(IngestionError, match="unparseable cells on rows 4$"):
            load_returns_csv(path, "A", "decimal")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
    def test_pipe_with_blank_line(self, tmp_path):
        # the padded cell sends both reads through the date build's strip branch
        text = 'date,A\n20200101,1\n  \n2020-01-02,2\n 20200103 ,-0.5\n"20200104",0.25\n'
        fifo = tmp_path / "returns.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            piped = load_returns_csv(fifo, "A", "decimal")
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(piped.values, [1.0, 2.0, -0.5, 0.25])
        _assert_days(piped.dates, "2020-01-01", "2020-01-02", "2020-01-03", "2020-01-04")
        read = load_returns_csv(_write(tmp_path, "a.csv", text), "A", "decimal")
        assert np.array_equal(read.values, piped.values)
        assert np.array_equal(read.dates, piped.dates)

    def test_url_like_name_read_as_local_file(self, tmp_path, monkeypatch):
        def no_fetch(*args, **kwargs):
            raise AssertionError("a local CSV was fetched as a URL")

        monkeypatch.setattr("urllib.request.urlopen", no_fetch)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        _write(tmp_path / "http:" / "host", "a.csv", "date,A\n20200101,1\n20200102,2\n")
        monkeypatch.chdir(tmp_path)
        series = load_returns_csv("http://host/a.csv", "A", "decimal")
        np.testing.assert_array_equal(series.values, [1.0, 2.0])
        _assert_days(series.dates, "2020-01-01", "2020-01-02")

    @pytest.mark.parametrize(
        "cell, message",
        [("x", "unparseable cells on rows 5$"), ("-99.99", "sentinels on rows 5$")],
    )
    def test_rows_itemised_after_blank_line_before_header_and_empty_cells_row(
        self, tmp_path, cell, message
    ):
        path = _write(tmp_path, "a.csv", f"\ndate,A\n20200101,1\n,,\n20200102,{cell}\n")
        with pytest.raises(IngestionError, match=message):
            load_returns_csv(path, "A", "decimal")


class TestReturnSeries:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            ReturnSeries("x", [1.0, float("nan")])

    def test_matrix_values_are_a_data_error_naming_their_shape(self):
        with pytest.raises(DataError, match=r"series 'x' must be one-dimensional, got shape \(2, 1\)"):
            ReturnSeries("x", [[1.0], [2.0]])

    def test_dates_must_increase_strictly(self):
        days = np.array(["2020-01-01", "2020-01-02", "2020-01-02"], "datetime64[D]")
        with pytest.raises(DataError, match="at position 2"):
            ReturnSeries("x", [1.0, 2.0, 3.0], dates=days)
        _assert_days(ReturnSeries("x", [1.0], dates=days[:1]).dates, "2020-01-01")

    @pytest.mark.parametrize(
        "dates",
        [("x",), ("2020-13-01",), ("2021-02-29",), ("2020",), ("NaT",), ("2020-01-01" + " " * 7,),
         (20200101,), (None,), [["2020-01-01"]], np.array(["NaT"], "datetime64[D]"),
         np.array([["2020-01-01"]], "datetime64[D]"), ("2020-01-01",), [" 20200229 "], ()],
        ids=["text", "month-13", "feb-29-2021", "year-only", "nat", "17-characters", "integer",
             "none", "2-d", "datetime64-nat", "datetime64-2-d", "iso-string", "compact-string",
             "empty-tuple"],
    )
    def test_unreadable_dates_are_data_errors(self, dates):
        # the CSV loader reads date cells; a series takes datetime64 values only
        with pytest.raises(DataError, match="dates must be 1-D datetime64 values, none NaT$"):
            ReturnSeries("x", [1.0], dates=dates)

    def test_datetime64_dates_give_calendar_days(self):
        stamps = np.array(["2020-01-01T23:59", "2020-01-02T00:00"], "datetime64[m]")
        _assert_days(ReturnSeries("x", [1.0, 2.0], dates=stamps).dates, "2020-01-01", "2020-01-02")
        _assert_days(ReturnSeries("x", [], dates=np.array([], "datetime64[D]")).dates)


    def test_date_length_mismatch(self):
        with pytest.raises(DataError):
            ReturnSeries("x", [1.0, 2.0], dates=("2020-01-01",))

    def test_len(self):
        assert len(ReturnSeries("x", [1.0, 2.0])) == 2


class TestSimulateSeries:
    def test_deterministic(self):
        a, b = (simulate_series(GaussianParams(0.1, 0.2), 1000, seed=5) for _ in range(2))
        assert np.array_equal(a.values, b.values)
        assert a.name == b.name and "seed=5" in a.name

    def test_moment_recovery(self):
        values = simulate_series(GaussianParams(0.5, 2.0), 1_000_000, seed=6).values
        assert values.mean() == pytest.approx(0.5, abs=3 * 2.0 / 1000.0)
        assert values.std(ddof=1) == pytest.approx(2.0, rel=0.01)

    def test_sigma_zero_rejected_upstream(self):
        with pytest.raises(DomainError):
            simulate_series(GaussianParams(0.0, 0.0), 10, seed=0)

    def test_length_validated(self):
        with pytest.raises(DomainError):
            simulate_series(GaussianParams(0.0, 1.0), 0, seed=0)


class TestWriteReport:
    @pytest.fixture()
    def report(self):
        series = simulate_series(GaussianParams(0.0, 1.0), 300, seed=9)
        config = BacktestConfig(alpha=0.1, methods=("emp", "norm"), window=50)
        return rolling_backtest(series, config)

    def test_unknown_format_lists_every_format(self, report, tmp_path):
        with pytest.raises(DomainError, match=r"'xml'; use json, csv, csv-long, table$"):
            write_report(report, tmp_path / "r.xml", "xml")
        assert not (tmp_path / "r.xml").exists()

    def test_table_is_the_cli_table(self, report, tmp_path):
        path = tmp_path / "r.txt"
        write_report(report, path, "table")
        lines = path.read_text().splitlines()
        assert lines[0] == "series=" + report.series_name + " window=50 alpha=0.1 windows=6 evaluated=250"
        assert [line.split()[0] for line in lines[1:]] == ["method", "empirical", "gaussian"]

    def test_json_round_trip_exact(self, report, tmp_path):
        path = tmp_path / "r.json"
        write_report(report, path, "json")
        assert json.loads(path.read_text()) == report.to_json_dict()

    def test_csv_numbers_exact(self, report, tmp_path):
        path = tmp_path / "r.csv"
        write_report(report, path, "csv")
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["exceedance_rate"]) == report.methods["empirical"].exceedance_rate
        assert float(row["var_mean_score"]) == report.methods["empirical"].var_mean_score

    def test_writers_deterministic(self, report, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, p1, "json")
        write_report(report, p2, "json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format(self, report, tmp_path):
        for fmt in ("xml", "long", "CSV"):
            with pytest.raises(DomainError):
                write_report(report, tmp_path / "r.out", fmt)
        assert not (tmp_path / "r.out").exists()

    def test_unwritable_path_is_output_error(self, report, tmp_path):
        with pytest.raises(OutputError, match="cannot write report to"):
            write_report(report, tmp_path / "nodir" / "r.json", "json")
