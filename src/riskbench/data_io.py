"""Return-series ingestion, Gaussian fitting / simulation, report and table output.

Returns are stored in decimal units internally. The public portfolio CSVs
circulate in percent, so ingestion demands an explicit ``scale`` flag rather
than guessing; silent unit errors would corrupt every capital figure.

numpy's C reader (``np.loadtxt``) is the one reader of accepted CSV files; the
``csv`` module finds the header and reads a file again only to explain a
rejection by the file lines of its bad rows. Every file the package writes goes
through :func:`write_text`, which turns an ``OSError`` into :class:`OutputError`.
"""
from __future__ import annotations

import csv
import io
import math
import operator
import re
import warnings
from dataclasses import dataclass
from itertools import compress, count, islice, repeat

import numpy as np

from .errors import DataError, DomainError, IngestionError, OutputError, SizeError
from .estimators import GaussianParams, sample_moments
from .stats_core import SeededRng, as_sample, draw_gaussian

SCALES = ("decimal", "percent")
# missing-value sentinels used by the public portfolio files
_SENTINELS = (-99.99, -999.0)
# a line the csv module reads as a blank row: commas between whitespace, quoted or not
_BLANK_LINE = re.compile(r'^(?:"[^\S\n]*")?[^\S\n]*(?:,(?:"[^\S\n]*")?[^\S\n]*)*$', re.M)
# the report method that renders each output format
REPORT_FORMATS = {"json": "to_json", "csv": "to_csv", "csv-long": "to_csv_long"}


def _first_unordered_date(dates) -> int | None:
    """Position of the first date not strictly after its predecessor, or None."""
    return next(compress(count(1), map(operator.le, islice(dates, 1, None), dates)), None)


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Named sequence of returns with optional strictly increasing ISO dates."""

    name: str
    values: np.ndarray
    dates: tuple | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DataError(f"series {self.name!r}: values must be one-dimensional")
        object.__setattr__(self, "values", as_sample(values, 0, f"series {self.name!r}"))
        if self.dates is not None:
            dates = tuple(self.dates)
            object.__setattr__(self, "dates", dates)
            if len(dates) != values.size:
                raise DataError(
                    f"series {self.name!r}: {len(dates)} dates for {values.size} values"
                )
            if (i := _first_unordered_date(dates)) is not None:
                raise DataError(
                    f"series {self.name!r}: dates not strictly increasing at position {i}"
                )

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class SimulationSpec:
    """Gaussian simulation request: parameters, length and seed."""

    params: GaussianParams
    length: int
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if int(self.length) < 1:
            raise DomainError(f"length must be at least 1, got {self.length!r}")


def _iso_dates(cells) -> tuple | None:
    """The cells as ISO dates if each is YYYYMMDD or YYYY-MM-DD by digit shape, else None."""
    cut = np.char.str_len(cells) == cells.itemsize // 4  # a full-width cell may have been cut
    cells = np.char.strip(cells)
    size = np.char.str_len(cells)
    codes = cells.view(np.uint32).reshape(cells.size, -1)
    at = [0, 1, 2, 3, 5, 6, 8, 9]  # where YYYY-MM-DD holds its digits
    digit = (codes >= ord("0")) & (codes <= ord("9"))
    iso = (size == 10) & digit[:, at].all(1) & (codes[:, [4, 7]] == ord("-")).all(1)
    if not (~cut & (iso | (size == 8) & digit[:, :8].all(1))).all():
        return None
    out = np.full((cells.size, 10), ord("-"), np.uint32)
    out[:, at] = np.where(iso[:, None], codes[:, at], codes[:, :8])
    return tuple(out.view("U10").ravel().tolist())


def _itemise(fh, rows, limit: int = 20) -> str:
    """Itemise the file lines of the data rows ``rows`` selects; blank records are no rows."""
    fh.seek(0)
    records = csv.reader(fh)
    lines = np.array([records.line_num for row in records if "".join(row).strip()][1:])[rows]
    more = f", and {len(lines) - limit} more" if len(lines) > limit else ""
    return ", ".join(str(r) for r in lines[:limit]) + more


def _cell_value(row: list, col: int) -> float:
    """The row's cell in column ``col`` by the C reader's syntax; NaN if missing or unparseable."""
    try:
        cell = row[col]
        return math.nan if "_" in cell or not cell.strip().isascii() else float(cell)
    except (IndexError, ValueError):
        return math.nan


def _read_cells(fh, skiprows: int, col: int):
    """Column 0 as text and column ``col`` as floats, read on from ``fh`` by the C reader."""
    source, skip = fh, 0
    for _ in range(2):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body with no data rows
                return np.loadtxt(source, delimiter=",", comments=None, quotechar='"', ndmin=1,
                                  skiprows=skip, usecols=(0, col), dtype=[("d", "U16"), ("v", "f8")])
        except ValueError:  # it rejects blank rows; emptied, they keep their line
            fh.seek(0)
            source, skip = io.StringIO(_BLANK_LINE.sub("", fh.read())), skiprows
    return None  # the csv module explains the rejection


def _load(fh, path, column: str, scale: str) -> ReturnSeries:
    """:func:`load_returns_csv` on the open file ``fh``, whose errors name ``path``."""
    reader = csv.reader(fh)
    header = next((row for row in reader if "".join(row).strip()), None)
    if header is None:
        raise IngestionError(f"{path}: file is empty")
    header = [cell.strip() for cell in header]
    col = header.index(column) if column in header else None
    cells = None if col is None else _read_cells(fh, reader.line_num, col)
    if cells is not None:
        values = cells["v"]
    else:  # the csv module reads the file again, only to explain the rejection
        fh.seek(0)
        body = [row for row in csv.reader(fh) if "".join(row).strip()][1:]
        if body and col is None:
            raise IngestionError(
                f"{path}: column {column!r} not found; available columns: {', '.join(header)}"
            )
        values = np.fromiter(map(_cell_value, body, repeat(col)), float, len(body))
    if not values.size:
        raise IngestionError(f"{path}: no data rows below the header")
    if (bad := ~np.isfinite(values)).any():
        raise IngestionError(
            f"{path}: column {column!r} has unparseable cells on rows {_itemise(fh, bad)}"
        )
    if cells is None:
        raise IngestionError(f"{path}: column {column!r} could not be read")
    sentinel = np.logical_or.reduce([np.abs(values - s) < 1e-9 for s in _SENTINELS])
    if sentinel.any():
        raise IngestionError(f"{path}: missing-value sentinels on rows {_itemise(fh, sentinel)}")
    dates = _iso_dates(cells["d"]) if col else None
    try:  # the series checks the date order, once
        return ReturnSeries(column, values / (100.0 if scale == "percent" else 1.0), dates)
    except DataError:
        at = _itemise(fh, [_first_unordered_date(dates)])
        raise IngestionError(f"{path}: dates not strictly increasing on row {at}") from None


def load_returns_csv(path, column: str, scale: str) -> ReturnSeries:
    """Read one return column from a headed CSV file with numpy's C reader.

    A cell holds ASCII digits with optional sign, point and exponent, or nan or
    inf, in optional whitespace or double quotes (``1_000`` is no number, and
    ``#`` starts no comment). Column 0 is read as dates when every data row is
    YYYYMMDD or ISO. Percent scale divides by 100; blank rows are skipped.
    Missing, unparseable or non-finite cells, then missing-value sentinels
    (-99.99, -999), then unordered dates abort ingestion; a csv-module pass that
    only explains the rejection itemises their file lines. Nothing is imputed.
    """
    if scale not in SCALES:
        raise DomainError(f"scale must be one of {SCALES}, got {scale!r}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return _load(fh if fh.seekable() else io.StringIO(fh.read()), path, column, scale)
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc


def fit_gaussian(series) -> GaussianParams:
    """Sample mean and sd (divisor n-1); constant series are rejected."""
    values = series.values if isinstance(series, ReturnSeries) else np.asarray(series, float)
    if values.size < 2:
        raise SizeError(f"fit_gaussian needs at least 2 observations, got {values.size}")
    moments = sample_moments(values)
    if moments.sd == 0.0:
        raise DataError("fit_gaussian: degenerate data, sample standard deviation is zero")
    return GaussianParams(moments.mean, moments.sd)


def simulate_series(spec: SimulationSpec) -> ReturnSeries:
    """Deterministic i.i.d. Gaussian series named after its spec."""
    rng = SeededRng(int(spec.seed), int(spec.stream_id))
    values = draw_gaussian(rng, spec.length, spec.params.mu, spec.params.sigma)
    name = (
        f"simulated(mu={spec.params.mu:g},sigma={spec.params.sigma:g},"
        f"n={int(spec.length)},seed={int(spec.seed)},stream={int(spec.stream_id)})"
    )
    return ReturnSeries(name=name, values=values)


def write_text(path, text: str, what: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written raises :class:`OutputError`."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {what} to {path}: {exc}") from exc


def write_report(report, path, format: str = "json") -> None:
    """Persist a report; ``format`` is json, csv (one row per method) or csv-long."""
    if format not in REPORT_FORMATS:
        raise DomainError(f"unknown report format {format!r}; use json, csv or csv-long")
    write_text(path, getattr(report, REPORT_FORMATS[format])(), "report")
