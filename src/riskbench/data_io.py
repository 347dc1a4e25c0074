"""Return-series ingestion, Gaussian fitting / simulation, report and table output.

Returns are stored in decimal units internally. The public portfolio CSVs
circulate in percent, so ingestion demands an explicit ``scale`` flag rather
than guessing; silent unit errors would corrupt every capital figure.

The CSV loader parses the requested column once into a float array, with NaN
for a missing or unparseable cell, and itemises bad rows from array masks by
their file line. Every file the package writes goes through
:func:`write_text`, which turns an ``OSError`` into :class:`OutputError`.
"""
from __future__ import annotations

import csv
import math
import operator
import re
from dataclasses import dataclass
from itertools import compress, islice, repeat

import numpy as np

from .errors import DataError, DomainError, IngestionError, OutputError, SizeError
from .estimators import GaussianParams, sample_moments
from .stats_core import SeededRng, as_sample, draw_gaussian

SCALES = ("decimal", "percent")
# missing-value sentinels used by the public portfolio files
_SENTINELS = (-99.99, -999.0)
# YYYYMMDD or YYYY-MM-DD
_DATE = re.compile(r"^(\d{4})(-?)(\d{2})\2(\d{2})$")
# the report method that renders each output format
REPORT_FORMATS = {"json": "to_json", "csv": "to_csv", "csv-long": "to_csv_long"}


def _first_unordered_date(dates) -> int | None:
    """Position of the first date not strictly after its predecessor, or None."""
    later = np.fromiter(map(operator.gt, islice(dates, 1, None), dates), bool, len(dates) - 1)
    late = np.flatnonzero(~later)
    return int(late[0]) + 1 if late.size else None


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


def _parse_date(cell: str) -> str | None:
    """The cell as an ISO date, or None when it is not YYYYMMDD or YYYY-MM-DD."""
    m = _DATE.match(cell.strip())
    return f"{m[1]}-{m[3]}-{m[4]}" if m else None


def _itemise(kept, rows, limit: int = 20) -> str:
    """Itemise the file lines of the data rows ``rows`` selects; ``kept`` marks non-blank records."""
    lines = (np.flatnonzero(kept)[1:] + 1)[rows]
    shown = ", ".join(str(r) for r in lines[:limit])
    extra = len(lines) - limit
    return shown + (f", and {extra} more" if extra > 0 else "")


def _cell_value(row: list, col: int) -> float:
    """The row's cell in column ``col`` as a float; NaN when it is missing or unparseable."""
    try:
        return float(row[col])
    except (IndexError, ValueError):
        return math.nan


def load_returns_csv(path, column: str, scale: str) -> ReturnSeries:
    """Read one return column from a headed CSV file.

    The first column is treated as dates when every data row parses as
    YYYYMMDD or ISO. Percent scale divides by 100. Blank rows are skipped.
    Missing, unparseable or non-finite cells, and then rows holding the public
    data libraries' missing-value sentinels (-99.99, -999), abort ingestion
    with an error itemising their file lines; nothing is imputed silently.
    """
    if scale not in SCALES:
        raise DomainError(f"scale must be one of {SCALES}, got {scale!r}")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    # blank rows are dropped; a row is one file line unless a quoted cell spans lines
    kept = np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, len(rows))
    rows = list(compress(rows, kept))
    if not rows:
        raise IngestionError(f"{path}: file is empty")
    header = [cell.strip() for cell in rows[0]]
    body = rows[1:]
    if not body:
        raise IngestionError(f"{path}: no data rows below the header")
    if column not in header:
        raise IngestionError(
            f"{path}: column {column!r} not found; available columns: {', '.join(header)}"
        )
    col = header.index(column)

    values = np.fromiter(map(_cell_value, body, repeat(col)), float, len(body))
    bad = ~np.isfinite(values)
    if bad.any():
        raise IngestionError(
            f"{path}: column {column!r} has unparseable cells on rows {_itemise(kept, bad)}"
        )
    sentinel = np.logical_or.reduce([np.abs(values - s) < 1e-9 for s in _SENTINELS])
    if sentinel.any():
        raise IngestionError(f"{path}: missing-value sentinels on rows {_itemise(kept, sentinel)}")
    if scale == "percent":
        values = values / 100.0

    dates = None
    if col != 0:
        parsed = tuple(_parse_date(row[0]) for row in body)
        if None not in parsed:
            dates = parsed
            if (i := _first_unordered_date(dates)) is not None:
                raise IngestionError(
                    f"{path}: dates not strictly increasing on row {_itemise(kept, [i])}"
                )
    return ReturnSeries(name=column, values=values, dates=dates)


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
