"""Return-series ingestion, Gaussian fitting / simulation, report persistence.

Returns are stored in decimal units internally. The public portfolio CSVs
circulate in percent, so ingestion demands an explicit ``scale`` flag rather
than guessing; silent unit errors would corrupt every capital figure.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, IngestionError, OutputError, SizeError
from .estimators import GaussianParams, sample_moments
from .stats_core import SeededRng, draw_gaussian

SCALES = ("decimal", "percent")
# missing-value sentinels used by the public portfolio files
_SENTINELS = (-99.99, -999.0)
_DATE_YMD = re.compile(r"^\d{8}$")
_DATE_ISO = re.compile(r"^\d{4}-\d{2}-\d{2}$")


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Named sequence of returns with optional strictly increasing ISO dates."""

    name: str
    values: np.ndarray
    dates: tuple | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise DataError(f"series {self.name!r}: values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise DataError(f"series {self.name!r}: non-finite value at position {bad}")
        if self.dates is not None:
            dates = tuple(self.dates)
            object.__setattr__(self, "dates", dates)
            if len(dates) != values.size:
                raise DataError(
                    f"series {self.name!r}: {len(dates)} dates for {values.size} values"
                )
            for i in range(1, len(dates)):
                if not dates[i] > dates[i - 1]:
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
    cell = cell.strip()
    if _DATE_ISO.match(cell):
        return cell
    if _DATE_YMD.match(cell):
        return f"{cell[:4]}-{cell[4:6]}-{cell[6:8]}"
    return None


def _itemise(rows: list, limit: int = 20) -> str:
    shown = ", ".join(str(r) for r in rows[:limit])
    extra = len(rows) - limit
    return shown + (f", and {extra} more" if extra > 0 else "")


def load_returns_csv(path, column: str, scale: str) -> ReturnSeries:
    """Read one return column from a headed CSV file.

    The first column is treated as dates when every data row parses as
    YYYYMMDD or ISO. Percent scale divides by 100. Rows holding the public
    data libraries' missing-value sentinels (-99.99, -999) or unparseable
    cells abort ingestion with an itemised error; nothing is skipped or
    imputed silently.
    """
    if scale not in SCALES:
        raise DomainError(f"scale must be one of {SCALES}, got {scale!r}")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
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

    dates: list | None = None
    if col != 0:
        parsed = [_parse_date(row[0]) if row else None for row in body]
        if all(p is not None for p in parsed):
            dates = parsed

    values = np.empty(len(body))
    bad_cells: list = []
    sentinel_rows: list = []
    for i, row in enumerate(body):
        line_no = i + 2  # 1-based, after the header
        if col >= len(row):
            bad_cells.append(line_no)
            continue
        try:
            value = float(row[col])
        except ValueError:
            bad_cells.append(line_no)
            continue
        if not np.isfinite(value):
            bad_cells.append(line_no)
            continue
        if any(abs(value - s) < 1e-9 for s in _SENTINELS):
            sentinel_rows.append(line_no)
            continue
        values[i] = value
    if bad_cells:
        raise IngestionError(
            f"{path}: column {column!r} has unparseable cells on rows {_itemise(bad_cells)}"
        )
    if sentinel_rows:
        raise IngestionError(
            f"{path}: missing-value sentinels on rows {_itemise(sentinel_rows)}"
        )
    if scale == "percent":
        values = values / 100.0
    if dates is not None:
        for i in range(1, len(dates)):
            if not dates[i] > dates[i - 1]:
                raise IngestionError(
                    f"{path}: dates not strictly increasing on row {i + 2}"
                )
    return ReturnSeries(name=column, values=values, dates=tuple(dates) if dates else None)


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


def write_report(report, path, format: str = "json") -> None:
    """Persist a report; ``format`` is json, csv (one row per method) or csv-long."""
    fmt = str(format).lower().replace("_", "-")
    if fmt == "json":
        text = report.to_json()
    elif fmt == "csv":
        text = report.to_csv()
    elif fmt in ("csv-long", "long"):
        text = report.to_csv_long()
    else:
        raise DomainError(f"unknown report format {format!r}; use json, csv or csv-long")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write report to {path}: {exc}") from exc
