"""Return-series ingestion, Gaussian simulation, report and table output.

Returns are stored in decimal units internally. The public portfolio CSVs
circulate in percent, so ingestion demands an explicit ``scale`` flag rather
than guessing; silent unit errors would corrupt every capital figure.

numpy's C reader (``np.loadtxt``) is the one reader of accepted CSV files; the
``csv`` module finds the header and reads a file again only to explain a
rejection by the file lines of its bad rows. The C reader opens a regular file
by its path and reads it in blocks; a pipe is read into memory first, and it and
a name numpy would decompress by its suffix reach the C reader line by line.
Dates become calendar days (``datetime64[D]``) by integer arithmetic on a view
of the date cells' character codes; a date that names no calendar day is such a
rejection. Every file the package writes goes through :func:`write_text`, which
turns an ``OSError`` into :class:`OutputError`.
"""
from __future__ import annotations

import csv
import io
import math
import os
import re
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import DataError, DomainError, IngestionError, OutputError
from .estimators import GaussianParams
from .stats_core import SeededRng, as_sample, draw_gaussian

SCALES = ("decimal", "percent")
# missing-value sentinels used by the public portfolio files
_SENTINELS = (-99.99, -999.0)
# suffixes numpy's DataSource opens with a decompressor, whatever the file holds
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# a line the csv module reads as a blank row: commas between whitespace, quoted or not
_BLANK_LINE = re.compile(r'^(?:"[^\S\n]*")?[^\S\n]*(?:,(?:"[^\S\n]*")?[^\S\n]*)*$', re.M)
# the report method that renders each output format
REPORT_FORMATS = {"json": "to_json", "csv": "to_csv", "csv-long": "to_csv_long", "table": "to_table"}
# days in each month of a common year by its two-digit number; no month is numbered 0 or 13-99
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31] + [0] * 87, np.uint8)
# YYYYMMDD and YYYY-MM-DD as _calendar_days sees a cell: 16 characters less "0" (mod 256),
# each digit written 9, read as two 8-byte words
_DATE_FORMS = (np.array([b"99999999", b"9999-99-99"], "S16").view(np.uint8) - np.uint8(ord("0")))
_DATE_FORMS = _DATE_FORMS.view("<u8").reshape(2, 2)


def _date_digits(codes) -> np.ndarray | None:
    """Digit values of ``(n, 16)`` character codes, the date's eight in columns 0-7.

    None unless each row is an ASCII YYYYMMDD or YYYY-MM-DD and nothing more.
    """
    if codes.max(initial=0) > 127:  # not ASCII
        return None
    digits = codes.astype(np.uint8)
    digits -= ord("0")  # a digit's value; any other character is 10 or more (mod 256)
    words = np.maximum(digits, 9).view("<u8")
    compact, iso = ((words[:, 0] == f0) & (words[:, 1] == f1) for f0, f1 in _DATE_FORMS)
    if not (compact | iso).all():
        return None
    digits[iso, 4:8] = digits[iso][:, [5, 6, 8, 9]]  # MMDD of YYYY-MM-DD where YYYYMMDD has it
    return digits


def _calendar_days(cells) -> np.ndarray | None:
    """``U16`` cells as calendar days, NaT where one names no day; None unless each is a date.

    A date is YYYYMMDD or YYYY-MM-DD after stripping, in a cell short of 16
    characters (a full one may have been cut). Its digits make four two-digit
    numbers, century, year, month and day, read without a string per cell from
    a view of the cells' character codes (they may be a record array's field).
    The cells are stripped, into a copy, only if they are not all dates as they
    stand.
    """
    codes = cells[:, None].view(np.uint32)  # (n, 16), no copy
    digits = _date_digits(codes)  # dates as they stand are short of 16 characters
    if digits is None and not codes[:, -1].any():  # padding, or no dates; no cell cut
        digits = _date_digits(np.char.strip(cells)[:, None].view(np.uint32))
    if digits is None:
        return None
    cc, yy, mm, dd = (digits[:, 0:8:2] * 10 + digits[:, 1:8:2]).T
    leap = (yy % 4 == 0) & ((yy != 0) | (cc % 4 == 0))  # 4 divides the year, 400 if it ends 00
    months = np.datetime64("0000-01") + ((cc * np.int32(100) + yy) * 12 + mm - 1)
    days = months.astype("datetime64[D]")
    days += dd - 1  # in place: a fresh array of 8-byte days page-faults
    days[(dd < 1) | (dd > _MONTH_DAYS[mm] + (leap & (mm == 2)))] = np.datetime64("NaT")
    return days


def _first_unordered_date(days) -> int | None:
    """Position of the first day not strictly after its predecessor, or None."""
    late = np.flatnonzero(days[1:] <= days[:-1])
    return int(late[0]) + 1 if late.size else None


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Named 1-D sample of returns (see :func:`as_sample`) with optional ``datetime64`` dates,
    one per return, strictly increasing and none NaT, stored as ``datetime64[D]`` days."""

    name: str
    values: np.ndarray
    dates: np.ndarray | None = None

    def __post_init__(self):
        values = as_sample(self.values, 0, f"series {self.name!r}")
        object.__setattr__(self, "values", values)
        if self.dates is not None:
            dates = np.asarray(self.dates)
            if dates.dtype.kind != "M" or dates.ndim != 1 or np.isnat(dates).any():
                raise DataError(f"series {self.name!r}: dates must be 1-D datetime64 values, none NaT")
            dates = dates.astype("datetime64[D]", copy=False)
            object.__setattr__(self, "dates", dates)
            if dates.size != values.size:
                raise DataError(
                    f"series {self.name!r}: {dates.size} dates for {values.size} values"
                )
            if (i := _first_unordered_date(dates)) is not None:
                raise DataError(
                    f"series {self.name!r}: dates not strictly increasing at position {i}"
                )

    def __len__(self) -> int:
        return int(self.values.size)


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


def _read_cells(fh, name, skiprows: int, col: int):
    """Column 0 as text and column ``col`` as floats below line ``skiprows``, by the C reader.

    It opens the file ``name`` itself if given one, and reads ``fh`` otherwise.
    """
    fh.seek(0)
    source = name or fh
    for _ in range(2):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body with no data rows
                return np.loadtxt(source, delimiter=",", comments=None, quotechar='"', ndmin=1,
                                  encoding="utf-8-sig", skiprows=skiprows, usecols=(0, col),
                                  dtype=[("d", "U16"), ("v", "f8")])
        except ValueError:  # it rejects blank rows; emptied, they keep their line
            fh.seek(0)
            source = io.StringIO(_BLANK_LINE.sub("", fh.read()))
    return None  # the csv module explains the rejection


def _load(fh, name, path, column: str, scale: str) -> ReturnSeries:
    """:func:`load_returns_csv` on the open file ``fh``, whose errors name ``path``.

    The C reader opens the file ``name`` itself if it is not None.
    """
    reader = csv.reader(fh)
    header = next((row for row in reader if "".join(row).strip()), None)
    if header is None:
        raise IngestionError(f"{path}: file is empty")
    header = [cell.strip() for cell in header]
    col = header.index(column) if column in header else None
    cells = None if col is None else _read_cells(fh, name, reader.line_num, col)
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
    # one comparison finds every row within 1e-9 of a sentinel: near one, subtraction is exact
    low = np.flatnonzero(values < max(_SENTINELS) + 1e-6)
    sentinel = low[np.logical_or.reduce([np.abs(values[low] - s) < 1e-9 for s in _SENTINELS])]
    if sentinel.size:
        raise IngestionError(f"{path}: missing-value sentinels on rows {_itemise(fh, sentinel)}")
    dates = _calendar_days(cells["d"]) if col else None
    if dates is not None and (bad := np.isnat(dates)).any():
        raise IngestionError(f"{path}: invalid calendar dates on rows {_itemise(fh, bad)}")
    if dates is not None and (late := _first_unordered_date(dates)) is not None:
        raise IngestionError(f"{path}: dates not strictly increasing on row {_itemise(fh, [late])}")
    return ReturnSeries(column, values / (100.0 if scale == "percent" else 1.0), dates)


def _plain_name(path) -> str | None:
    """``path`` as a name numpy's C reader opens as the plain file it is, else None.

    numpy opens a str through its DataSource, which decompresses by suffix and
    fetches URLs; a file descriptor or bytes path it cannot open at all.
    """
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    if isinstance(name, str) and not name.endswith(_COMPRESSED) and "://" not in name:
        return name
    return None


def load_returns_csv(path, column: str, scale: str) -> ReturnSeries:
    """Read one return column from a headed CSV file with numpy's C reader.

    A cell holds ASCII digits with optional sign, point and exponent, or nan or
    inf, in optional whitespace or double quotes (``1_000`` is no number, and
    ``#`` starts no comment). Column 0 becomes the series' calendar days (a
    ``datetime64[D]`` array) when every data row's cell there is YYYYMMDD or
    YYYY-MM-DD. Percent scale divides by 100; blank rows are skipped. Missing,
    unparseable or non-finite cells, then missing-value sentinels (-99.99,
    -999), then dates that are no calendar day (month 00 or 13, 30 February,
    29 February of 1900), then unordered dates abort ingestion; a csv-module
    pass that only explains the rejection itemises their file lines. Nothing is
    imputed.

    The C reader opens a regular file by its path and reads it in large blocks.
    A pipe is read into memory first. It, and a name numpy would decompress by
    its suffix (``.gz``, ``.bz2``, ``.xz``, ``.lzma``) or fetch as a URL, reach
    the C reader as plain text, line by line.
    """
    if scale not in SCALES:
        raise DomainError(f"scale must be one of {SCALES}, got {scale!r}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            if fh.seekable():
                return _load(fh, _plain_name(path), path, column, scale)
            return _load(io.StringIO(fh.read()), None, path, column, scale)
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc


def simulate_series(params: GaussianParams, length: int, seed: int) -> ReturnSeries:
    """``length`` i.i.d. N(mu, sigma^2) draws from stream 0 of ``seed``, named after them."""
    if int(length) < 1:
        raise DomainError(f"length must be positive, got {length!r}")
    values = draw_gaussian(SeededRng(int(seed)), length, params.mu, params.sigma)
    name = f"simulated(mu={params.mu:g},sigma={params.sigma:g},n={int(length)},seed={int(seed)})"
    return ReturnSeries(name=name, values=values)


def write_text(path, text: str, what: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written raises :class:`OutputError`."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {what} to {path}: {exc}") from exc


def write_report(report, path, format: str = "json") -> None:
    """Persist a report in one of :data:`REPORT_FORMATS`; csv has one row per method."""
    if format not in REPORT_FORMATS:
        raise DomainError(f"unknown report format {format!r}; use {', '.join(REPORT_FORMATS)}")
    write_text(path, getattr(report, REPORT_FORMATS[format])(), "report")
