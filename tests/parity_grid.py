"""The parity grid: the package's outputs on fixed inputs, bit for bit.

``grid()`` maps a key naming an entry point and its arguments to each output
float as ``float.hex``, each int or string as it is, or to the error type and
text of a call that raises. ``tests/data/parity_golden.json`` holds the grid of
the code it was made from, and ``tests/test_parity.py`` compares the code
against it.

Regenerate the file, and print the keys that moved, with::

    PYTHONPATH=src python tests/parity_grid.py

A change that moves a key names it, and says why, in ``CHANGES.md``.

Keys matched by :data:`ULP_BOUNDS` read functions whose bits may differ by CPU:
``scipy.special`` (the Student-t fit and quantile, the KDE's normal CDF) or numpy's
SIMD ``exp``, ``log`` and ``pow`` (the GPD fit and tail, the joint score's
logistic). They compare within the stated number of units in the last place;
every other float compares exactly.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
import struct
import sys
import warnings
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from riskbench import (
    BacktestConfig,
    GaussianParams,
    RiskbenchError,
    estimate,
    exact_unbiased_es_constant,
    pivotality_check,
    replication_study,
    rolling_backtest,
    secured_position_es,
)
from riskbench.estimators import ES_METHODS, LOCATION_SCALE_METHODS, METHODS, _t_quantile

GOLDEN = Path(__file__).parent / "data" / "parity_golden.json"
ALPHAS = (0.01, 0.05, 0.3)
SIZES = (12, 40, 100)
SCALES = {"1": 1.0, "2^-500": 2.0**-500, "2^500": 2.0**500}
# the (n, alpha) pairs whose exact a_n the benchmark's unbiasedness workload solves
SOLVES = ((2, 0.05), (5, 0.01), (10, 0.10), (50, 0.05), (100, 0.025), (250, 0.025), (1000, 0.01))
# (key pattern, ulps): the outputs that read scipy.special or numpy's SIMD exp, log and pow.
# With every exp, log, log1p, power and scipy.special result moved by up to one ulp, these
# keys moved by at most 1737 ulps (KDE) and 2 (joint score); the bounds are about 8 times that.
ULP_BOUNDS = (
    (re.compile(r"(^|/)(student_t|kde|gpd)(/|$)"), 2**14),
    (re.compile(r"joint"), 2**4),
)


def _t4(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_t(4, n)


def _encode(value):
    """``value`` as JSON: floats as ``float.hex``, containers element by element."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if is_dataclass(value):
        return _encode(asdict(value))
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def _flatten(out: dict, key: str, value) -> None:
    """One grid entry per leaf of the encoded ``value``, its path appended to ``key``."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(out, f"{key}/{k}", v)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(out, f"{key}/{i}", v)
    else:
        out[key] = value


def _record(out: dict, key: str, fn, *args, **kwargs) -> None:
    """Flatten ``fn(*args, **kwargs)`` under ``key``, or the library error it raises."""
    try:
        value = fn(*args, **kwargs)
    except RiskbenchError as exc:
        out[key] = {"error": type(exc).__name__, "text": str(exc)}
        return
    _flatten(out, key, _encode(value))


def _csv_cells(text: str) -> dict:
    """A CSV report as {method: {column: cell}}, a cell float.hex where its text is a float's repr."""
    header, *rows = csv.reader(io.StringIO(text))
    cells = {"header": ",".join(header)}
    for row in rows:
        cells[row[0]] = {
            col: _cell(cell) for col, cell in zip(header[1:], row[1:], strict=True)
        }
    return cells


def _cell(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return cell
    return value.hex() if repr(value) == cell else cell


def grid() -> dict:
    """Every key of the parity grid and its value."""
    out: dict = {}
    samples = {n: _t4(n, seed=n) for n in SIZES}
    for method in METHODS:
        for measure in ("var", "es") if method in ES_METHODS else ("var",):
            for n, x in samples.items():
                for alpha in ALPHAS:
                    for label, scale in SCALES.items():
                        key = f"estimate/{method}/{measure}/n={n}/alpha={alpha}/scale={label}"
                        _record(out, key, estimate, method, x * scale, alpha, measure)

    series = 0.01 * _t4(500, 500)
    for measure in ("var", "es", "both"):
        methods = tuple(METHODS) if measure == "var" else ES_METHODS
        for window in (10, 50):
            config = BacktestConfig(alpha=0.05, methods=methods, window=window, measure=measure)
            key = f"rolling_backtest/{measure}/window={window}"
            report = rolling_backtest(series, config)
            _flatten(out, f"{key}/json", _encode(json.loads(report.to_json())))
            _flatten(out, f"{key}/csv", _csv_cells(report.to_csv()))

    generator = GaussianParams(0.1, 2.0)
    for measure, methods in (("var", tuple(METHODS)), ("both", ES_METHODS)):
        config = BacktestConfig(alpha=0.05, methods=methods, window=20, measure=measure)
        summary = replication_study(config, generator, 200, 6, 3, keep_samples=True)
        key = f"replication_study/{measure}"
        _flatten(out, f"{key}/json", _encode(json.loads(summary.to_json())))
        _flatten(out, f"{key}/samples", _encode(summary.samples))

    params = {"standard": None, "shifted": GaussianParams(-0.5, 3.0)}
    for i, method in enumerate(LOCATION_SCALE_METHODS):
        for p, (label, gauss) in enumerate(params.items()):
            seed = 10 * i + p
            _record(out, f"pivotality_check/{method}/{label}", pivotality_check,
                    method, 50, 0.05, 20_000, seed, gauss)
            _record(out, f"secured_position_es/{method}/{label}", secured_position_es,
                    method, 50, 0.05, 20_000, seed, gauss)

    for n, alpha in SOLVES:
        _record(out, f"exact_unbiased_es_constant/n={n}/alpha={alpha}",
                exact_unbiased_es_constant, n, alpha)
        _record(out, f"t_quantile/k={n - 1}/alpha={alpha}", _t_quantile, n - 1, alpha)
    return out


def ulp_bound(key: str) -> int:
    """Units in the last place that a float under ``key`` may move: 0 unless it is bounded."""
    return max((ulps for pattern, ulps in ULP_BOUNDS if pattern.search(key)), default=0)


def _ordered(x: float) -> int:
    """The float's bits as an integer that orders as the floats do (-0.0 and 0.0 both 0)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulps_apart(a, b) -> float:
    """Units in the last place between two float.hex strings; inf unless both are floats."""
    try:
        x, y = float.fromhex(a), float.fromhex(b)
    except (TypeError, ValueError):  # an int, a string, an error or a missing key
        return math.inf
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    return float(abs(_ordered(x) - _ordered(y)))


def moved(golden: dict, current: dict, bounded: bool = True) -> list:
    """The keys one grid lacks, or whose value moved (beyond its ulp bound if ``bounded``), sorted."""
    missing = object()
    return [key for key in sorted(golden.keys() | current.keys())
            if (old := golden.get(key, missing)) != (new := current.get(key, missing))
            and not (bounded and ulps_apart(old, new) <= ulp_bound(key))]


def main() -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning from a kernel is an error, as in CI
        current = grid()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    changed = moved(old, current, bounded=False)
    GOLDEN.write_text(json.dumps(current, indent=0, sort_keys=True) + "\n")
    for key in changed:
        print(f"{key}: {old.get(key, 'missing')!r} -> {current.get(key, 'missing')!r}")
    print(f"{len(current)} keys, {len(changed)} moved", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
