"""Rolling-window backtesting, scoring and replication studies.

The protocol: a series is tiled into consecutive windows of length ``w``
(trailing remainder dropped); window k produces the capital estimates that
are evaluated on window k+1. Exceedances are strict (``x + capital < 0``;
ties count as non-exceedances). Every statistic that cannot be computed is
reported as absent with a reason, never silently zeroed.
"""
from __future__ import annotations

import functools
import json
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DomainError,
    EmptyTailError,
    RiskbenchError,
    SizeError,
)
from .estimators import (
    METHODS,
    GaussianParams,
    RiskLevel,
    WindowStats,
    batch_es_capitals,
    batch_var_capitals,
    canonical_method,
    check_es_form,
    check_gpd_threshold_quantile,
    window_stats,
)
from .stats_core import SeededRng, _type7_sorted_rows, as_sample, draw_gaussian

MEASURES = ("var", "es", "both")
# A replication chunk holds as many replications as fit this many estimation-window
# cells (256 KB per float array), so memory stays flat in the replication count.
_CHUNK_CELLS = 2**15


@dataclass(frozen=True)
class BacktestConfig:
    """Backtest parameters; ``alpha`` is deliberately mandatory."""

    alpha: float
    methods: tuple
    window: int = 50
    measure: str = "var"
    gpd_threshold_quantile: float = 0.3

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(RiskLevel(self.alpha)))
        if int(self.window) < 2:
            raise ConfigError(f"window must be at least 2, got {self.window!r}")
        object.__setattr__(self, "window", int(self.window))
        if self.measure not in MEASURES:
            raise ConfigError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        tags = tuple(dict.fromkeys(canonical_method(tag) for tag in self.methods))
        if not tags:
            raise ConfigError("at least one method tag is required")
        for tag in tags:
            if self.window < METHODS[tag].min_n:
                raise ConfigError(
                    f"window {self.window} is below the {METHODS[tag].min_n} observations "
                    f"that {tag} needs"
                )
        if self.measure in ("es", "both"):
            check_es_form(tags)
        object.__setattr__(self, "methods", tags)
        q = check_gpd_threshold_quantile(self.gpd_threshold_quantile)
        object.__setattr__(self, "gpd_threshold_quantile", q)


def split_windows(series, window: int) -> np.ndarray:
    """The (K, w) matrix of the series' K = floor(len/window) full windows, dropping the tail.

    Window k estimates and window k+1 evaluates. ``series`` is a 1-D array or a
    :class:`ReturnSeries`; other shapes, and a non-finite value, raise :class:`DataError`.
    """
    values = as_sample(getattr(series, "values", series), 0, "series")
    window = int(window)
    if window < 2:
        raise ConfigError(f"window must be at least 2, got {window}")
    count = values.size // window
    if count < 2:
        raise SizeError(
            f"series of length {values.size} cannot form an estimate/evaluate pair "
            f"with window {window} (needs at least {2 * window})"
        )
    return values[: count * window].reshape(count, window)


def bias_statistic(samples, capitals, alpha, measure: str = "var") -> float:
    """Empirical risk of the secured positions y_i = x_i + capital_i.

    ``measure`` picks the empirical functional: the type-7 VaR or the tail-average ES. Near
    zero for unbiased estimation; positive when risk is underestimated (the secured position
    still needs capital). A non-finite secured position raises :class:`DataError` naming the
    first one.
    """
    x = np.asarray(samples, dtype=float)
    caps = np.asarray(capitals, dtype=float)
    if x.shape != caps.shape or x.ndim != 1:
        raise DomainError(f"samples {x.shape} and capitals {caps.shape} are not aligned")
    alpha = RiskLevel(alpha)
    if x.size < 1:
        raise SizeError("bias_statistic needs at least one secured observation")
    if measure not in ("var", "es"):
        raise ConfigError(f"measure must be 'var' or 'es', got {measure!r}")
    y = x + caps
    if not np.isfinite(y).all():  # one pass checks both inputs, and their sums
        bad = int(np.flatnonzero(~np.isfinite(y))[0])
        raise DataError(f"samples, capitals and their sums must be finite; position {bad} is not")
    y_sorted = np.sort(y)
    quantile = float(_type7_sorted_rows(y_sorted[None, :], float(alpha))[0])
    if measure == "var":
        return -quantile
    tail = y[y < quantile]
    if tail.size == 0:
        raise EmptyTailError("no secured position falls below the empirical VaR")
    return -float(tail.mean())


def _z_undefined_reason(es_caps) -> str | None:
    """Why the Z statistic of one group's ES capitals is undefined, or None."""
    bad = np.flatnonzero(es_caps <= 0.0)
    if bad.size == 0:
        return None
    row = int(bad[0])
    return f"window {row}: non-positive ES capital {float(es_caps[row])!r}; Z statistic undefined"


class _SortedWindows(typing.NamedTuple):
    """Evaluation windows in the order-statistic form that :func:`_backtest_stats` reads."""

    y: np.ndarray  # (..., K, w), each window sorted
    r: np.ndarray  # (..., K), the centre y[..., w // 2]: a median of the window
    prefix: np.ndarray  # (..., K, w + 1), prefix[..., j] = sum(y[..., :j] - r)
    start: np.ndarray  # (..., K), the flat index of each window's prefix[..., 0]


def _sort_windows(windows) -> _SortedWindows:
    w = windows.shape[-1]
    y = np.sort(windows, axis=-1)
    r = y[..., w // 2]
    prefix = np.empty(y.shape[:-1] + (w + 1,))
    prefix[..., 0] = 0.0
    sums = prefix[..., 1:]  # in place: a full-size temporary nearly doubles this function's time
    np.subtract(y, r[..., None], out=sums)
    np.cumsum(sums, axis=-1, out=sums)
    start = np.arange(0, prefix.size, prefix.shape[-1]).reshape(r.shape)
    return _SortedWindows(y, r, prefix, start)


def _expit(x):
    """1/(1 + exp(-x)) elementwise, by numpy's exp: within 4 ulps of ``scipy.special.expit``."""
    with np.errstate(over="ignore"):  # exp(-x) overflows to inf where expit(x) is 0
        return 1.0 / (1.0 + np.exp(-x))


def _backtest_stats(var_caps, es_caps, windows, alpha) -> dict:
    """Per group, the backtest's statistics of (..., K) capitals on (..., K, w) evaluation windows.

    ``windows`` are the raw windows or, to share one sort between methods, their
    :func:`_sort_windows`; capitals with a leading method axis, (M, ..., K), score
    every method in one call. Every statistic is read off the sorted window y, its
    centre r and the prefix sums P[j] = sum_{i<j} (y_i - r). With x1 = -VaR
    capital, u = x1 - r and k = #{y < x1}, a lower bound found by ceil(log2 w)
    halvings of the window and one comparison (a NaN x1 gives k = 0):

    - the exceedances are k: ``y < x1`` is exactly the strict ``y + c < 0``, so a
      tie is none;
    - sum_{y < x1} (x1 - y) = k*u - P[k] and sum_all (x1 - y) = w*u - P[w], so the
      window's VaR score sum is k*u - P[k] - alpha*(w*u - P[w]);
    - the joint score sum adds sig*(k*u - P[k])/alpha + w*(sig*(x2 - x1) - sig),
      with x2 = -ES capital and sig = expit(x2) (:func:`_expit`);
    - Acerbi-Szekely's numerator sum_{y < x1} y is k*r + P[k] (see :func:`acerbi_z`).

    A tie y = x1 has x1 - y = 0, so it adds nothing to either score whether its
    indicator is read as 1 or 0, and the strict k serves both. Centring on r keeps
    the scores about as accurate as their elementwise terms |x1 - y|: prefix sums
    of raw y carry rounding errors of the size of |y|, which a location shift
    makes arbitrarily larger, while a median minimises sum |y - c| over c, so
    sum |y - r| <= sum |y - x1|. Each window's sum is divided by w, then averaged over the
    K windows; the ES statistics are NaN without ``es_caps``.
    """
    y, r, prefix, start = windows if isinstance(windows, _SortedWindows) else _sort_windows(windows)
    alpha = float(RiskLevel(alpha))
    rows, w = y.shape[-2:]
    x1 = -var_caps
    u = x1 - r
    first = start - start // (w + 1)  # the flat index of each window's y[..., 0]
    base, span = first, w
    while span > 1:  # a lower bound: the window's first y >= x1 lies in [base, base + span]
        probe = base + span // 2
        base = np.where(y.take(probe) < x1, probe, base)
        span -= span // 2
    k = base - first + (y.take(base) < x1)
    below = prefix.take(start + k)  # P[k]
    gain = k * u - below  # sum_{y < x1} (x1 - y)
    var = gain - alpha * (w * u - prefix[..., w])
    count = k.sum(axis=-1)

    def average(window_sums):  # over each window's w observations, then over the K windows
        return (window_sums / w).sum(axis=-1) / rows

    nan = np.full(np.shape(count), np.nan)
    stats = {"count": count, "var_score": average(var), "es_z": nan, "joint_score": nan}
    if es_caps is not None:
        scale = np.where(es_caps > 0.0, es_caps, np.nan)
        per_window = (k * r + below) / (w * alpha * scale)
        stats["es_z"] = 1.0 + per_window.sum(axis=-1) / rows
        x2 = -es_caps
        sig = _expit(x2)
        joint = var + sig * gain / alpha + w * (sig * (x2 - x1) - sig)
        stats["joint_score"] = average(joint)
    return stats


def _aligned(per_window, windows, what="capitals"):
    """(..., K) arrays, named ``what`` in errors, and (..., K, w) ``windows`` as floats.

    Misaligned shapes raise :class:`DomainError`, windows without an observation
    :class:`SizeError` and a non-finite value :class:`DataError` naming the first one:
    k for a capital or forecast, (k, j) for a window's value, each led by g with a group axis.
    """
    arrays = tuple(np.asarray(a, dtype=float) for a in per_window)
    windows = np.asarray(windows, dtype=float)
    if windows.ndim not in (2, 3) or any(a.shape != windows.shape[:-1] for a in arrays):
        shapes = ", ".join(str(a.shape) for a in arrays)
        raise DomainError(f"{shapes} not aligned with evaluation windows {windows.shape}")
    if windows.size == 0:
        raise SizeError(f"evaluation windows {windows.shape} hold no observation")
    for name, a in (*((what, a) for a in arrays), ("evaluation windows", windows)):
        if not np.isfinite(a).all():
            at = tuple(np.argwhere(~np.isfinite(a))[0].tolist())
            raise DataError(f"{name} must be finite; the value at {at if len(at) > 1 else at[0]} is not")
    return (*arrays, windows)


def acerbi_z(var_capitals, es_capitals, evaluation_windows, alpha):
    """Acerbi-Szekely "Test 2" statistic.

    Z = 1 + (1/(K-1)) sum_k (1/w) sum_j x_j^{k+1} 1{x_j^{k+1} + VaR^k < 0} / (alpha ES^k).
    Zero under correct tail modelling, negative under risk underestimation,
    exactly 1 when no exceedance occurs. A non-positive ES capital raises
    :class:`DomainError`. With a leading group axis (capitals (G, K), windows
    (G, K, w)) it returns one Z per group instead, NaN for a group with a
    non-positive ES capital.
    """
    var_caps, es_caps, windows = _aligned((var_capitals, es_capitals), evaluation_windows)
    if windows.ndim == 2 and (reason := _z_undefined_reason(es_caps)) is not None:
        raise DomainError(reason)
    z = _backtest_stats(var_caps, es_caps, windows, alpha)["es_z"]
    return float(z) if z.ndim == 0 else z


def mean_score(forecasts, evaluation_windows, alpha, score: str = "var", es_forecasts=None):
    """Double average (over windows, then observations) of a scoring function.

    With a leading group axis (forecasts (G, K), windows (G, K, w)) it returns
    one score per group. Misaligned forecasts raise :class:`DomainError`.
    """
    if score not in ("var", "joint"):
        raise ConfigError(f"score must be 'var' or 'joint', got {score!r}")
    joint = score == "joint"
    if joint and es_forecasts is None:
        raise ConfigError("joint mean score needs es_forecasts")
    x1, x2, windows = _aligned((forecasts, es_forecasts if joint else forecasts), evaluation_windows,
                               "forecasts")
    result = _backtest_stats(-x1, -x2 if joint else None, windows, alpha)[f"{score}_score"]
    return float(result) if result.ndim == 0 else result


@dataclass(frozen=True)
class MethodResult:
    """Per-method backtest statistics; absent values carry a reason."""

    method: str
    failed: bool = False
    failure: str | None = None
    exceedance_rate: float | None = None
    exceedance_count: int | None = None
    bias_statistic: float | None = None
    bias_reason: str | None = None
    es_z_statistic: float | None = None
    es_z_reason: str | None = None
    var_mean_score: float | None = None
    joint_mean_score: float | None = None


def _csv_cell(value) -> str:
    return "" if value is None else repr(value)


@functools.cache
def _numeric_fields(record_type) -> tuple:
    """Names of a record dataclass's int and float fields, optionally None, in declaration order."""
    hints = typing.get_type_hints(record_type)
    numeric = (int, float, int | None, float | None)
    return tuple(f.name for f in fields(record_type) if hints[f.name] in numeric)


class _MethodTable:
    """Serialisation shared by the reports, read off their dataclass fields.

    The JSON form holds ``type`` (the class's ``JSON_TYPE``) and every field
    shown in repr, under its ``json`` metadata name if it has one. Nested
    dataclasses become dicts with tuples as lists, and each method's record
    leaves out its ``method`` field. The CSV forms hold the numeric fields of
    the class's ``RECORD`` dataclass, one row per method in ``config.methods`` order.
    The table is the class's ``TITLE`` over the report's fields, then one row per
    method of its ``COLUMNS`` (header, record field, width, format spec), ``-`` for an
    absent value, or a failed method's failure.
    """

    def to_table(self) -> str:
        header = (f"{head:>{width}s}" for head, _, width, _ in self.COLUMNS)
        lines = [self.TITLE.format_map(vars(self)), " ".join([f"{'method':18s}", *header])]
        for tag in self.config.methods:
            r = self.methods[tag]
            cells = ("-".rjust(width) if (v := getattr(r, name)) is None else format(v, f">#{width}{spec}")
                     for _, name, width, spec in self.COLUMNS)
            row = f"FAILED: {r.failure}" if getattr(r, "failed", False) else " ".join(cells)
            lines.append(f"{tag:18s} {row}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        out = {"type": self.JSON_TYPE}
        for f in fields(self):
            if not f.repr:
                continue
            value = getattr(self, f.name)
            if f.name == "methods":
                value = {tag: asdict(r) for tag, r in value.items()}
                for record in value.values():
                    del record["method"]
            elif is_dataclass(value):
                value = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(value).items()}
            out[f.metadata.get("json", f.name)] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        names = _numeric_fields(self.RECORD)
        lines = ["method," + ",".join(names)]
        for tag in self.config.methods:
            r = self.methods[tag]
            cells = [_csv_cell(getattr(r, name)) for name in names]
            lines.append(tag + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_csv_long(self) -> str:
        lines = ["method,statistic,value"]
        for tag in self.config.methods:
            r = self.methods[tag]
            for name in _numeric_fields(self.RECORD):
                value = getattr(r, name)
                if value is not None:
                    lines.append(f"{tag},{name},{_csv_cell(value)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BacktestReport(_MethodTable):
    """One series' backtest: statistics per method plus the config echo."""

    JSON_TYPE = "backtest_report"
    RECORD = MethodResult
    TITLE = ("series={series_name} window={config.window} alpha={config.alpha:g} "
             "windows={window_count} evaluated={evaluated_points}")
    # bias and scores are in the data's units: significant digits, a 3-digit exponent fits
    COLUMNS = (
        ("exceed", "exceedance_count", 7, "d"),
        ("rate", "exceedance_rate", 8, ".4f"),
        ("bias", "bias_statistic", 10, ".3g"),
        ("es_z", "es_z_statistic", 10, ".4f"),
        ("var_score", "var_mean_score", 12, ".5g"),
        ("joint_score", "joint_mean_score", 12, ".5g"),
    )

    series_name: str = field(metadata={"json": "series"})
    config: BacktestConfig
    window_count: int
    evaluated_points: int
    methods: dict


def _capitals(method, ws: WindowStats, config: BacktestConfig, table):
    """VaR and (under an ES measure) ES capitals of every row of ``ws``."""
    options = {"gpd_threshold_quantile": config.gpd_threshold_quantile, "table": table}
    var_caps = batch_var_capitals(method, ws, config.alpha, **options)
    if config.measure == "var":
        return var_caps, None
    return var_caps, batch_es_capitals(method, ws, config.alpha, **options)


def _group_capitals(method, ws: WindowStats, groups: int, config, table):
    """Capitals of every group from one kernel call per measure, and a failure per group.

    When that call raises, each group is run again on its own rows, so a
    failure ("ExcType: message", as a backtest of that group alone reports
    it) is charged to the groups that cause it. Failed groups get NaN capitals.
    """
    try:
        return (*_capitals(method, ws, config, table), [None] * groups)
    except RiskbenchError:
        pass
    rows = ws.means.size // groups
    var_caps = np.full(ws.means.size, np.nan)
    es_caps = None if config.measure == "var" else var_caps.copy()
    failures = []
    for g in range(groups):
        part = slice(g * rows, (g + 1) * rows)
        try:
            var_part, es_part = _capitals(method, ws.take(part), config, table)
        except RiskbenchError as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        failures.append(None)
        var_caps[part] = var_part
        if es_caps is not None:
            es_caps[part] = es_part
    return var_caps, es_caps, failures


def _backtest_groups(estimation, evaluation, config: BacktestConfig, table):
    """Backtest G groups of windows at once: the statistics core of both entry points.

    ``estimation`` and ``evaluation`` are (G, K-1, w); ``evaluation[g, k]`` is
    the window that follows ``estimation[g, k]`` in group g's series.
    One :func:`window_stats` call, one kernel call per method and measure, one
    sort of the evaluation windows and one :func:`_backtest_stats` call on the
    (M, G, K-1) capitals of all M methods serve every group. Each per-row reduction
    runs along a contiguous row in the order a single group's would, so every
    group's statistics are bit-identical to a backtest of that group alone.

    Yields ``(method, failures, var_caps, es_caps, stats)`` per method, with
    capitals shaped (G, K-1) and ``stats`` holding per-group arrays ``count``,
    ``er``, ``es_z``, ``var_score``, ``joint_score`` and ``failed``. NaN marks
    the statistics of a failed group, the ES statistics under ``measure="var"``
    and a Z left undefined by a non-positive ES capital.
    """
    groups, rows, w = estimation.shape
    ws = window_stats(estimation)
    per_method = (_group_capitals(m, ws, groups, config, table) for m in config.methods)
    var_caps, es_caps, failures = zip(*per_method)
    var_caps = np.stack(var_caps).reshape(-1, groups, rows)
    es_caps = None if config.measure == "var" else np.stack(es_caps).reshape(var_caps.shape)
    stats = _backtest_stats(var_caps, es_caps, _sort_windows(evaluation), config.alpha)
    count = stats.pop("count")
    stats["er"] = count / (rows * w)
    failed = np.array([[f is not None for f in fs] for fs in failures])
    stats = {key: np.where(failed, np.nan, v) for key, v in stats.items()}
    stats |= {"count": count, "failed": failed}
    for m, method in enumerate(config.methods):
        es = None if es_caps is None else es_caps[m]
        yield method, failures[m], var_caps[m], es, {key: v[m] for key, v in stats.items()}


def rolling_backtest(series, config: BacktestConfig, table=None) -> BacktestReport:
    """Estimate on window k, evaluate on window k+1, aggregate all statistics.

    Estimator failures are recorded per method and do not abort the other
    methods. Unbiased ES uses the exact a_n unless ``table`` stores an entry
    for (window, alpha). ``series`` is a 1-D array or a :class:`ReturnSeries`, as
    :func:`split_windows` takes it.
    """
    windows = split_windows(series, config.window)
    ev = windows[1:]
    bias_measure = "es" if config.measure == "es" else "var"
    results: dict = {}
    per_method = _backtest_groups(windows[:-1][None], ev[None], config, table)
    for method, failures, var_caps, es_caps, stats in per_method:
        if failures[0] is not None:
            results[method] = MethodResult(method=method, failed=True, failure=failures[0])
            continue
        secured = es_caps if bias_measure == "es" else var_caps
        bias = bias_reason = None
        try:
            bias = bias_statistic(
                ev.ravel(), np.repeat(secured[0], ev.shape[1]), config.alpha, measure=bias_measure
            )
        except EmptyTailError as exc:
            bias_reason = str(exc)
        es_z = es_z_reason = joint = None
        if es_caps is not None:
            es_z_reason = _z_undefined_reason(es_caps[0])
            es_z = None if es_z_reason is not None else float(stats["es_z"][0])
            joint = float(stats["joint_score"][0])
        results[method] = MethodResult(
            method=method,
            exceedance_rate=float(stats["er"][0]),
            exceedance_count=int(stats["count"][0]),
            bias_statistic=bias,
            bias_reason=bias_reason,
            es_z_statistic=es_z,
            es_z_reason=es_z_reason,
            var_mean_score=float(stats["var_score"][0]),
            joint_mean_score=joint,
        )

    return BacktestReport(
        series_name=str(getattr(series, "name", "series")),
        config=config,
        window_count=len(windows),
        evaluated_points=int(ev.size),
        methods=results,
    )


# ---------------------------------------------------------------------------
# replication studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodReplicationStats:
    """Across-replication summary for one method.

    RD and OR compare against the reference method and are absent for the
    reference itself. ``rd_excluded`` counts replications dropped because the
    reference exceedance rate was zero (RD undefined).
    """

    method: str
    er_mean: float | None = None
    er_sd: float | None = None
    rd_mean: float | None = None
    rd_sd: float | None = None
    or_rate: float | None = None
    rd_excluded: int = 0
    es_z_mean: float | None = None
    es_z_sd: float | None = None
    es_z_or_rate: float | None = None
    es_z_undefined: int = 0
    var_score_mean: float | None = None
    joint_score_mean: float | None = None
    failures: int = 0


@dataclass(frozen=True)
class ReplicationSummary(_MethodTable):
    """Aggregate of N independent simulated backtests."""

    JSON_TYPE = "replication_summary"
    RECORD = MethodReplicationStats
    TITLE = ("replications={replications} length={series_length} window={config.window} "
             "alpha={config.alpha:g} mu={generator.mu:g} sigma={generator.sigma:g} "
             "reference={reference}")
    # the paper's ER, RD and OR, and Z with its OR
    COLUMNS = (
        ("er_mean", "er_mean", 8, ".4f"),
        ("er_sd", "er_sd", 8, ".4f"),
        ("rd_mean", "rd_mean", 9, ".1%"),
        ("rd_sd", "rd_sd", 8, ".1%"),
        ("or", "or_rate", 7, ".1%"),
        ("z_mean", "es_z_mean", 8, ".4f"),
        ("z_or", "es_z_or_rate", 7, ".1%"),
    )

    config: BacktestConfig
    generator: GaussianParams
    series_length: int
    replications: int
    seed: int
    reference: str | None
    methods: dict
    samples: dict | None = field(default=None, repr=False, compare=False)


def _outperformance_rate(values: np.ndarray, reference: np.ndarray, target: float):
    """How often ``values`` is farther from ``target`` than ``reference`` where both are defined."""
    both = ~np.isnan(values) & ~np.isnan(reference)
    if not np.any(both):
        return None
    return float(np.mean(np.abs(values[both] - target) > np.abs(reference[both] - target)))


def _nan_mean(values: np.ndarray):
    valid = values[~np.isnan(values)]
    return float(valid.mean()) if valid.size else None


def _nan_stats(values: np.ndarray):
    valid = values[~np.isnan(values)]
    if valid.size == 0:
        return None, None
    mean = float(valid.mean())
    sd = float(valid.std(ddof=1)) if valid.size > 1 else 0.0
    return mean, sd


def replication_study(
    config: BacktestConfig,
    generator: GaussianParams,
    series_length: int,
    replications: int,
    seed: int,
    *,
    reference: str | None = "gaussian_unbiased",
    table=None,
    keep_samples: bool = False,
) -> ReplicationSummary:
    """Simulate N series, backtest each, aggregate ER / RD / OR per method.

    Replication i draws from the stream ``(seed, stream_id=i)``, through one Philox
    generator re-keyed to each stream (:meth:`SeededRng.generator`). Replications
    run in chunks sized to a fixed budget of window cells, so memory does not
    grow with N: each chunk makes one window-statistics call, one kernel call
    per method and one scoring call, and a kernel failure is charged to the
    replications that cause it. Results are bit-identical to backtesting each replication alone
    with :func:`rolling_backtest`, whatever the chunk size.
    RD_i = (ER_i - ER_i(ref)) / ER_i(ref); OR_i = 1 iff the competitor's
    exceedance rate sits farther from alpha than the reference's. With an ES
    measure, the same mean/sd/outperformance aggregation is applied to the
    Acerbi-Szekely Z statistic (reference value 0).
    """
    replications = int(replications)
    if replications < 2:
        raise DomainError(f"replications must be at least 2, got {replications}")
    series_length = int(series_length)
    w = config.window
    if series_length < 2 * w:
        raise SizeError(f"series_length {series_length} cannot host two windows of {w}")
    if reference is not None:
        reference = canonical_method(reference)
        if reference not in config.methods:
            reference = None

    windows = series_length // w
    chunk = max(1, _CHUNK_CELLS // ((windows - 1) * w))
    merged = {
        m: {key: np.full(replications, np.nan) for key in ("er", "es_z", "var_score", "joint_score")}
        | {"failed": np.zeros(replications, dtype=bool)}
        for m in config.methods
    }
    block = np.empty((min(chunk, replications), series_length))  # each chunk's series, in place
    bits = SeededRng(int(seed)).generator()  # one Philox, re-keyed to each replication's stream
    for start in range(0, replications, chunk):
        stop = min(start + chunk, replications)
        series = block[: stop - start]
        for i, row in enumerate(series, start):
            rng = SeededRng(int(seed), i).generator(bits)
            draw_gaussian(rng, series_length, generator.mu, generator.sigma, row)
        tiled = series[:, : windows * w].reshape(stop - start, windows, w)
        for method, _, _, _, stats in _backtest_groups(tiled[:, :-1], tiled[:, 1:], config, table):
            for key, values in merged[method].items():
                values[start:stop] = stats[key]

    ref = merged.get(reference)  # None without a reference
    stats: dict = {}
    for method in config.methods:
        slot = merged[method]
        er_mean, er_sd = _nan_stats(slot["er"])
        z_mean, z_sd = _nan_stats(slot["es_z"])
        var_score_mean = _nan_mean(slot["var_score"])  # no sd: it squares the data's units
        joint_score_mean = _nan_mean(slot["joint_score"])
        rd_mean = rd_sd = or_rate = z_or = None
        rd_excluded = 0
        if ref is not None and method != reference:
            ref_er = ref["er"]
            both = ~np.isnan(slot["er"]) & ~np.isnan(ref_er)
            usable = both & (ref_er != 0.0)
            rd_excluded = int(np.count_nonzero(both) - np.count_nonzero(usable))
            rd_mean, rd_sd = _nan_stats((slot["er"][usable] - ref_er[usable]) / ref_er[usable])
            or_rate = _outperformance_rate(slot["er"], ref_er, config.alpha)
            z_or = _outperformance_rate(slot["es_z"], ref["es_z"], 0.0)
        stats[method] = MethodReplicationStats(
            method=method,
            er_mean=er_mean,
            er_sd=er_sd,
            rd_mean=rd_mean,
            rd_sd=rd_sd,
            or_rate=or_rate,
            rd_excluded=rd_excluded,
            es_z_mean=z_mean,
            es_z_sd=z_sd,
            es_z_or_rate=z_or,
            es_z_undefined=int(np.count_nonzero(np.isnan(slot["es_z"]) & ~slot["failed"]))
            if config.measure in ("es", "both")
            else 0,
            var_score_mean=var_score_mean,
            joint_score_mean=joint_score_mean,
            failures=int(np.count_nonzero(slot["failed"])),
        )

    return ReplicationSummary(
        config=config,
        generator=generator,
        series_length=series_length,
        replications=replications,
        seed=int(seed),
        reference=reference,
        methods=stats,
        samples=merged if keep_samples else None,
    )
