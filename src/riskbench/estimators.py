"""Value-at-Risk and Expected Shortfall estimators.

Every estimator maps a return sample and a level ``alpha`` to a positive
capital requirement: the amount of cash that makes the position acceptable.
Exceedances are always the event ``outcome + capital < 0``.

The scalar API (``var_*`` / ``es_*``) validates inputs and returns
:class:`RiskEstimate` records. The same formulas are exposed as vectorised
kernels over matrices of rolling windows (:func:`window_stats`,
:func:`batch_var_capitals`, :func:`batch_es_capitals`), which is what the
backtester and the Monte Carlo checks run on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.special as sc
from scipy import optimize, stats

from .errors import (
    CalibrationMissingError,
    ConfigError,
    DataError,
    DegenerateFitError,
    DomainError,
    EmptyTailError,
    EstimationError,
    InfiniteMeanTailError,
    InsufficientTailError,
    LevelTooHighError,
    SizeError,
)
from .stats_core import (
    _type7_sorted_rows,
    as_sample,
    is_rounding_noise,
    sample_moments,
    student_t_quantile,
    type7_quantile,
)

DEFAULT_GPD_THRESHOLD_QUANTILE = 0.3
_XI_LOG_LIMIT = 1e-6
_STUDENT_NU_MAX = 200.0


class RiskLevel(float):
    """Probability level in the open interval (0, 1)."""

    def __new__(cls, alpha):
        value = float(alpha)
        if not (math.isfinite(value) and 0.0 < value < 1.0):
            raise DomainError(f"risk level must lie in (0, 1), got {alpha!r}")
        return super().__new__(cls, value)


VAR_METHODS = (
    "empirical",
    "empirical_simple",
    "gaussian",
    "cornish_fisher",
    "student_t",
    "gpd",
    "kde",
    "gaussian_unbiased",
    "mean",
)
ES_METHODS = (
    "empirical",
    "gaussian",
    "cornish_fisher",
    "gpd",
    "gaussian_unbiased",
    "mean",
)
METHOD_ALIASES = {
    "emp": "empirical",
    "hist": "empirical",
    "simple": "empirical_simple",
    "emp_simple": "empirical_simple",
    "norm": "gaussian",
    "gauss": "gaussian",
    "cf": "cornish_fisher",
    "t": "student_t",
    "student": "student_t",
    "evt": "gpd",
    "u": "gaussian_unbiased",
    "unbiased": "gaussian_unbiased",
}
KDE_KERNELS = ("gaussian", "epanechnikov")


def canonical_method(tag: str) -> str:
    """Resolve a method tag or alias; unknown tags raise :class:`ConfigError`."""
    key = str(tag).strip().lower().replace("-", "_")
    if key in VAR_METHODS:
        return key
    if key in METHOD_ALIASES:
        return METHOD_ALIASES[key]
    valid = ", ".join(sorted(set(VAR_METHODS) | set(METHOD_ALIASES)))
    raise ConfigError(f"unknown method tag {tag!r}; valid tags: {valid}")


@dataclass(frozen=True)
class RiskEstimate:
    """One estimator's capital output."""

    measure: str  # "var" or "es"
    method: str
    alpha: float
    n: int
    capital: float

    def __post_init__(self):
        if self.measure not in ("var", "es"):
            raise ConfigError(f"measure must be 'var' or 'es', got {self.measure!r}")
        if not math.isfinite(self.capital):
            raise DataError(f"capital must be finite, got {self.capital!r}")


@dataclass(frozen=True)
class GaussianParams:
    """Mean and standard deviation of a Gaussian model."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise DataError("Gaussian parameters must be finite")
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class StudentTParams:
    """Location-scale Student-t parameters; ``nu`` > 2 so the variance exists."""

    mu: float
    sigma: float
    nu: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")
        if not self.nu > 2.0:
            raise DomainError(f"nu must exceed 2, got {self.nu!r}")


@dataclass(frozen=True)
class GpdFit:
    """Generalized Pareto fit of exceedances below threshold ``u``."""

    u: float
    xi: float
    beta: float
    k: int
    n: int

    def __post_init__(self):
        if self.beta <= 0.0:
            raise DomainError(f"beta must be positive, got {self.beta!r}")
        if not 0 <= self.k <= self.n:
            raise DomainError(f"exceedance count {self.k} outside [0, {self.n}]")


@dataclass(frozen=True)
class CornishFisherAdjustment:
    """Moment-adjusted standard quantile."""

    z_cf: float
    base_z: float
    skew: float
    excess_kurtosis: float


# ---------------------------------------------------------------------------
# vectorised window kernels
# ---------------------------------------------------------------------------


@dataclass
class WindowStats:
    """Per-row statistics of an (m, n) matrix of windows, computed once."""

    windows: np.ndarray
    sorted_rows: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    skews: np.ndarray | None = None
    kurts: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.windows.shape[1]

    def take(self, rows: slice) -> "WindowStats":
        """The statistics of a run of rows, as views of these."""
        return WindowStats(
            **{f.name: None if (a := getattr(self, f.name)) is None else a[rows] for f in fields(self)}
        )


def window_stats(windows: np.ndarray, with_shape: bool = False) -> WindowStats:
    """Sort each row and compute its moments. ``with_shape`` adds skew/kurtosis."""
    w = np.ascontiguousarray(np.asarray(windows, dtype=float))
    if w.ndim != 2 or w.shape[1] < 2:
        raise SizeError(f"windows must be (m, n>=2), got shape {w.shape}")
    means = w.mean(axis=1)
    sds = w.std(axis=1, ddof=1)
    ws = WindowStats(w, np.sort(w, axis=1), means, sds)
    if with_shape:
        ws.skews, ws.kurts = _shape_moments(w, means)
    return ws


def _shape_moments(windows, means):
    """Population skewness and excess kurtosis per row, underflow-safe.

    Rows whose spread is rounding noise get zero skew and kurtosis, as in
    :func:`sample_moments`.
    """
    centred = windows - means[:, None]
    m2 = np.mean(centred**2, axis=1)
    positive = ~is_rounding_noise(np.sqrt(m2), np.abs(windows).max(axis=1), windows.shape[1])
    zs = centred / np.sqrt(np.where(positive, m2, 1.0))[:, None]
    z2 = zs * zs  # products: float pow is about 30 times slower on these arrays
    skews = np.where(positive, np.mean(z2 * zs, axis=1), 0.0)
    kurts = np.where(positive, np.mean(z2 * z2, axis=1) - 3.0, 0.0)
    return skews, kurts


def _cf_z_values(z, skew, excess_kurtosis):
    """Fourth-order Cornish-Fisher adjustment; broadcasts over its arguments."""
    s = np.asarray(skew, dtype=float)
    k = np.asarray(excess_kurtosis, dtype=float)
    return (
        z
        + (z * z - 1.0) * s / 6.0
        + (z**3 - 3.0 * z) * k / 24.0
        - (2.0 * z**3 - 5.0 * z) * s * s / 36.0
    )


def _cf_tail_means(alpha: float, skew: np.ndarray, excess_kurtosis: np.ndarray) -> np.ndarray:
    """Mean of the Cornish-Fisher quantile over levels below ``alpha``, in closed form.

    With t standard normal truncated to t < z = Phi^{-1}(alpha) and phi = phi(z),
    the moments m1 = -phi/alpha, m2 = 1 - z*phi/alpha and m3 = -(z^2 + 2)*phi/alpha
    turn the tail average of the fourth-order expansion into a polynomial in
    the skew s and excess kurtosis k.
    """
    z = float(sc.ndtri(alpha))
    ratio = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / alpha
    m1 = -ratio
    m2 = 1.0 - z * ratio
    m3 = -(z * z + 2.0) * ratio
    return (
        m1
        + (m2 - 1.0) * skew / 6.0
        + (m3 - 3.0 * m1) * excess_kurtosis / 24.0
        - (2.0 * m3 - 5.0 * m1) * skew * skew / 36.0
    )


def _require_shape(ws: WindowStats) -> tuple[np.ndarray, np.ndarray]:
    if ws.skews is None or ws.kurts is None:
        ws.skews, ws.kurts = _shape_moments(ws.windows, ws.means)
    return ws.skews, ws.kurts


def _gpd_thresholds(ws: WindowStats, threshold, threshold_quantile) -> np.ndarray:
    if threshold is not None:
        return np.full(ws.windows.shape[0], float(threshold))
    return _type7_sorted_rows(ws.sorted_rows, float(threshold_quantile))


def _batch_gpd_fit(srt: np.ndarray, thresholds: np.ndarray):
    """PWM fit per ascending-sorted row. Returns (xi, beta, k) arrays.

    Probability-weighted moments are taken over exceedances y = u - x > 0 with
    survival plotting positions, which recovers xi = 0, beta = b for
    exponential(b) tails.
    """
    m = srt.shape[0]
    ks = (srt < thresholds[:, None]).sum(axis=1)
    if np.any(ks < 5):
        row = int(np.flatnonzero(ks < 5)[0])
        raise InsufficientTailError(
            f"window {row}: only {int(ks[row])} observations strictly below "
            f"threshold {thresholds[row]!r} (need 5)"
        )
    b0 = np.empty(m)
    b1 = np.empty(m)
    # rows with equal exceedance counts share one PWM evaluation, so a row's
    # fit does not depend on which other rows the matrix holds
    for k in np.unique(ks):
        rows = ks == k
        y = thresholds[rows, None] - srt[rows, :k]  # descending in y per row
        weights = np.arange(k, dtype=float) / (k - 1)
        b0[rows] = y.mean(axis=1)
        b1[rows] = (y * weights).sum(axis=1) / k
    denom = b0 - 2.0 * b1
    if np.any(denom <= 0.0):
        row = int(np.flatnonzero(denom <= 0.0)[0])
        raise DegenerateFitError(f"window {row}: PWM moments give b0 - 2*b1 <= 0")
    return 2.0 - b0 / denom, 2.0 * b0 * b1 / denom, ks


def _gpd_var_from_fit(thresholds, xi, beta, ks, n, alpha):
    ratio = alpha * n / ks
    if np.any(ratio > 1.0):
        row = int(np.flatnonzero(ratio > 1.0)[0])
        raise LevelTooHighError(
            f"window {row}: alpha*n/k = {float(ratio[row]):.6g} > 1; "
            "level lies above the empirical mass under the threshold"
        )
    small = np.abs(xi) < _XI_LOG_LIMIT
    xi_safe = np.where(small, 1.0, xi)
    power = -thresholds + beta / xi_safe * (ratio ** (-xi) - 1.0)
    log_limit = -thresholds + beta * np.log(ks / (alpha * n))
    return np.where(small, log_limit, power)


def gpd_var_capital(fit: "GpdFit", alpha) -> float:
    """VaR capital implied by a GPD fit: -u + beta/xi * ((alpha*n/k)^(-xi) - 1)."""
    alpha = RiskLevel(alpha)
    caps = _gpd_var_from_fit(
        np.array([fit.u]), np.array([fit.xi]), np.array([fit.beta]),
        np.array([float(fit.k)]), fit.n, float(alpha),
    )
    return float(caps[0])


def gpd_es_capital(fit: "GpdFit", var_empirical_capital: float) -> float:
    """ES capital implied by a GPD fit: VaR_emp/(1-xi) + (beta - xi*u)/(1-xi)."""
    if fit.xi >= 1.0:
        raise InfiniteMeanTailError(f"fitted shape {fit.xi:.6g} >= 1, tail mean infinite")
    return float(var_empirical_capital / (1.0 - fit.xi) + (fit.beta - fit.xi * fit.u) / (1.0 - fit.xi))


def _batch_var_student_t(ws: WindowStats, alpha: float) -> np.ndarray:
    caps = np.empty(ws.windows.shape[0])
    for i, row in enumerate(ws.windows):
        params = fit_student_t(row)
        tq = student_t_quantile(alpha, params.nu)
        caps[i] = -(params.mu + params.sigma * math.sqrt((params.nu - 2.0) / params.nu) * tq)
    return caps


def _batch_var_kde(ws: WindowStats, alpha, kernel, bandwidth) -> np.ndarray:
    caps = np.empty(ws.windows.shape[0])
    for i, row in enumerate(ws.windows):
        caps[i] = _kde_var_capital(row, alpha, kernel, bandwidth)
    return caps


def batch_var_capitals(
    method: str,
    ws: WindowStats,
    alpha: float,
    *,
    gpd_threshold=None,
    gpd_threshold_quantile=DEFAULT_GPD_THRESHOLD_QUANTILE,
    kde_kernel="gaussian",
    kde_bandwidth=None,
) -> np.ndarray:
    """VaR capital per window row for one canonical method tag."""
    alpha = RiskLevel(alpha)
    n = ws.n
    if method == "empirical":
        return -_type7_sorted_rows(ws.sorted_rows, alpha)
    if method == "empirical_simple":
        idx = int(math.floor(n * alpha)) + 1
        if idx > n:
            raise DomainError(
                f"empirical_simple needs floor(n*alpha)+1 <= n, got index {idx} for n={n}"
            )
        return -ws.sorted_rows[:, idx - 1].astype(float, copy=True)
    if method == "gaussian":
        return -(ws.means + ws.sds * sc.ndtri(alpha))
    if method == "gaussian_unbiased":
        factor = math.sqrt((n + 1) / n) * student_t_quantile(alpha, n - 1)
        return -(ws.means + ws.sds * factor)
    if method == "cornish_fisher":
        if n < 4:
            raise SizeError(f"cornish_fisher needs n >= 4, got {n}")
        skews, kurts = _require_shape(ws)
        z = sc.ndtri(alpha)
        return -(ws.means + ws.sds * _cf_z_values(z, skews, kurts))
    if method == "student_t":
        return _batch_var_student_t(ws, alpha)
    if method == "gpd":
        thresholds = _gpd_thresholds(ws, gpd_threshold, gpd_threshold_quantile)
        xi, beta, ks = _batch_gpd_fit(ws.sorted_rows, thresholds)
        return _gpd_var_from_fit(thresholds, xi, beta, ks, n, alpha)
    if method == "kde":
        return _batch_var_kde(ws, alpha, kde_kernel, kde_bandwidth)
    if method == "mean":
        return -ws.means.copy()
    raise ConfigError(f"unknown method tag {method!r}")


def batch_es_capitals(
    method: str,
    ws: WindowStats,
    alpha: float,
    *,
    gpd_threshold=None,
    gpd_threshold_quantile=DEFAULT_GPD_THRESHOLD_QUANTILE,
    table=None,
) -> np.ndarray:
    """Expected Shortfall capital per window row for one canonical method tag."""
    alpha = RiskLevel(alpha)
    n = ws.n
    if method == "empirical":
        quantiles = _type7_sorted_rows(ws.sorted_rows, alpha)
        counts = (ws.sorted_rows < quantiles[:, None]).sum(axis=1)
        if np.any(counts == 0):
            row = int(np.flatnonzero(counts == 0)[0])
            raise EmptyTailError(f"window {row}: no observation below the empirical VaR")
        sums = np.take_along_axis(
            np.cumsum(ws.sorted_rows, axis=1), counts[:, None] - 1, axis=1
        )[:, 0]
        return -sums / counts
    if method == "gaussian":
        z = sc.ndtri(alpha)
        return -ws.means + ws.sds * (np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)) / alpha
    if method == "cornish_fisher":
        if n < 4:
            raise SizeError(f"cornish_fisher needs n >= 4, got {n}")
        skews, kurts = _require_shape(ws)
        return -(ws.means + ws.sds * _cf_tail_means(alpha, skews, kurts))
    if method == "gpd":
        thresholds = _gpd_thresholds(ws, gpd_threshold, gpd_threshold_quantile)
        xi, beta, ks = _batch_gpd_fit(ws.sorted_rows, thresholds)
        if np.any(xi >= 1.0):
            row = int(np.flatnonzero(xi >= 1.0)[0])
            raise InfiniteMeanTailError(
                f"window {row}: fitted shape {float(xi[row]):.6g} >= 1, tail mean infinite"
            )
        var_emp = -_type7_sorted_rows(ws.sorted_rows, alpha)
        return var_emp / (1.0 - xi) + (beta - xi * thresholds) / (1.0 - xi)
    if method == "gaussian_unbiased":
        if table is None:
            raise CalibrationMissingError(
                f"no calibration table supplied for unbiased ES at (n={n}, alpha={float(alpha)})"
            )
        entry = table.lookup(n, alpha)
        return -ws.means - ws.sds * entry.a_n
    if method == "mean":
        return -ws.means.copy()
    raise ConfigError(f"method {method!r} has no Expected Shortfall form")


# ---------------------------------------------------------------------------
# scalar estimators
# ---------------------------------------------------------------------------


def _single(method, x, alpha, min_n, measure="var", **kwargs) -> RiskEstimate:
    arr = as_sample(x, min_n, method)
    ws = window_stats(arr[None, :], with_shape=method == "cornish_fisher")
    if measure == "var":
        cap = batch_var_capitals(method, ws, alpha, **kwargs)[0]
    else:
        cap = batch_es_capitals(method, ws, alpha, **kwargs)[0]
    return RiskEstimate(measure, method, float(RiskLevel(alpha)), arr.size, float(cap))


def var_empirical(x, alpha) -> RiskEstimate:
    """Negative type-7 sample quantile (the R/S default, h = alpha*(n-1)+1)."""
    return _single("empirical", x, alpha, 2)


def var_empirical_simple(x, alpha) -> RiskEstimate:
    """Negative of the (floor(n*alpha)+1)-th ascending order statistic."""
    arr = as_sample(x, 1, "empirical_simple")
    alpha = RiskLevel(alpha)
    idx = int(math.floor(arr.size * alpha)) + 1
    if idx > arr.size:
        raise DomainError(
            f"empirical_simple needs floor(n*alpha)+1 <= n, got index {idx} for n={arr.size}"
        )
    cap = -float(np.sort(arr)[idx - 1])
    return RiskEstimate("var", "empirical_simple", float(alpha), arr.size, cap)


def var_gaussian(x, alpha) -> RiskEstimate:
    """Gaussian plug-in: capital = -(mean + sd * Phi^{-1}(alpha))."""
    return _single("gaussian", x, alpha, 2)


def var_gaussian_unbiased(x, alpha) -> RiskEstimate:
    """Gaussian unbiased VaR: -(mean + sd * sqrt((n+1)/n) * t_{n-1}^{-1}(alpha)).

    The Student-t quantile and the sqrt((n+1)/n) inflation absorb the
    estimation error of mean and sd, making the exceedance probability of the
    secured position exactly alpha under Gaussian data.
    """
    return _single("gaussian_unbiased", x, alpha, 2)


def cornish_fisher_z(alpha, skew, excess_kurtosis) -> CornishFisherAdjustment:
    """Fourth-order Cornish-Fisher adjustment of the Gaussian alpha-quantile."""
    alpha = RiskLevel(alpha)
    z = float(sc.ndtri(alpha))
    z_cf = float(_cf_z_values(z, float(skew), float(excess_kurtosis)))
    return CornishFisherAdjustment(z_cf, z, float(skew), float(excess_kurtosis))


def var_cornish_fisher(x, alpha) -> RiskEstimate:
    """Moment-corrected Gaussian VaR via the Cornish-Fisher quantile."""
    return _single("cornish_fisher", x, alpha, 4)


def fit_student_t(x) -> StudentTParams:
    """Moment-matched location/scale with profile-likelihood degrees of freedom.

    ``mu`` and ``sigma`` are the sample mean and sd; ``nu`` maximises the
    location-scale t likelihood on (2, 200]. Gaussian-looking data pushes
    ``nu`` to the upper bound.
    """
    arr = as_sample(x, 10, "fit_student_t")
    ms = sample_moments(arr)
    if ms.sd == 0.0:
        raise DataError("fit_student_t needs a sample with positive spread")
    z = (arr - ms.mean) / ms.sd

    def negative_profile_ll(nu):
        scale = math.sqrt((nu - 2.0) / nu)
        return -(stats.t.logpdf(z / scale, nu).sum() - arr.size * math.log(scale))

    res = optimize.minimize_scalar(
        negative_profile_ll,
        bounds=(2.0 + 1e-6, _STUDENT_NU_MAX),
        method="bounded",
        options={"xatol": 1e-6},
    )
    nu = float(res.x)
    if nu > _STUDENT_NU_MAX - 1e-3:
        nu = _STUDENT_NU_MAX
    params = StudentTParams(ms.mean, ms.sd, nu)
    if not res.success:
        raise EstimationError(f"profile likelihood search failed: {res.message}", best=params)
    return params


def student_t_var_capital(params: StudentTParams, alpha) -> float:
    """VaR capital for fitted t parameters: -(mu + sigma*sqrt((nu-2)/nu)*t_nu^{-1}(alpha))."""
    alpha = RiskLevel(alpha)
    tq = student_t_quantile(alpha, params.nu)
    return float(-(params.mu + params.sigma * math.sqrt((params.nu - 2.0) / params.nu) * tq))


def var_student_t(x, alpha) -> RiskEstimate:
    """Student-t plug-in: -(mu + sigma * sqrt((nu-2)/nu) * t_nu^{-1}(alpha))."""
    arr = as_sample(x, 10, "student_t")
    alpha = RiskLevel(alpha)
    cap = student_t_var_capital(fit_student_t(arr), alpha)
    return RiskEstimate("var", "student_t", float(alpha), arr.size, float(cap))


def fit_gpd_pwm(x, u) -> GpdFit:
    """Probability-weighted-moments GPD fit of exceedances below ``u``.

    Exceedances are y = u - x for the observations strictly below the
    threshold; at least 5 are required.
    """
    arr = as_sample(x, 1, "fit_gpd_pwm")
    u = float(u)
    if not math.isfinite(u):
        raise DomainError(f"threshold must be finite, got {u!r}")
    srt = np.sort(arr)
    xi, beta, ks = _batch_gpd_fit(srt[None, :], np.array([u]))
    return GpdFit(u, float(xi[0]), float(beta[0]), int(ks[0]), arr.size)


def var_gpd(x, alpha, u=None, threshold_quantile=DEFAULT_GPD_THRESHOLD_QUANTILE) -> RiskEstimate:
    """Peaks-over-threshold VaR from the PWM Generalized Pareto tail fit.

    The default threshold is the 0.3 type-7 quantile of the returns, i.e. the
    0.7 quantile of losses. Shapes below 1e-6 in magnitude switch to the
    exponential (log) limit of the quantile formula.
    """
    return _single("gpd", x, alpha, 2, gpd_threshold=u, gpd_threshold_quantile=threshold_quantile)


def var_kde(x, alpha, kernel="gaussian", bandwidth=None) -> RiskEstimate:
    """Quantile of a kernel density estimate, solved on the exact kernel CDF.

    The default bandwidth 1.06 * sd * n^{-1/5} needs n >= 10; an explicit
    bandwidth admits any non-empty sample.
    """
    arr = as_sample(x, 1 if bandwidth is not None else 10, "kde")
    alpha = RiskLevel(alpha)
    cap = _kde_var_capital(arr, alpha, kernel, bandwidth)
    return RiskEstimate("var", "kde", float(alpha), arr.size, float(cap))


def _kde_var_capital(arr, alpha, kernel, bandwidth) -> float:
    if kernel not in KDE_KERNELS:
        raise ConfigError(f"unknown kernel {kernel!r}; valid kernels: {', '.join(KDE_KERNELS)}")
    if bandwidth is None:
        if arr.size < 10:
            raise SizeError(f"kde default bandwidth needs n >= 10, got {arr.size}")
        sd = float(np.std(arr, ddof=1))
        if is_rounding_noise(sd, np.abs(arr).max(), arr.size):
            raise DataError("kde default bandwidth needs a sample with positive spread")
        h = 1.06 * sd * arr.size ** (-0.2)
    else:
        h = float(bandwidth)
        if not (math.isfinite(h) and h > 0.0):
            raise DomainError(f"bandwidth must be positive, got {bandwidth!r}")

    if kernel == "gaussian":
        def mixture_cdf(q):
            return float(np.mean(sc.ndtr((q - arr) / h)))

        z = float(sc.ndtri(alpha))
        lo = float(arr.min()) + h * min(z, 0.0)
        hi = float(arr.max()) + h * max(z, 0.0)
    else:
        def mixture_cdf(q):
            t = np.clip((q - arr) / h, -1.0, 1.0)
            return float(np.mean((2.0 + 3.0 * t - t**3) / 4.0))

        lo = float(arr.min()) - h
        hi = float(arr.max()) + h

    # bisection on the analytic mixture CDF; driven past the 1e-10 probability
    # tolerance down to a ~1e-12 bracket so equivariance holds to 1e-10. Ties
    # (F == alpha on a numerically flat stretch) resolve upward, which matches
    # the sample-quantile limit as the bandwidth vanishes.
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = mixture_cdf(mid)
        if abs(f - alpha) <= 1e-10 and (hi - lo) <= 1e-12 * max(1.0, abs(lo), abs(hi)):
            break
        if (hi - lo) <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
        if f <= alpha:
            lo = mid
        else:
            hi = mid
    return -mid


def es_empirical(x, alpha) -> RiskEstimate:
    """Average loss beyond the empirical VaR (negated tail mean)."""
    return _single("empirical", x, alpha, 2, measure="es")


def es_gaussian(x, alpha) -> RiskEstimate:
    """Gaussian plug-in ES: -mean + sd * phi(Phi^{-1}(alpha)) / alpha."""
    return _single("gaussian", x, alpha, 2, measure="es")


def es_cornish_fisher(x, alpha) -> RiskEstimate:
    """Tail average of the Cornish-Fisher quantile over levels below ``alpha``.

    The average is exact (truncated-normal moments); with zero skew and excess
    kurtosis it is the Gaussian ES constant.
    """
    return _single("cornish_fisher", x, alpha, 4, measure="es")


def es_gpd(x, alpha, u=None, threshold_quantile=DEFAULT_GPD_THRESHOLD_QUANTILE) -> RiskEstimate:
    """GPD tail ES: VaR_emp/(1-xi) + (beta - xi*u)/(1-xi); needs xi < 1."""
    return _single(
        "gpd", x, alpha, 2, measure="es", gpd_threshold=u, gpd_threshold_quantile=threshold_quantile
    )


def es_gaussian_unbiased(x, alpha, table) -> RiskEstimate:
    """Unbiased Gaussian ES: -mean - sd * a_n with a_n < 0 from the table.

    ``table`` must hold a calibration entry for (len(x), alpha); otherwise a
    :class:`CalibrationMissingError` is raised.
    """
    return _single("gaussian_unbiased", x, alpha, 2, measure="es", table=table)


def mean_estimator(x) -> RiskEstimate:
    """Negative sample mean; unbiased for the expectation-based risk measure."""
    arr = as_sample(x, 1, "mean")
    # level is irrelevant for the mean functional; recorded as 0.5 for the tag
    return RiskEstimate("var", "mean", 0.5, arr.size, -float(arr.mean()))


# convenient dispatch used by the CLI
VAR_FUNCTIONS = {
    "empirical": var_empirical,
    "empirical_simple": var_empirical_simple,
    "gaussian": var_gaussian,
    "cornish_fisher": var_cornish_fisher,
    "student_t": var_student_t,
    "gpd": var_gpd,
    "kde": var_kde,
    "gaussian_unbiased": var_gaussian_unbiased,
    "mean": lambda x, alpha: mean_estimator(x),
}
