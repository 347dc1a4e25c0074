"""Value-at-Risk and Expected Shortfall estimators.

Every estimator maps a return sample and a level ``alpha`` to a positive
capital requirement: the amount of cash that makes the position acceptable.
Exceedances are always the event ``outcome + capital < 0``.

Each formula exists once, as an array kernel over the rows of a matrix of
rolling windows summarised by :func:`window_stats`; the fitted methods
(Student-t, KDE) fit every row at once. The backtester and the Monte Carlo
checks call the kernels through :func:`batch_var_capitals` and
:func:`batch_es_capitals`. A scalar estimate, ``estimate(tag, x, alpha,
measure, **options)``, is a batch of one row returned as a :class:`RiskEstimate`,
and :func:`sample_moments` is one row of :func:`window_stats`. No row's result
depends on the other rows of its batch.

:data:`METHODS` is the one place to add an estimator. It maps each canonical
tag to its kernels, minimum sample size, aliases and location-scale flag; tag
resolution, the size and form checks, the Monte Carlo checks and the CLI read it.

The unbiased Gaussian ES kernel needs the constant ``a_n``, which
:func:`exact_unbiased_es_constant` computes by quadrature and caches, so every
entry point works without a calibration table. A table passed as ``table=``
only matters where it stores its own entry for (n, alpha).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np
import scipy.special as sc
from scipy import optimize

from .errors import (
    CalibrationFailureError,
    ConfigError,
    DataError,
    DegenerateFitError,
    DomainError,
    EmptyTailError,
    InfiniteMeanTailError,
    InsufficientTailError,
    LevelTooHighError,
    SizeError,
)
from .stats_core import (
    _overflow_shift,
    _type7_sorted_rows,
    as_sample,
    is_rounding_noise,
    student_t_quantile,
)

DEFAULT_GPD_THRESHOLD_QUANTILE = 0.3
_XI_LOG_LIMIT = 1e-6
_STUDENT_NU_MAX = 200.0
CALIBRATION_SOURCES = ("monte_carlo", "quadrature")
_MAX_DOUBLINGS = 60
_QUADRATURE_NODES = 64
_MAX_QUADRATURE_NODES = 4096
_QUADRATURE_RTOL = 1e-10
_CHI_TAIL_MASS = 1e-18
_ROOT_XTOL = 1e-300  # brentq then stops on rtol alone; roots span 1e-7 to 1e6
_ROOT_RTOL = 4.0 * np.finfo(float).eps


class RiskLevel(float):
    """Probability level in the open interval (0, 1)."""

    def __new__(cls, alpha):
        value = float(alpha)
        if not (math.isfinite(value) and 0.0 < value < 1.0):
            raise DomainError(f"risk level must lie in (0, 1), got {alpha!r}")
        return super().__new__(cls, value)


KDE_KERNELS = ("gaussian", "epanechnikov")


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


@dataclass(frozen=True)
class CalibrationEntry:
    """Solution (a_n, b_n) of the unbiased-ES condition for one (n, alpha).

    ``source`` is ``"quadrature"`` for the exact constant, whose ``mc_samples``
    and ``seed`` are None, or ``"monte_carlo"`` for a bisection on a seeded
    sample. ``residual`` is |ES_alpha(Z + b_n V_n)| at the returned root under
    the rule that produced it.
    """

    n: int
    alpha: float
    b_n: float
    a_n: float
    mc_samples: int | None
    seed: int | None
    residual: float
    source: str = "monte_carlo"

    def __post_init__(self):
        if self.b_n <= 0.0:
            raise DomainError(f"b_n must be positive, got {self.b_n!r}")
        if self.a_n >= 0.0:
            raise DomainError(f"a_n must be negative, got {self.a_n!r}")
        slack = self.a_n * math.sqrt(self.n / ((self.n - 1) * (self.n + 1))) + self.b_n
        if abs(slack) > 1e-12 * max(1.0, self.b_n):
            raise DataError(f"a_n and b_n are inconsistent (slack {slack:.3e})")
        if not (math.isfinite(self.residual) and self.residual >= 0.0):
            raise DataError(f"residual must be a non-negative real, got {self.residual!r}")
        if self.source not in CALIBRATION_SOURCES:
            raise DataError(
                f"unknown calibration source {self.source!r}; "
                f"expected one of {', '.join(CALIBRATION_SOURCES)}"
            )


# ---------------------------------------------------------------------------
# vectorised window kernels
# ---------------------------------------------------------------------------


@dataclass
class WindowStats:
    """Per-row statistics of an (m, n) matrix of windows, computed once.

    A moments-only instance has no windows or sorted rows, and its ``n`` is given:
    only the location-scale kernels (see :class:`Method`) can read it.
    """

    windows: np.ndarray | None
    sorted_rows: np.ndarray | None
    means: np.ndarray
    sds: np.ndarray
    n: int
    skews: np.ndarray | None = None
    kurts: np.ndarray | None = None

    @property
    def max_abs(self) -> np.ndarray:
        """Largest |x| per row, read off the ends of the sorted rows."""
        return np.maximum(np.abs(self.sorted_rows[:, 0]), np.abs(self.sorted_rows[:, -1]))

    def take(self, rows: slice) -> "WindowStats":
        """The statistics of a run of rows, as views of these; ``n`` and absent arrays carry over."""
        values = (getattr(self, f.name) for f in fields(self))
        return WindowStats(*(a[rows] if isinstance(a, np.ndarray) else a for a in values))


def window_stats(windows: np.ndarray, with_shape: bool = False) -> WindowStats:
    """Sort each row and compute its mean and sd (divisor n-1).

    A constant row's mean is that constant, which a sum can round one ulp off.
    An sd whose population spread :func:`is_rounding_noise` judges to be noise
    is zero, and rows whose squares could overflow are scaled by a power of two
    first. The skew and kurtosis that Cornish-Fisher needs are filled on first
    use; ``with_shape`` computes them now. A one-column matrix has NaN sds.
    """
    w = np.ascontiguousarray(np.asarray(windows, dtype=float))
    if w.ndim != 2 or w.shape[1] < 1:
        raise SizeError(f"windows must be (m, n>=1), got shape {w.shape}")
    m, n = w.shape
    ws = WindowStats(w, np.sort(w, axis=1), None, None, n)
    max_abs = ws.max_abs
    shift = _overflow_shift(max_abs, n)
    scaled = np.ldexp(w, -shift[:, None]) if shift.any() else w
    lo, hi = ws.sorted_rows[:, 0], ws.sorted_rows[:, -1]
    ws.means = np.where(lo == hi, lo, np.ldexp(scaled.mean(axis=1), shift))
    sds = np.ldexp(scaled.std(axis=1, ddof=1), shift) if n > 1 else np.full(m, np.nan)
    ws.sds = np.where(is_rounding_noise(sds * math.sqrt((n - 1) / n), max_abs, n), 0.0, sds)
    if with_shape:
        _require_shape(ws)
    return ws


def _shape_moments(ws: WindowStats):
    """Population skewness and excess kurtosis per row, underflow- and overflow-safe.

    Rows whose spread is rounding noise get zero skew and kurtosis, so that
    moment adjustments vanish on constant data.
    """
    max_abs = ws.max_abs
    shift = _overflow_shift(max_abs, ws.n)
    windows = np.ldexp(ws.windows, -shift[:, None]) if shift.any() else ws.windows
    centred = windows - np.ldexp(ws.means, -shift)[:, None]
    m2 = np.mean(centred**2, axis=1)
    positive = ~is_rounding_noise(np.sqrt(m2), np.ldexp(max_abs, -shift), ws.n)
    zs = centred / np.sqrt(np.where(positive, m2, 1.0))[:, None]
    z2 = zs * zs  # products: float pow is about 30 times slower on these arrays
    skews = np.where(positive, np.mean(z2 * zs, axis=1), 0.0)
    kurts = np.where(positive, np.mean(z2 * z2, axis=1) - 3.0, 0.0)
    return skews, kurts


def _require_shape(ws: WindowStats) -> tuple[np.ndarray, np.ndarray]:
    if ws.skews is None or ws.kurts is None:
        ws.skews, ws.kurts = _shape_moments(ws)
    return ws.skews, ws.kurts


@dataclass(frozen=True)
class MomentSummary:
    """First four sample moments.

    ``sd`` uses divisor n-1; skewness and excess kurtosis use population
    central moments (divisor n). ``kurtosis_small_sample`` flags n < 4 where
    the fourth moment carries no information.
    """

    n: int
    mean: float
    sd: float
    skewness: float
    excess_kurtosis: float
    kurtosis_small_sample: bool = False


def sample_moments(x) -> MomentSummary:
    """Mean, sd (divisor n-1) and population skewness / excess kurtosis.

    These are the one row of :func:`window_stats` with ``with_shape``, so a
    spread that is rounding noise gives zero sd, skewness and excess kurtosis.
    """
    arr = as_sample(x, 2, "sample_moments")
    ws = window_stats(arr[None, :], with_shape=True)
    return MomentSummary(
        arr.size, float(ws.means[0]), float(ws.sds[0]), float(ws.skews[0]), float(ws.kurts[0]),
        kurtosis_small_sample=arr.size < 4,
    )


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
            f"threshold {float(thresholds[row])!r} (need 5)"
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


def _gpd_fit_rows(
    ws: WindowStats, gpd_threshold=None, gpd_threshold_quantile=DEFAULT_GPD_THRESHOLD_QUANTILE, **_
):
    """Thresholds (by default each row's 0.3 type-7 quantile) and PWM fit (xi, beta, k)."""
    if gpd_threshold is not None:
        thresholds = np.full(ws.windows.shape[0], float(gpd_threshold))
    else:
        thresholds = _type7_sorted_rows(ws.sorted_rows, float(gpd_threshold_quantile))
    return (thresholds, *_batch_gpd_fit(ws.sorted_rows, thresholds))


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


def _gpd_es_from_fit(thresholds, xi, beta, var_emp):
    if np.any(xi >= 1.0):
        row = int(np.flatnonzero(xi >= 1.0)[0])
        raise InfiniteMeanTailError(
            f"window {row}: fitted shape {float(xi[row]):.6g} >= 1, tail mean infinite"
        )
    # the tail formula reads the loss threshold, -u
    return var_emp / (1.0 - xi) + (beta + xi * thresholds) / (1.0 - xi)


def gpd_var_capital(fit: "GpdFit", alpha) -> float:
    """VaR capital implied by a GPD fit: -u + beta/xi * ((alpha*n/k)^(-xi) - 1)."""
    u, xi, beta, k = np.array([[fit.u], [fit.xi], [fit.beta], [fit.k]], dtype=float)
    return float(_gpd_var_from_fit(u, xi, beta, k, fit.n, RiskLevel(alpha))[0])


def gpd_es_capital(fit: "GpdFit", var_empirical_capital: float) -> float:
    """ES capital implied by a GPD fit: VaR_emp/(1-xi) + (beta + xi*u)/(1-xi).

    ``u`` is a threshold on returns; the tail formula's loss threshold is ``-u``.
    """
    args = np.array([[fit.u], [fit.xi], [fit.beta], [var_empirical_capital]], dtype=float)
    return float(_gpd_es_from_fit(*args)[0])


# ---------------------------------------------------------------------------
# the exact unbiased ES constant
# ---------------------------------------------------------------------------


def _log_chi_rule(k: int, nodes: int):
    """Nodes ``v`` and normalised weights ``w`` with E[h(V)] ~ w @ h(v), V ~ chi_k.

    Gauss-Legendre in s = log v over the range holding all but 2e-18 of the
    chi_k mass. In log space the tail integrands Phi(q - b*v) switch over a
    width of order one whatever the size of b, so large roots at small n
    (b_2 ~ 7.5e5 at alpha = 1e-6) need no special treatment. The density is
    formed in log space, so large k cannot overflow.
    """
    s_lo = 0.5 * math.log(2.0 * sc.gammaincinv(0.5 * k, _CHI_TAIL_MASS))
    s_hi = 0.5 * math.log(2.0 * sc.gammainccinv(0.5 * k, _CHI_TAIL_MASS))
    x, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (s_hi - s_lo) * x + 0.5 * (s_hi + s_lo)
    v = np.exp(s)
    log_density = k * s - 0.5 * v * v  # density of log V up to a constant
    weights = w * np.exp(log_density - log_density.max())
    return v, weights / weights.sum()


def _pivot_es(b: float, alpha: float, v: np.ndarray, w: np.ndarray) -> float:
    """ES_alpha(Z + b*V) under the rule (v, w): -E[Y * 1{Y < q}] / alpha."""
    z_alpha = float(sc.ndtri(alpha))

    def excess_mass(q):
        return float(w @ sc.ndtr(q - b * v)) - alpha

    # every V in the rule lies in [v[0], v[-1]], which brackets the quantile
    q = optimize.brentq(
        excess_mass, z_alpha + b * v[0] - 1.0, z_alpha + b * v[-1] + 1.0,
        xtol=_ROOT_XTOL, rtol=_ROOT_RTOL,
    )
    u = q - b * v
    tail = float(w @ (b * v * sc.ndtr(u) - np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)))
    return -tail / alpha


def _quadrature_root(n: int, alpha: float, nodes: int) -> tuple[float, float]:
    """Root b of ES_alpha(Z + b V_n) = 0 under a ``nodes``-point rule, and |ES| there."""
    v, w = _log_chi_rule(n - 1, nodes)

    def g(b):
        return _pivot_es(b, alpha, v, w)

    # ES(Z) = phi(z_alpha)/alpha > 0 at b = 0, and ES(Z + bV) falls with b
    hi = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if g(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise CalibrationFailureError(
            f"could not bracket the root within {_MAX_DOUBLINGS} doublings"
        )
    b = optimize.brentq(g, 0.0, hi, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL)
    return b, abs(g(b))


def exact_unbiased_es_constant(n: int, alpha) -> CalibrationEntry:
    """Deterministic a_n (and b_n) with ES_alpha(Z + b_n V_n) = 0, by quadrature.

    Z is standard normal, V_n is chi_{n-1} and ``a_n = -b_n * sqrt((n-1)(n+1)/n)``.
    With Y = Z + b*V the condition reduces to one-dimensional integrals over V,

        P(Y < q) = E[Phi(q - b*V)],
        E[Y * 1{Y < q}] = E[b*V * Phi(q - b*V) - phi(q - b*V)],

    evaluated by Gauss-Legendre quadrature in log V. The root is solved with a 64-node rule, then with doubled node counts
    until two successive values of a_n agree to 1e-10 relative; the finer one
    is returned. If 4096 nodes do not converge, or the numerics break down at
    an extreme level, :class:`CalibrationFailureError` is raised. Results are
    cached per (n, alpha).
    """
    n = int(n)
    if n < 2:
        raise SizeError(f"calibration needs window size n >= 2, got {n}")
    return _exact_entry(n, float(RiskLevel(alpha)))


@functools.lru_cache(maxsize=256)
def _exact_entry(n: int, alpha: float) -> CalibrationEntry:
    scale = math.sqrt((n - 1) * (n + 1) / n)
    nodes = _QUADRATURE_NODES
    try:
        b_prev, _ = _quadrature_root(n, alpha, nodes)
        while nodes < _MAX_QUADRATURE_NODES:
            nodes *= 2
            b, residual = _quadrature_root(n, alpha, nodes)
            if abs(b - b_prev) <= _QUADRATURE_RTOL * b:
                return CalibrationEntry(
                    n=n,
                    alpha=alpha,
                    b_n=float(b),
                    a_n=float(-b * scale),
                    mc_samples=None,
                    seed=None,
                    residual=float(residual),
                    source="quadrature",
                )
            b_prev = b
    except (ValueError, RuntimeError) as exc:  # brentq: lost bracket or no convergence
        raise CalibrationFailureError(
            f"quadrature breaks down at (n={n}, alpha={alpha:.6g}): {exc}"
        ) from None
    raise CalibrationFailureError(
        f"quadrature for (n={n}, alpha={alpha:.6g}) did not converge "
        f"within {_MAX_QUADRATURE_NODES} nodes"
    )


# ---------------------------------------------------------------------------
# the Student-t profile likelihood
# ---------------------------------------------------------------------------


_T_NU_GRID = 2.0 + np.geomspace(1e-6, _STUDENT_NU_MAX - 2.0, 48)
# a fixed count, so that no row's nu depends on the rows fitted beside it: enough
# halvings to shrink the widest starting bracket, two grid cells, below 1e-6
_T_BISECTIONS = math.ceil(math.log2((_T_NU_GRID[-1] - _T_NU_GRID[-3]) / 1e-6))


def _t_loglik(z2: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Profile log-likelihood, up to a constant, of each row of squared z-scores at its ``nu``.

    The t scale sd*sqrt((nu-2)/nu) matches the sample variance. ``betaln`` keeps the gamma
    ratio to a few ulps, where a difference of two ``gammaln`` loses two digits near nu = 200.
    """
    lead = -sc.betaln(0.5 * nu, 0.5) - 0.5 * np.log(nu - 2.0)
    return z2.shape[1] * lead - 0.5 * (nu + 1.0) * np.log1p(z2 / (nu - 2.0)[:, None]).sum(axis=1)


def _t_score(z2: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Twice the derivative of :func:`_t_loglik` in ``nu``."""
    q = z2 / (nu - 2.0)[:, None]
    lead = sc.psi(0.5 * (nu + 1.0)) - sc.psi(0.5 * nu) - 1.0 / (nu - 2.0)
    tail = (nu + 1.0) / (nu - 2.0) * (q / (1.0 + q)).sum(axis=1) - np.log1p(q).sum(axis=1)
    return z2.shape[1] * lead + tail


def _t_nu(ws: WindowStats) -> np.ndarray:
    """Profile-likelihood nu of every row: the grid's best point, then bisection on the score.

    The score's sign is decided by rounding only within ~1e-12 of its root, where a
    comparison of two likelihoods near the flat top is decided by rounding over ~1e-5.
    """
    if np.any(ws.sds == 0.0):
        row = int(np.flatnonzero(ws.sds == 0.0)[0])
        raise DataError(f"window {row}: fit_student_t needs a sample with positive spread")
    z2 = ((ws.windows - ws.means[:, None]) / ws.sds[:, None]) ** 2
    m = z2.shape[0]
    best, best_ll = np.zeros(m, dtype=int), np.full(m, -np.inf)
    for k, nu in enumerate(_T_NU_GRID):
        ll = _t_loglik(z2, np.full(m, nu))
        best, best_ll = np.where(ll > best_ll, k, best), np.maximum(ll, best_ll)
    a = _T_NU_GRID[np.maximum(best - 1, 0)]
    b = _T_NU_GRID[np.minimum(best + 1, _T_NU_GRID.size - 1)]
    for _ in range(_T_BISECTIONS):
        mid = 0.5 * (a + b)
        rising = _t_score(z2, mid) > 0.0
        a, b = np.where(rising, mid, a), np.where(rising, b, mid)
    nu = 0.5 * (a + b)
    return np.where(nu > _STUDENT_NU_MAX - 1e-3, _STUDENT_NU_MAX, nu)


def _t_capital(mu, sigma, nu, alpha):
    """-(mu + sigma*sqrt((nu-2)/nu)*t_nu^{-1}(alpha)); broadcasts over its arguments."""
    return -(mu + sigma * np.sqrt((nu - 2.0) / nu) * sc.stdtrit(nu, alpha))


# ---------------------------------------------------------------------------
# kernels: (WindowStats, alpha, **options) -> one capital per row
# ---------------------------------------------------------------------------


def _var_empirical(ws, alpha, **_):
    """Negative type-7 sample quantile (the R/S default, h = alpha*(n-1)+1)."""
    return -_type7_sorted_rows(ws.sorted_rows, alpha)


def _var_empirical_simple(ws, alpha, **_):
    """Negative (floor(n*alpha)+1)-th order statistic; the index is below n for any alpha."""
    return -ws.sorted_rows[:, int(math.floor(ws.n * alpha))]


def _var_gaussian(ws, alpha, **_):
    """Gaussian plug-in: -(mean + sd * Phi^{-1}(alpha))."""
    return -(ws.means + ws.sds * sc.ndtri(alpha))


def _var_unbiased(ws, alpha, **_):
    """Gaussian unbiased VaR: -(mean + sd * sqrt((n+1)/n) * t_{n-1}^{-1}(alpha)).

    The Student-t quantile and the sqrt((n+1)/n) inflation absorb the
    estimation error of mean and sd, making the exceedance probability of the
    secured position exactly alpha under Gaussian data.
    """
    factor = math.sqrt((ws.n + 1) / ws.n) * student_t_quantile(alpha, ws.n - 1)
    return -(ws.means + ws.sds * factor)


def _var_cornish_fisher(ws, alpha, **_):
    """Moment-corrected Gaussian VaR at the Cornish-Fisher quantile."""
    skews, kurts = _require_shape(ws)
    return -(ws.means + ws.sds * _cf_z_values(sc.ndtri(alpha), skews, kurts))


def _var_student_t(ws, alpha, **_):
    """Student-t plug-in (:func:`_t_capital`) at the profile-likelihood nu of every row."""
    return _t_capital(ws.means, ws.sds, fit_student_t(ws), alpha)


def _var_gpd(ws, alpha, **options):
    """Peaks-over-threshold VaR of the PWM tail fit; |xi| < 1e-6 takes the log limit."""
    thresholds, xi, beta, ks = _gpd_fit_rows(ws, **options)
    return _gpd_var_from_fit(thresholds, xi, beta, ks, ws.n, alpha)


def _var_kde(ws, alpha, kde_kernel="gaussian", kde_bandwidth=None, **_):
    """KDE quantile on the exact kernel CDF; the default bandwidth is 1.06*sd*n^(-1/5)."""
    if kde_kernel not in KDE_KERNELS:
        raise ConfigError(f"unknown kernel {kde_kernel!r}; valid kernels: {', '.join(KDE_KERNELS)}")
    m = ws.windows.shape[0]
    if kde_bandwidth is None:
        if ws.n < 10:
            raise SizeError(f"kde default bandwidth needs n >= 10, got {ws.n}")
        if np.any(ws.sds == 0.0):
            row = int(np.flatnonzero(ws.sds == 0.0)[0])
            raise DataError(f"window {row}: kde default bandwidth needs a sample with positive spread")
        h = 1.06 * ws.sds * ws.n ** (-0.2)
    else:
        h = float(kde_bandwidth)
        if not (math.isfinite(h) and h > 0.0):
            raise DomainError(f"bandwidth must be positive, got {kde_bandwidth!r}")
        h = np.full(m, h)
    z = float(sc.ndtri(alpha))
    # the quantile lies within |z_alpha| bandwidths (one, for the compact kernel) of the data
    reach_lo, reach_hi = (min(z, 0.0), max(z, 0.0)) if kde_kernel == "gaussian" else (-1.0, 1.0)
    lo, hi = ws.sorted_rows[:, 0] + h * reach_lo, ws.sorted_rows[:, -1] + h * reach_hi
    # safeguarded Newton on every row's mixture CDF at once: the point tried shrinks the
    # bracket [lo, hi], and the next point is the Newton point, or the midpoint when that
    # leaves the open bracket. A row leaves the active set on its own stopping rule, past
    # the 1e-10 probability tolerance down to a ~1e-12 bracket, so equivariance holds to
    # 1e-10; the Newton point aims 2.5e-13*scale past the root so that the bracket also
    # closes from the side Newton does not approach. Ties (F == alpha on a numerically
    # flat stretch) resolve upward: the sample-quantile limit as the bandwidth vanishes.
    q, active = 0.5 * (lo + hi), np.arange(m)
    for _ in range(200):
        a, b, x, hx = lo[active], hi[active], q[active], h[active]
        t = (x[:, None] - ws.windows[active]) / hx[:, None]
        if kde_kernel == "gaussian":
            f = np.mean(sc.ndtr(t), axis=1)
            density = np.mean(np.exp(-0.5 * (t * t)), axis=1) / (math.sqrt(2.0 * math.pi) * hx)
        else:
            t = np.clip(t, -1.0, 1.0)
            f = np.mean((2.0 + 3.0 * t - t**3) / 4.0, axis=1)
            density = np.mean(0.75 * (1.0 - t * t), axis=1) / hx
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        done = (np.abs(f - alpha) <= 1e-10) & (b - a <= 1e-12 * scale) | (b - a <= 1e-15 * scale)
        below = f <= alpha
        lo[active] = a = np.where(below, x, a)
        hi[active] = b = np.where(below, b, x)
        with np.errstate(divide="ignore", invalid="ignore"):  # zero density: no Newton point
            step = (alpha - f) / density
            newton = x + step + 2.5e-13 * scale * np.sign(step)
        go = ~done
        active = active[go]
        if active.size == 0:
            break
        q[active] = np.where((a < newton) & (newton < b), newton, 0.5 * (a + b))[go]
    return -q


def _mean(ws, alpha, **_):
    """Negative sample mean, unbiased for the expectation; the level does not enter."""
    return -ws.means


def _es_empirical(ws, alpha, **_):
    """Average loss beyond the empirical VaR (the negated mean of the points below it)."""
    quantiles = _type7_sorted_rows(ws.sorted_rows, alpha)
    counts = (ws.sorted_rows < quantiles[:, None]).sum(axis=1)
    if np.any(counts == 0):
        row = int(np.flatnonzero(counts == 0)[0])
        raise EmptyTailError(f"window {row}: no observation below the empirical VaR")
    sums = np.take_along_axis(np.cumsum(ws.sorted_rows, axis=1), counts[:, None] - 1, axis=1)[:, 0]
    return -sums / counts


def _es_gaussian(ws, alpha, **_):
    """Gaussian plug-in ES: -mean + sd * phi(Phi^{-1}(alpha)) / alpha."""
    z = sc.ndtri(alpha)
    return -ws.means + ws.sds * (np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)) / alpha


def _es_unbiased(ws, alpha, table=None, **_):
    """Unbiased Gaussian ES: -mean - sd * a_n with a_n < 0.

    a_n makes the secured position's ES zero under Gaussian data: ES_alpha(Z + b_n V_n) = 0
    (:func:`exact_unbiased_es_constant`). A ``table`` entry for (n, alpha) wins.
    """
    lookup = exact_unbiased_es_constant if table is None else table.lookup
    return -ws.means - ws.sds * lookup(ws.n, alpha).a_n


def _es_cornish_fisher(ws, alpha, **_):
    """Tail average of the Cornish-Fisher quantile below ``alpha``; Gaussian ES at zero shape."""
    skews, kurts = _require_shape(ws)
    return -(ws.means + ws.sds * _cf_tail_means(alpha, skews, kurts))


def _es_gpd(ws, alpha, **options):
    """GPD tail ES (:func:`gpd_es_capital`) of the PWM fit; needs xi < 1."""
    thresholds, xi, beta, _ = _gpd_fit_rows(ws, **options)
    return _gpd_es_from_fit(thresholds, xi, beta, _var_empirical(ws, alpha))


# ---------------------------------------------------------------------------
# the method registry
# ---------------------------------------------------------------------------


class Method(NamedTuple):
    """One estimator: its VaR kernel, its ES kernel (None without an ES form), the smallest
    sample it accepts, the alias tags that resolve to it, and whether it is location-scale:
    it reads a window only through its mean, sd and n."""

    var: Callable
    es: Callable | None
    min_n: int
    aliases: tuple = ()
    location_scale: bool = False


METHODS = {
    "empirical": Method(_var_empirical, _es_empirical, 2, ("emp", "hist")),
    "empirical_simple": Method(_var_empirical_simple, None, 1, ("simple", "emp_simple")),
    "gaussian": Method(_var_gaussian, _es_gaussian, 2, ("norm", "gauss"), location_scale=True),
    "cornish_fisher": Method(_var_cornish_fisher, _es_cornish_fisher, 4, ("cf",)),
    "student_t": Method(_var_student_t, None, 10, ("t", "student")),
    "gpd": Method(_var_gpd, _es_gpd, 2, ("evt",)),
    # an explicit bandwidth admits one point; the default bandwidth needs ten
    "kde": Method(_var_kde, None, 1),
    "gaussian_unbiased": Method(_var_unbiased, _es_unbiased, 2, ("u", "unbiased"), location_scale=True),
    "mean": Method(_mean, _mean, 1, location_scale=True),
}
ES_METHODS = tuple(tag for tag, spec in METHODS.items() if spec.es is not None)
LOCATION_SCALE_METHODS = tuple(tag for tag, spec in METHODS.items() if spec.location_scale)
# the settings a kernel may read; each method ignores those it does not use
OPTIONS = ("gpd_threshold", "gpd_threshold_quantile", "kde_kernel", "kde_bandwidth", "table")
_TAGS = {alias: tag for tag, spec in METHODS.items() for alias in (tag, *spec.aliases)}


def canonical_method(tag: str) -> str:
    """Resolve a method tag or alias; unknown tags raise :class:`ConfigError`."""
    key = str(tag).strip().lower().replace("-", "_")
    if key not in _TAGS:
        raise ConfigError(f"unknown method tag {tag!r}; valid tags: {', '.join(sorted(_TAGS))}")
    return _TAGS[key]


def check_es_form(methods) -> None:
    """Raise :class:`ConfigError` naming the canonical ``methods`` without an ES form."""
    bad = [tag for tag in methods if METHODS[tag].es is None]
    if bad:
        raise ConfigError(
            f"no Expected Shortfall form for {', '.join(bad)}; "
            f"ES-capable methods: {', '.join(ES_METHODS)}"
        )


def _kernel(method: str, measure: str, ws: WindowStats, options: dict) -> Callable:
    """The registered kernel for ``measure``, once the tag, windows, form, size and options check out."""
    if method not in METHODS:
        raise ConfigError(f"unknown method tag {method!r}")
    if ws.windows is None and not METHODS[method].location_scale:
        raise ConfigError(f"{method} reads whole windows; location-scale methods: "
                          f"{', '.join(LOCATION_SCALE_METHODS)}")
    if measure == "es":
        check_es_form([method])
    if ws.n < METHODS[method].min_n:
        raise SizeError(f"{method} needs at least {METHODS[method].min_n} observations, got {ws.n}")
    unknown = set(options) - set(OPTIONS)
    if unknown:
        raise TypeError(f"unknown estimator options {sorted(unknown)}; valid: {', '.join(OPTIONS)}")
    return METHODS[method].var if measure == "var" else METHODS[method].es


def batch_var_capitals(method: str, ws: WindowStats, alpha: float, **options) -> np.ndarray:
    """VaR capital per window row for one canonical method tag; see :data:`OPTIONS`."""
    return _kernel(method, "var", ws, options)(ws, RiskLevel(alpha), **options)


def batch_es_capitals(method: str, ws: WindowStats, alpha: float, **options) -> np.ndarray:
    """Expected Shortfall capital per window row for one canonical method tag."""
    return _kernel(method, "es", ws, options)(ws, RiskLevel(alpha), **options)


def estimate(method: str, x, alpha, measure: str = "var", **options) -> RiskEstimate:
    """One capital estimate: the method's batch kernel on ``x`` as a single window.

    ``method`` may be an alias; ``options`` are those of :data:`OPTIONS`.
    """
    method = canonical_method(method)
    if measure not in ("var", "es"):
        raise ConfigError(f"measure must be 'var' or 'es', got {measure!r}")
    arr = as_sample(x, 0, method)
    batch = batch_var_capitals if measure == "var" else batch_es_capitals
    capital = batch(method, window_stats(arr[None, :]), alpha, **options)[0]
    return RiskEstimate(measure, method, float(RiskLevel(alpha)), arr.size, float(capital))


# ---------------------------------------------------------------------------
# fits and the capitals they imply
# ---------------------------------------------------------------------------


def cornish_fisher_z(alpha, skew, excess_kurtosis) -> CornishFisherAdjustment:
    """Fourth-order Cornish-Fisher adjustment of the Gaussian alpha-quantile."""
    alpha = RiskLevel(alpha)
    z = float(sc.ndtri(alpha))
    z_cf = float(_cf_z_values(z, float(skew), float(excess_kurtosis)))
    return CornishFisherAdjustment(z_cf, z, float(skew), float(excess_kurtosis))


def fit_student_t(x):
    """Moment-matched location/scale with profile-likelihood degrees of freedom.

    ``mu`` and ``sigma`` are the sample mean and sd; ``nu`` maximises the
    location-scale t likelihood on (2, 200]. The search takes the best point
    of a 48-point geometric grid, then bisects on the sign of the likelihood's
    derivative inside the neighbouring grid cells, a fixed number of times
    that leaves a bracket below 1e-6. A fit within 1e-3 of 200 is 200;
    Gaussian-looking data lands there.

    A sample gives :class:`StudentTParams`. A :class:`WindowStats` gives the
    array of fitted ``nu``, one per row, all fitted at once; the Student-t
    kernel uses that form.
    """
    if isinstance(x, WindowStats):
        return _t_nu(x)
    ws = window_stats(as_sample(x, 10, "fit_student_t")[None, :])
    return StudentTParams(float(ws.means[0]), float(ws.sds[0]), float(_t_nu(ws)[0]))


def student_t_var_capital(params: StudentTParams, alpha) -> float:
    """VaR capital for fitted t parameters: -(mu + sigma*sqrt((nu-2)/nu)*t_nu^{-1}(alpha))."""
    return float(_t_capital(params.mu, params.sigma, params.nu, RiskLevel(alpha)))


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
