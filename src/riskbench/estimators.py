"""Value-at-Risk and Expected Shortfall estimators.

Every estimator maps a return sample and a level ``alpha`` to a positive
capital requirement: the amount of cash that makes the position acceptable.
Exceedances are always the event ``outcome + capital < 0``.

Each formula exists once, as an array kernel over the rows of a matrix of
rolling windows summarised by :func:`window_stats`; the fitted methods
(Student-t, KDE) fit every row at once. The backtester and the Monte Carlo
checks call the kernels through :func:`batch_var_capitals` and
:func:`batch_es_capitals`. A scalar estimate, ``estimate(tag, x, alpha,
measure, **options)``, is a batch of one row returned as a float.
No row's result depends on the other rows of its batch. One scale rule serves every
kernel: :func:`window_stats` puts each row in units of a power of two, the kernels read
those units, and each capital is scaled back once. So capital(2^k x) = 2^k capital(x) to
the bit while data and capitals are normal floats, and no kernel needs an overflow guard.

:data:`METHODS` is the one place to add an estimator. It maps each canonical
tag to its kernels, minimum sample size, aliases and location-scale flag; tag
resolution, the size and form checks, the Monte Carlo checks and the CLI read it.
:data:`OPTIONS` holds the two settings a kernel may read: the quantile level of the GPD
threshold and a calibration table for the unbiased ES.

The unbiased Gaussian ES kernel needs the constant ``a_n``, which
:func:`exact_unbiased_es_constant` computes by quadrature and caches, so every
entry point works without a calibration table. A table passed as ``table=``
only matters where it stores its own entry for (n, alpha).

The Gaussian family (every method but ``student_t`` and ``kde``) runs on numpy and
``math``, so importing the package imports no scipy:

- z_alpha is :func:`~riskbench.stats_core.ndtri`, a port of the Cephes routine that
  ``scipy.special.ndtri`` runs, with the same bits;
- Phi on quadrature nodes is :func:`~riskbench.stats_core.ndtr`, libm's erfc;
- the unbiased VaR's t_{n-1}^{-1}(alpha) is the alpha-quantile of the pivot
  Z / (V / sqrt(n-1)), solved under the same log-chi rule as a_n (:func:`_t_quantile`);
- the rule's range comes from Chernoff's bound on the chi-square tails.

The Student-t fit and the Gaussian KDE import ``scipy.special`` at first use; see
:func:`fit_student_t` and :func:`_var_kde` for why.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

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
    _type7_index,
    _type7_sorted_rows,
    as_sample,
    ndtr,
    ndtri,
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
_EPS = np.finfo(float).eps


class RiskLevel(float):
    """Probability level in the open interval (0, 1)."""

    def __new__(cls, alpha):
        value = float(alpha)
        if not (math.isfinite(value) and 0.0 < value < 1.0):
            raise DomainError(f"risk level must lie in (0, 1), got {alpha!r}")
        return super().__new__(cls, value)


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
class CalibrationEntry:
    """Solution (a_n, b_n) of the unbiased-ES condition for one (n, alpha).

    ``source`` is ``"quadrature"`` for the exact constant, whose ``mc_samples``
    and ``seed`` are None, or ``"monte_carlo"`` for the exact root on a seeded
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
        if self.n < 2:
            raise SizeError(f"calibration needs window size n >= 2, got {self.n!r}")
        if not self.b_n > 0.0:  # NaN fails too
            raise DomainError(f"b_n must be positive, got {self.b_n!r}")
        if not self.a_n < 0.0:
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

    :func:`window_stats` puts row i in units of 2^``exponent[i]`` (see there): ``windows``,
    ``sorted_rows``, ``means`` and ``sds`` read in those units, and the batch entry points
    scale each capital back. A moments-only instance has no windows or sorted rows, its
    ``n`` is given and its ``exponent`` is None, meaning data units: only the location-scale
    kernels (see :class:`Method`) can read it. ``fits`` memoises the tail fits made on these
    rows, keyed by the options they read.
    """

    windows: np.ndarray | None
    sorted_rows: np.ndarray | None
    means: np.ndarray
    sds: np.ndarray
    n: int
    exponent: np.ndarray | None = None
    skews: np.ndarray | None = None
    kurts: np.ndarray | None = None
    fits: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def max_abs(self) -> np.ndarray:
        """Largest |x| per row, read off the ends of the sorted rows."""
        return np.maximum(np.abs(self.sorted_rows[:, 0]), np.abs(self.sorted_rows[:, -1]))

    def is_noise(self, spread) -> np.ndarray:
        """True where a row's spread (an sd or the root of a central second moment) is at most
        4*n*eps*max|x|: summing n equal values moves their mean by about n ulps of max|x|."""
        return spread <= 4.0 * self.n * _EPS * self.max_abs

    def in_data_units(self, values):
        """One value per row, read in row units, in the data's units."""
        return values if self.exponent is None else np.ldexp(values, self.exponent)

    def take(self, rows: slice) -> "WindowStats":
        """The statistics of a run of rows, as views; ``n`` and absent arrays carry over, fits do not."""
        values = (getattr(self, f.name) for f in fields(self) if f.name != "fits")
        return WindowStats(*(a[rows] if isinstance(a, np.ndarray) else a for a in values))


def window_stats(windows: np.ndarray, with_shape: bool = False) -> WindowStats:
    """Sort each row, put it in units of a power of two, and compute its mean and sd (divisor n-1).

    ``windows`` (..., n) is read as the (m, n) matrix of its rows; a strided view is not copied.
    Row i is multiplied by 2^-e, e = ``exponent[i]`` the binary exponent of its largest |x|
    (``np.frexp``, held at -1021 or above so that 2^-e is a float): exact for normal numbers,
    so no square overflows or underflows, and a row's statistics in its units are the same
    bits at every power-of-two scale. A constant row's mean is that constant, which a sum can
    round one ulp off; the sd about the mean is ``np.std``'s, and zero where its population
    spread is noise (:meth:`WindowStats.is_noise`). The skew and kurtosis that Cornish-Fisher
    needs are filled on first use; ``with_shape`` computes them now. A one-column matrix has NaN sds.
    """
    w = np.asarray(windows, dtype=float)
    if w.ndim < 2 or w.shape[-1] < 1:
        raise SizeError(f"windows must be (..., n>=1), got shape {w.shape}")
    n = w.shape[-1]
    ws = WindowStats(None, np.sort(w, axis=-1).reshape(-1, n), None, None, n)
    ws.exponent = np.maximum(np.frexp(ws.max_abs)[1], -1021)
    unit = np.ldexp(1.0, -ws.exponent)
    ws.sorted_rows *= unit[:, None]  # in place on the sorted copy: one multiply per array
    # C order: a row's sums then run along it as for a C-contiguous input, whatever the layout
    ws.windows = np.multiply(w, unit.reshape(w.shape[:-1] + (1,)), order="C").reshape(-1, n)
    lo, hi = ws.sorted_rows[:, 0], ws.sorted_rows[:, -1]
    ws.means = np.where(lo == hi, lo, ws.windows.mean(axis=1))
    if n > 1:
        centred = ws.windows - ws.means[:, None]
        sds = np.sqrt(np.square(centred, out=centred).sum(axis=1) / (n - 1))
    else:
        sds = np.full(len(lo), np.nan)
    ws.sds = np.where(ws.is_noise(sds * math.sqrt((n - 1) / n)), 0.0, sds)
    if with_shape:
        _require_shape(ws)
    return ws


def _shape_moments(ws: WindowStats):
    """Population skewness and excess kurtosis per row.

    Rows whose spread is rounding noise get zero skew and kurtosis, so that
    moment adjustments vanish on constant data.
    """
    zs = ws.windows - ws.means[:, None]
    z2 = np.square(zs)  # two (rows, n) buffers, reused in place: fresh ones page-fault
    m2 = np.mean(z2, axis=1)
    positive = ~ws.is_noise(np.sqrt(m2))
    zs /= np.sqrt(np.where(positive, m2, 1.0))[:, None]
    np.multiply(zs, zs, out=z2)  # products: float pow is about 30 times slower on these arrays
    skews = np.where(positive, np.mean(np.multiply(z2, zs, out=zs), axis=1), 0.0)
    kurts = np.where(positive, np.mean(np.multiply(z2, z2, out=z2), axis=1) - 3.0, 0.0)
    return skews, kurts


def _require_shape(ws: WindowStats) -> tuple[np.ndarray, np.ndarray]:
    if ws.skews is None or ws.kurts is None:
        ws.skews, ws.kurts = _shape_moments(ws)
    return ws.skews, ws.kurts


def _cf_expansion(m1, m2, m3, skew, excess_kurtosis):
    """Mean of the Cornish-Fisher quantile t + (t^2 - 1)s/6 + (t^3 - 3t)k/24 - (2t^3 - 5t)s^2/36
    (skew s, excess kurtosis k) over t with moments E[t^j] = mj; at (z, z^2, z^3), that of z."""
    return (
        m1
        + (m2 - 1.0) * skew / 6.0
        + (m3 - 3.0 * m1) * excess_kurtosis / 24.0
        - (2.0 * m3 - 5.0 * m1) * skew * skew / 36.0
    )


def _reject_rows(bad, error, describe) -> None:
    """Raise ``error("window <row>: " + describe(row))`` at the first row that ``bad`` flags."""
    if np.any(bad):
        row = int(np.flatnonzero(bad)[0])
        raise error(f"window {row}: {describe(row)}")


def _count_below(srt: np.ndarray, q: np.ndarray, p: float) -> np.ndarray:
    """#{x < q} per ascending-sorted row, where q is each row's type-7 ``p``-quantile: its index j
    is the count wherever x[j-1] < q <= x[j]; other rows (ties at q) compare in full."""
    n = srt.shape[1]
    j = _type7_index(n, p)[0]
    if j >= n:
        return (srt < q[:, None]).sum(axis=1)
    counts = np.full(len(q), j)
    other = ~((srt[:, j - 1] < q) & (q <= srt[:, j]))
    if other.any():
        counts[other] = (srt[other] < q[other, None]).sum(axis=1)
    return counts


def _batch_gpd_fit(srt: np.ndarray, thresholds: np.ndarray, exponent: np.ndarray, level: float):
    """PWM fit per ascending-sorted row at its type-7 ``level``-quantile threshold. Returns (xi, beta, k).

    Probability-weighted moments are taken over exceedances y = u - x > 0 with
    survival plotting positions, which recovers xi = 0, beta = b for
    exponential(b) tails. The tails are counted by index (:func:`_count_below`), and a
    message quotes a threshold in data units, by the row's ``exponent``.
    """
    m = srt.shape[0]
    ks = _count_below(srt, thresholds, level)
    quoted = np.ldexp(thresholds, exponent)
    _reject_rows(ks < 5, InsufficientTailError, lambda i: f"only {int(ks[i])} observations "
                 f"strictly below threshold {float(quoted[i])!r} (need 5)")
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
    _reject_rows(denom <= 0.0, DegenerateFitError, lambda _: "PWM moments give b0 - 2*b1 <= 0")
    return 2.0 - b0 / denom, 2.0 * b0 * b1 / denom, ks


def check_gpd_threshold_quantile(q) -> float:
    """``q`` as a float; :class:`ConfigError` unless it lies in the open interval (0, 1)."""
    if not 0.0 < (q := float(q)) < 1.0:
        raise ConfigError(f"gpd_threshold_quantile must lie in (0, 1), got {q!r}")
    return q


def _gpd_fit_rows(ws: WindowStats, gpd_threshold_quantile=DEFAULT_GPD_THRESHOLD_QUANTILE, **_):
    """Row-unit thresholds (each row's type-7 quantile, 0.3 by default) and PWM fit (xi, beta, k); memoised."""
    level = float(gpd_threshold_quantile)
    key = ("gpd", level)
    if key not in ws.fits:
        thresholds = _type7_sorted_rows(ws.sorted_rows, level)
        ws.fits[key] = (thresholds, *_batch_gpd_fit(ws.sorted_rows, thresholds, ws.exponent, level))
    return ws.fits[key]


def _gpd_var_from_fit(thresholds, xi, beta, ks, n, alpha):
    ratio = alpha * n / ks
    _reject_rows(ratio > 1.0, LevelTooHighError, lambda i: f"alpha*n/k = {float(ratio[i]):.6g} "
                 "> 1; level lies above the empirical mass under the threshold")
    small = np.abs(xi) < _XI_LOG_LIMIT
    xi_safe = np.where(small, 1.0, xi)
    power = -thresholds + beta / xi_safe * (ratio ** (-xi) - 1.0)
    log_limit = -thresholds + beta * np.log(ks / (alpha * n))
    return np.where(small, log_limit, power)


def _gpd_es_from_fit(thresholds, xi, beta, var_emp):
    _reject_rows(xi >= 1.0, InfiniteMeanTailError,
                 lambda i: f"fitted shape {float(xi[i]):.6g} >= 1, tail mean infinite")
    # the tail formula reads the loss threshold, -u
    return var_emp / (1.0 - xi) + (beta + xi * thresholds) / (1.0 - xi)


# ---------------------------------------------------------------------------
# the root finder
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")  # g over a subnormal slope is inf, whose point the midpoint replaces
def _safeguarded_newton(fun, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, rule) -> np.ndarray:
    """A root in [lo, hi] of each row of an increasing function, by safeguarded Newton in lockstep.

    ``fun(rows, x)`` gives the value and slope of those rows at ``x``, and ``rule(x, value, lo,
    hi)`` which rows stop, judged on the bracket before ``x`` narrows it, and how far past the
    root each Newton point aims, so that the bracket closes from both sides. The next point is
    the Newton point, or the midpoint when that leaves the open bracket. Each row stops on its
    own rule, so no row depends on the rows beside it. Returns the last points tried.
    """
    active = np.arange(x.size)
    for _ in range(200):
        a, b, xa = lo[active], hi[active], x[active]
        g, slope = fun(active, xa)
        done, push = rule(xa, g, a, b)
        below = g <= 0.0
        lo[active] = a = np.where(below, xa, a)
        hi[active] = b = np.where(below, b, xa)
        newton = xa - g / np.where(slope > 0.0, slope, np.nan) - push * np.sign(g)  # NaN: midpoint
        go = ~done
        active = active[go]
        if active.size == 0:
            break
        x[active] = np.where((a < newton) & (newton < b), newton, 0.5 * (a + b))[go]
    return x


def _scalar_root(fun, lo: float, hi: float, x: float) -> tuple[float, float]:
    """Root of one increasing ``fun(x) -> (value, slope)`` to a bracket 4 ulps wide: the smallest
    |value| tried, and its point. No sign change seen, or no convergence, raises RuntimeError."""
    tried, done = [], np.array([False])

    def row(_, xs):
        value, slope = fun(float(xs[0]))
        tried.append((abs(value), float(xs[0]), value <= 0.0))
        return np.array([value]), np.array([slope])

    def rule(x, g, a, b):
        done[0] = g[0] == 0.0 or b[0] - a[0] <= 4.0 * _EPS * abs(x[0])
        return done, 2.0 * _EPS * np.abs(x)

    _safeguarded_newton(row, np.array([lo]), np.array([hi]), np.array([min(max(x, lo), hi)]), rule)
    size, root, _ = min(tried)
    if not done[0] or size > 0.0 and len({below for *_, below in tried}) < 2:
        raise RuntimeError(f"no root found in [{lo:.6g}, {hi:.6g}]")
    return size, root


# ---------------------------------------------------------------------------
# the exact unbiased ES constant
# ---------------------------------------------------------------------------


_legendre = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)  # arrays shared


def _log_chi_range(k: int, lower_mass: float = _CHI_TAIL_MASS) -> tuple[float, float]:
    """Ends of a range of log V, V ~ chi_k, with at most ``lower_mass`` of the mass below it
    and 1e-18 above it.

    They are half the logs of the points x below and above k where Chernoff's bound on the
    chi2_k tails, exp(-(x - k - k ln(x/k)) / 2), equals that mass. The exponent is convex in
    x, so Newton started outside each root converges to it monotonically; it runs until its
    steps are rounding.
    """
    log_k = math.log(k)
    ends = []
    for mass, upper in ((lower_mass, False), (_CHI_TAIL_MASS, True)):
        target = -2.0 * math.log(mass)
        c = target / k
        x = k * (2.0 + 2.0 * c) if upper else k * math.exp(-1.0 - c)  # outside the root
        for _ in range(100):
            step = (x - k - k * (math.log(x) - log_k) - target) / (1.0 - k / x)
            x -= step
            if abs(step) <= 4.0 * _EPS * x:
                break
        ends.append(0.5 * math.log(x))
    return ends[0], ends[1]


def _log_chi_rule(k: int, nodes: int, lower_mass: float = _CHI_TAIL_MASS):
    """Nodes ``v`` and normalised weights ``w`` with E[h(V)] ~ w @ h(v), V ~ chi_k.

    Gauss-Legendre in s = log v over :func:`_log_chi_range`, which by default holds all but
    2e-18 of the chi_k mass. In log space the tail integrands Phi(q - b*v) switch over a
    width of order one whatever the size of b, so large roots at small n
    (b_2 ~ 7.5e5 at alpha = 1e-6) need no special treatment. The density is
    formed in log space, so large k cannot overflow.
    """
    s_lo, s_hi = _log_chi_range(k, lower_mass)
    x, w = _legendre(nodes)
    s = 0.5 * (s_hi - s_lo) * x + 0.5 * (s_hi + s_lo)
    v = np.exp(s)
    log_density = k * s - 0.5 * v * v  # density of log V up to a constant
    weights = w * np.exp(log_density - log_density.max())
    return v, weights / weights.sum()


def _refined(solve, what: str) -> tuple:
    """``solve(nodes)`` -> (root, ...) on a 64-node rule, then on doubled node counts until
    two successive roots agree to 1e-10 relative; the finer result.

    If 4096 nodes do not converge, or a root cannot be found (``what`` names the solve),
    :class:`CalibrationFailureError` is raised.
    """
    nodes = _QUADRATURE_NODES
    try:
        prev = solve(nodes)
        while nodes < _MAX_QUADRATURE_NODES:
            nodes *= 2
            result = solve(nodes)
            if abs(result[0] - prev[0]) <= _QUADRATURE_RTOL * abs(result[0]):
                return result
            prev = result
    except RuntimeError as exc:  # _scalar_root: no sign change or no convergence
        raise CalibrationFailureError(f"quadrature breaks down at {what}: {exc}") from None
    raise CalibrationFailureError(
        f"quadrature for {what} did not converge within {_MAX_QUADRATURE_NODES} nodes"
    )


def _pivot_es(b: float, alpha: float, v: np.ndarray, w: np.ndarray, q: float | None = None):
    """ES_alpha(Z + b*V) under the rule (v, w), -E[Y * 1{Y < q}] / alpha, its slope in b, and q.

    The quantile's Newton iteration starts at ``q``, by default z_alpha + b*E[V].
    """
    z_alpha = ndtri(alpha)
    bv = b * v

    def excess_mass(q):
        u = q - bv
        density = float(w @ np.exp(-0.5 * u * u)) / math.sqrt(2.0 * math.pi)
        return float(w @ ndtr(u)) - alpha, density

    # every V in the rule lies in [v[0], v[-1]], which brackets the quantile
    lo, hi = z_alpha + bv[0] - 1.0, z_alpha + bv[-1] + 1.0
    _, q = _scalar_root(excess_mass, lo, hi, z_alpha + b * float(w @ v) if q is None else q)
    u = q - bv
    cdf = ndtr(u)
    tail = float(w @ (bv * cdf - np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)))
    return -tail / alpha, -float(w @ (v * cdf)) / alpha, q


def _quadrature_root(n: int, alpha: float, nodes: int) -> tuple[float, float]:
    """Root b of ES_alpha(Z + b V_n) = 0 under a ``nodes``-point rule, and |ES| there."""
    v, w = _log_chi_rule(n - 1, nodes)
    q = None

    def minus_es(b):  # each quantile root starts from the last one
        nonlocal q
        es, slope, q = _pivot_es(b, alpha, v, w, q)
        return -es, -slope

    # ES(Z) = phi(z_alpha)/alpha > 0 at b = 0, and ES(Z + bV) falls with b
    hi = 1.0
    for _ in range(_MAX_DOUBLINGS):
        value, slope = minus_es(hi)
        if value > 0.0:
            break
        hi *= 2.0
    else:
        raise CalibrationFailureError(
            f"could not bracket the root within {_MAX_DOUBLINGS} doublings"
        )
    residual, b = _scalar_root(minus_es, 0.0, hi, hi - value / slope if slope > 0.0 else 0.5 * hi)
    return b, residual


def exact_unbiased_es_constant(n: int, alpha) -> CalibrationEntry:
    """Deterministic a_n (and b_n) with ES_alpha(Z + b_n V_n) = 0, by quadrature.

    Z is standard normal, V_n is chi_{n-1} and ``a_n = -b_n * sqrt((n-1)(n+1)/n)``.
    With Y = Z + b*V the condition reduces to one-dimensional integrals over V,

        P(Y < q) = E[Phi(q - b*V)],
        E[Y * 1{Y < q}] = E[b*V * Phi(q - b*V) - phi(q - b*V)],

    evaluated by Gauss-Legendre quadrature in log V. Safeguarded Newton solves q
    (slope E[phi(q - b*V)]) and b (slope -E[V * Phi(q - b*V)] / alpha, as the tail
    mass stays alpha) to brackets 4 ulps wide. The root is solved with a 64-node
    rule, then with doubled node counts until two successive values of a_n agree
    to 1e-10 relative; the finer one is returned. If 4096 nodes do not converge,
    or the numerics break down at an extreme level,
    :class:`CalibrationFailureError` is raised. Results are cached per (n, alpha).
    """
    n = int(n)
    if n < 2:
        raise SizeError(f"calibration needs window size n >= 2, got {n}")
    return _exact_entry(n, float(RiskLevel(alpha)))


@functools.lru_cache(maxsize=256)
def _exact_entry(n: int, alpha: float) -> CalibrationEntry:
    b, residual = _refined(lambda nodes: _quadrature_root(n, alpha, nodes),
                           f"(n={n}, alpha={alpha:.6g})")
    a_n = float(-b * math.sqrt((n - 1) * (n + 1) / n))
    return CalibrationEntry(n=n, alpha=alpha, b_n=float(b), a_n=a_n, mc_samples=None, seed=None,
                            residual=float(residual), source="quadrature")


@functools.lru_cache(maxsize=256)
def _t_quantile(k: int, alpha: float) -> float:
    """t_k^{-1}(alpha) for an integer k >= 1, as the alpha-quantile of the pivot Z / (V / sqrt(k)).

    With V ~ chi_k, P(T <= t) = E[Phi(t*V/sqrt(k))], evaluated under :func:`_log_chi_rule`
    and solved by :func:`_scalar_root` (slope E[phi(t*V/sqrt(k)) * V/sqrt(k)]) with the node
    doubling of :func:`_refined`, as a_n is. Levels above 1/2 are read by symmetry. Cached
    per (k, alpha).
    """
    if alpha >= 0.5:
        return 0.0 if alpha == 0.5 else -_t_quantile(k, 1.0 - alpha)
    z = ndtri(alpha)
    start = z * (1.0 + (z * z + 1.0) / (4.0 * k))  # Fisher's first term: |start| below |t|
    # above 1/4, 1/2 - alpha is exact and P(T <= t) - 1/2 keeps its digits near t = 0, where
    # the node doubling's relative test needs them
    centred = alpha > 0.25
    offset = 0.5 - alpha if centred else -alpha
    # P(T <= t) counts the chi mass left out below the rule about half: keep it below
    # alpha*eps/4, down to where the range's lower end would underflow at k = 1
    lower_mass = max(min(_CHI_TAIL_MASS, 0.25 * _EPS * alpha), 1e-150)

    def root(nodes):
        nonlocal start
        v, w = _log_chi_rule(k, nodes, lower_mass)
        v = v / math.sqrt(k)

        def excess_mass(t):
            tv = t * v
            density = float(w @ (v * np.exp(-0.5 * tv * tv))) / math.sqrt(2.0 * math.pi)
            return float(w @ ndtr(tv, centred)) + offset, density

        # t*V/sqrt(k) = z_alpha for some V of the rule between these two
        _, start = _scalar_root(excess_mass, z / v[0], z / v[-1], start)
        return (start,)

    return _refined(root, f"the t_{k} quantile at alpha={alpha:.6g}")[0]


# ---------------------------------------------------------------------------
# the Student-t profile likelihood
# ---------------------------------------------------------------------------


_T_NU_GRID = 2.0 + np.geomspace(1e-6, _STUDENT_NU_MAX - 2.0, 12)


def _t_loglik(z2: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Profile log-likelihood, up to a constant, of each row of squared z-scores at its ``nu``.

    The t scale sd*sqrt((nu-2)/nu) matches the sample variance. ``betaln`` keeps the gamma
    ratio to a few ulps, where a difference of two ``gammaln`` loses two digits near nu = 200.
    """
    from scipy.special import betaln  # fit_student_t says why the fit stays on scipy
    lead = -betaln(0.5 * nu, 0.5) - 0.5 * np.log(nu - 2.0)
    return z2.shape[1] * lead - 0.5 * (nu + 1.0) * np.log1p(z2 / (nu - 2.0)[:, None]).sum(axis=1)


def _trigamma(x: np.ndarray) -> np.ndarray:
    """psi'(x) for x >= 1 to ~1e-5: two recurrence steps, then the asymptotic series."""
    y = x + 2.0
    series = (1.0 + (0.5 + (1.0 - 0.2 / (y * y)) / (6.0 * y)) / y) / y
    return 1.0 / (x * x) + 1.0 / (x + 1.0) ** 2 + series


def _t_score(z2: np.ndarray, nu: np.ndarray):
    """Twice the derivative of :func:`_t_loglik` in ``nu``, its slope in ``nu`` (psi' from
    :func:`_trigamma`: the slope only steers), and the summed size of its terms."""
    from scipy.special import psi
    n, q = z2.shape[1], z2 / (nu - 2.0)[:, None]
    r = q / (1.0 + q)
    psi_hi, psi_lo, ratio = psi(0.5 * (nu + 1.0)), psi(0.5 * nu), (nu + 1.0) / (nu - 2.0)
    sum_r, sum_rr, sum_log = r.sum(axis=1), (r * r).sum(axis=1), np.log1p(q).sum(axis=1)
    score = n * (psi_hi - psi_lo - 1.0 / (nu - 2.0)) + ratio * sum_r - sum_log
    lead = 0.5 * (_trigamma(0.5 * (nu + 1.0)) - _trigamma(0.5 * nu)) + 1.0 / (nu - 2.0) ** 2
    slope = n * lead + ((nu - 5.0) * sum_r - (nu + 1.0) * (sum_r - sum_rr)) / (nu - 2.0) ** 2
    size = n * (np.abs(psi_hi) + np.abs(psi_lo) + 1.0 / (nu - 2.0)) + ratio * sum_r + sum_log
    return score, slope, size


def _t_nu(ws: WindowStats) -> np.ndarray:
    """Profile-likelihood nu of every row: the best point of the 12-point grid, then
    :func:`_safeguarded_newton` on the score inside that point's neighbouring cells.

    A row stops once its score is within 2 ulps of the size of its terms, its own rounding,
    or its bracket is below 1e-10*nu; each Newton point aims 2.5e-11*nu past the root. A row
    whose likelihood still rises at 200 starts and stops there.
    """
    _reject_rows(ws.sds == 0.0, DataError,
                 lambda _: "fit_student_t needs a sample with positive spread")
    z2 = ((ws.windows - ws.means[:, None]) / ws.sds[:, None]) ** 2
    m = z2.shape[0]
    best = np.argmax([_t_loglik(z2, np.full(m, nu)) for nu in _T_NU_GRID], axis=0)
    lo = _T_NU_GRID[np.maximum(best - 1, 0)]
    hi = _T_NU_GRID[np.minimum(best + 1, _T_NU_GRID.size - 1)]

    def minus_score(rows, nu):
        score, slope, size = _t_score(z2[rows], nu)
        return -score / size, -slope / size

    nu = _safeguarded_newton(minus_score, lo, hi, _T_NU_GRID[best], lambda nu, g, a, b: (
        (np.abs(g) <= 2.0 * _EPS) | (b - a <= 1e-10 * b), 2.5e-11 * b))
    return np.where(nu > _STUDENT_NU_MAX - 1e-3, _STUDENT_NU_MAX, nu)


def _t_capital(mu, sigma, nu, alpha):
    """-(mu + sigma*sqrt((nu-2)/nu)*t_nu^{-1}(alpha)); broadcasts over its arguments."""
    from scipy.special import stdtrit  # a real nu per row, where _t_quantile takes an integer
    return -(mu + sigma * np.sqrt((nu - 2.0) / nu) * stdtrit(nu, alpha))


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
    return -(ws.means + ws.sds * ndtri(alpha))


def _var_unbiased(ws, alpha, **_):
    """Gaussian unbiased VaR: -(mean + sd * sqrt((n+1)/n) * t_{n-1}^{-1}(alpha)).

    The Student-t quantile and the sqrt((n+1)/n) inflation absorb the
    estimation error of mean and sd, making the exceedance probability of the
    secured position exactly alpha under Gaussian data.
    """
    factor = math.sqrt((ws.n + 1) / ws.n) * _t_quantile(ws.n - 1, float(alpha))
    return -(ws.means + ws.sds * factor)


def _var_cornish_fisher(ws, alpha, **_):
    """Moment-corrected Gaussian VaR at the Cornish-Fisher quantile."""
    z = ndtri(alpha)
    return -(ws.means + ws.sds * _cf_expansion(z, z * z, z**3, *_require_shape(ws)))


def _var_student_t(ws, alpha, **_):
    """Student-t plug-in (:func:`_t_capital`) at the profile-likelihood nu of every row."""
    return _t_capital(ws.means, ws.sds, fit_student_t(ws), alpha)


def _var_gpd(ws, alpha, **options):
    """Peaks-over-threshold VaR of the PWM tail fit; |xi| < 1e-6 takes the log limit."""
    thresholds, xi, beta, ks = _gpd_fit_rows(ws, **options)
    return _gpd_var_from_fit(thresholds, xi, beta, ks, ws.n, alpha)


def _var_kde(ws, alpha, **_):
    """Quantile of the Gaussian KDE at bandwidth 1.06*sd*n^(-1/5), on the exact mixture CDF.

    The mixture CDF reads ``scipy.special.ndtr`` on (rows, n) arrays, imported here at first
    use: :func:`~riskbench.stats_core.ndtr` makes one Python call per element, and a numpy
    port of Cephes' ``ndtr`` took about three times as long.
    """
    from scipy import special
    _reject_rows(ws.sds == 0.0, DataError,
                 lambda _: "kde default bandwidth needs a sample with positive spread")
    h = 1.06 * ws.sds * ws.n ** (-0.2)
    z = ndtri(alpha)
    # the quantile lies within |z_alpha| bandwidths of the data
    lo, hi = ws.sorted_rows[:, 0] + h * min(z, 0.0), ws.sorted_rows[:, -1] + h * max(z, 0.0)

    def excess_mass(rows, x):
        t = (x[:, None] - ws.windows[rows]) / h[rows, None]
        f = np.mean(special.ndtr(t), axis=1)
        density = np.mean(np.exp(-0.5 * (t * t)), axis=1) / (math.sqrt(2.0 * math.pi) * h[rows])
        return f - alpha, density

    def rule(x, g, a, b):
        # a row stops past the 1e-10 probability tolerance down to a bracket ~1e-12 of its ends
        # or of 1/16 of the row unit (max|x| is 1/2 to 1). Ties (F == alpha on a numerically
        # flat stretch) resolve upward: the sample-quantile limit as the bandwidth vanishes.
        scale = np.maximum(0.0625, np.maximum(np.abs(a), np.abs(b)))
        done = (np.abs(g) <= 1e-10) & (b - a <= 1e-12 * scale) | (b - a <= 1e-15 * scale)
        return done, 2.5e-13 * scale

    return -_safeguarded_newton(excess_mass, lo, hi, 0.5 * (lo + hi), rule)


def _mean(ws, alpha, **_):
    """Negative sample mean, unbiased for the expectation; the level does not enter."""
    return -ws.means


def _es_empirical(ws, alpha, **_):
    """Average loss beyond the empirical VaR (the negated mean of the points below it)."""
    quantiles = _type7_sorted_rows(ws.sorted_rows, alpha)
    counts = _count_below(ws.sorted_rows, quantiles, alpha)
    _reject_rows(counts == 0, EmptyTailError, lambda _: "no observation below the empirical VaR")
    # a cumsum prefix does not depend on later columns, so only the longest tail is summed
    prefix = np.cumsum(ws.sorted_rows[:, : counts.max()], axis=1)
    sums = np.take_along_axis(prefix, counts[:, None] - 1, axis=1)[:, 0]
    return -sums / counts


def _es_gaussian(ws, alpha, **_):
    """Gaussian plug-in ES: -mean + sd * phi(Phi^{-1}(alpha)) / alpha."""
    z = ndtri(alpha)
    return -ws.means + ws.sds * (np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)) / alpha


def _es_unbiased(ws, alpha, table=None, **_):
    """Unbiased Gaussian ES: -mean - sd * a_n with a_n < 0.

    a_n makes the secured position's ES zero under Gaussian data: ES_alpha(Z + b_n V_n) = 0
    (:func:`exact_unbiased_es_constant`). A ``table`` entry for (n, alpha) wins.
    """
    lookup = exact_unbiased_es_constant if table is None else table.lookup
    return -ws.means - ws.sds * lookup(ws.n, alpha).a_n


def _es_cornish_fisher(ws, alpha, **_):
    """Tail average of the Cornish-Fisher quantile below ``alpha``; Gaussian ES at zero shape.

    The moments of t ~ N(0, 1) given t < z = Phi^{-1}(alpha) are m1 = -phi(z)/alpha,
    m2 = 1 - z*phi(z)/alpha and m3 = -(z^2 + 2)*phi(z)/alpha.
    """
    z = ndtri(alpha)
    ratio = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / alpha
    moments = (-ratio, 1.0 - z * ratio, -(z * z + 2.0) * ratio)
    return -(ws.means + ws.sds * _cf_expansion(*moments, *_require_shape(ws)))


def _es_gpd(ws, alpha, **options):
    """GPD tail ES (:func:`_gpd_es_from_fit`) of the PWM fit; needs xi < 1."""
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
    "kde": Method(_var_kde, None, 10),
    "gaussian_unbiased": Method(_var_unbiased, _es_unbiased, 2, ("u", "unbiased"), location_scale=True),
    "mean": Method(_mean, _mean, 1, location_scale=True),
}
ES_METHODS = tuple(tag for tag, spec in METHODS.items() if spec.es is not None)
LOCATION_SCALE_METHODS = tuple(tag for tag, spec in METHODS.items() if spec.location_scale)
# the settings a kernel may read: the GPD threshold's quantile level and the unbiased ES's
# calibration table; each method ignores those it does not use
OPTIONS = ("gpd_threshold_quantile", "table")
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


def _capitals(method: str, measure: str, ws: WindowStats, alpha, options: dict) -> np.ndarray:
    """The registered kernel's capitals, once the tag, windows, form, size and options check out."""
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
    if "gpd_threshold_quantile" in options:  # for every method, as BacktestConfig checks it
        check_gpd_threshold_quantile(options["gpd_threshold_quantile"])
    capitals = ws.in_data_units(getattr(METHODS[method], measure)(ws, RiskLevel(alpha), **options))
    _reject_rows(~np.isfinite(capitals), DataError,
                 lambda i: f"capital must be finite, got {float(capitals[i])!r}")
    return capitals


def batch_var_capitals(method: str, ws: WindowStats, alpha: float, **options) -> np.ndarray:
    """Finite VaR capital per window row for one canonical method tag; see :data:`OPTIONS`."""
    return _capitals(method, "var", ws, alpha, options)


def batch_es_capitals(method: str, ws: WindowStats, alpha: float, **options) -> np.ndarray:
    """Finite Expected Shortfall capital per window row for one canonical method tag."""
    return _capitals(method, "es", ws, alpha, options)


def estimate(method: str, x, alpha, measure: str = "var", **options) -> float:
    """One finite capital: the method's batch kernel on ``x`` as a single window.

    ``method`` may be an alias; ``options`` are those of :data:`OPTIONS`.
    """
    method = canonical_method(method)
    if measure not in ("var", "es"):
        raise ConfigError(f"measure must be 'var' or 'es', got {measure!r}")
    arr = as_sample(x, 0, method)
    batch = batch_var_capitals if measure == "var" else batch_es_capitals
    return float(batch(method, window_stats(arr[None, :]), alpha, **options)[0])


# ---------------------------------------------------------------------------
# the Student-t fit
# ---------------------------------------------------------------------------


def fit_student_t(x):
    """Moment-matched location/scale with profile-likelihood degrees of freedom.

    ``mu`` and ``sigma`` are the sample mean and sd; ``nu`` maximises the
    location-scale t likelihood on (2, 200]. The search takes the best point
    of a 12-point geometric grid, then runs safeguarded Newton on the
    likelihood's derivative inside the neighbouring grid cells, until that
    derivative is zero to its own rounding or the bracket is below 1e-10*nu.
    A fit within 1e-3 of 200 is 200; Gaussian-looking data lands there.

    The likelihood and its score read ``scipy.special``'s ``betaln`` and ``psi`` on every
    row at every step, and the capital reads its ``stdtrit`` at each row's real nu, where a
    pivot quadrature (:func:`_t_quantile`) would take about a millisecond per row. So
    ``scipy.special`` is imported at first use here, and only here and in the KDE.

    A sample gives :class:`StudentTParams`. A :class:`WindowStats` gives the
    array of fitted ``nu``, one per row, all fitted at once; the Student-t
    kernel uses that form.
    """
    if isinstance(x, WindowStats):
        return _t_nu(x)
    ws = window_stats(as_sample(x, 10, "fit_student_t")[None, :])
    return StudentTParams(*(float(ws.in_data_units(v)[0]) for v in (ws.means, ws.sds)), float(_t_nu(ws)[0]))
