"""Deterministic statistical primitives shared by every other module.

Distribution functions are backed by ``scipy.special`` (absolute error far
below the 1e-12 contract). Random draws come from the counter-based Philox
bit generator keyed by ``(seed, stream_id)``, so identical keys reproduce
identical sequences on every platform and distinct stream ids give
statistically independent streams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .errors import DataError, DomainError, SizeError

_UINT64_MAX = 2**64 - 1
# A spread this many times n * eps * max|x| is rounding noise: summing n equal
# values perturbs their mean by at most about n ulps of max|x|.
_NOISE_ULPS_PER_POINT = 4.0
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class SeededRng:
    """Value-type random source: same ``(seed, stream_id)`` -> same draws."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not 0 <= int(value) <= _UINT64_MAX:
                raise DomainError(f"{name} must be an unsigned 64-bit integer, got {value!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def as_sample(x, min_n: int, what: str = "sample") -> np.ndarray:
    """Validate and convert ``x`` to a finite 1-D float array of length >= min_n."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size < min_n:
        raise SizeError(f"{what} needs at least {min_n} observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise DataError(f"{what} contains a non-finite value at position {bad}")
    return arr


def is_rounding_noise(spread, max_abs, n: int):
    """True where a standard deviation is indistinguishable from rounding noise.

    ``spread`` (an sd or the root of a central second moment) counts as zero
    when it is at most ``4 * n * eps * max_abs``, with ``max_abs`` the largest
    |x| of the sample. Constant samples then read as constant however their
    mean rounds. Works elementwise on arrays of per-row values.
    """
    bound = _NOISE_ULPS_PER_POINT * n * np.finfo(float).eps * np.asarray(max_abs, dtype=float)
    return np.asarray(spread, dtype=float) <= bound


def _overflow_shift(max_abs, n: int):
    """Binary exponent to scale a sample down by before squaring; 0 where none is needed.

    ``n`` centred squares, each at most (2 max|x|)^2, can overflow their sum once
    max|x| > sqrt(max_float / 4n); such samples get the exponent of max|x|
    (``np.frexp``). Power-of-two scaling is exact. Works elementwise on arrays.
    """
    big = np.asarray(max_abs) > math.sqrt(_FLOAT_MAX / (4.0 * n))
    return np.where(big, np.frexp(max_abs)[1], 0)


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"gaussian_cdf requires a finite argument, got {z!r}")
    return float(sc.ndtr(z))


def gaussian_quantile(p: float) -> float:
    """Inverse of the standard normal CDF on (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"gaussian_quantile requires p in (0, 1), got {p!r}")
    return float(sc.ndtri(p))


def student_t_quantile(p: float, df: float) -> float:
    """Inverse CDF of the Student-t distribution with ``df`` degrees of freedom."""
    p = float(p)
    df = float(df)
    if not 0.0 < p < 1.0:
        raise DomainError(f"student_t_quantile requires p in (0, 1), got {p!r}")
    if not (math.isfinite(df) and df > 0.0):
        raise DomainError(f"student_t_quantile requires df > 0, got {df!r}")
    return float(sc.stdtrit(df, p))


def type7_quantile(x, p: float) -> float:
    """Interpolated order-statistic quantile with h = p*(n-1) + 1.

    This is the R/S default ("type 7"); for p -> 0 it tends to the sample
    minimum and for p -> 1 to the maximum.
    """
    arr = as_sample(x, 1, "type7_quantile")
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"type7_quantile requires p in (0, 1), got {p!r}")
    srt = np.sort(arr)
    return float(_type7_sorted_rows(srt[None, :], p)[0])


def _type7_sorted_rows(sorted_rows: np.ndarray, p: float) -> np.ndarray:
    """Type-7 quantile per row of an ascending-sorted (m, n) array."""
    n = sorted_rows.shape[-1]
    h = p * (n - 1) + 1.0
    j = int(math.floor(h))
    g = h - j
    if j >= n:
        return sorted_rows[..., n - 1].astype(float, copy=True)
    lo = sorted_rows[..., j - 1]
    if g == 0.0:
        return lo.astype(float, copy=True)
    return lo + g * (sorted_rows[..., j] - lo)


def draw_gaussian(rng: SeededRng, count: int, mu: float, sigma: float) -> np.ndarray:
    """``count`` i.i.d. N(mu, sigma^2) draws; deterministic given ``rng``."""
    if int(count) < 1:
        raise DomainError(f"count must be positive, got {count!r}")
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise DomainError(f"sigma must be >= 0, got {sigma!r}")
    gen = rng.generator()
    return gen.normal(float(mu), sigma, int(count))


def draw_pivotal_pairs(rng: SeededRng, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent draws of (Z, V_n): Z standard normal, V_n chi_{n-1}.

    All Z values are drawn first, then all V values, so the output is a pure
    function of ``(rng, n, count)``.
    """
    n = int(n)
    if n < 2:
        raise SizeError(f"pivotal pair needs window size n >= 2, got {n}")
    if int(count) < 1:
        raise DomainError(f"count must be positive, got {count!r}")
    gen = rng.generator()
    z = gen.standard_normal(int(count))
    v = np.sqrt(gen.chisquare(n - 1, int(count)))
    return z, v
