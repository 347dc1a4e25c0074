"""Deterministic statistical primitives shared by every other module.

These are sample validation, the type-7 quantile of sorted rows, the
standard normal quantile and CDF, and the random draws. Draws come from the counter-based
Philox bit generator keyed by ``(seed, stream_id)``, so identical keys
reproduce identical sequences on every platform and distinct stream ids give
statistically independent streams.

The normal quantile :func:`ndtri` is a port of Cephes' ``ndtri`` (S. L. Moshier),
the routine ``scipy.special.ndtri`` runs, and returns its bits. The CDF :func:`ndtr`
is 0.5*erfc(-u/sqrt(2)) on ``math.erfc``, for the short node vectors of the
quadratures. Neither needs scipy, so importing the package does not import it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, SizeError

_UINT64_MAX = 2**64 - 1
_CHUNK_TRIALS = 1 << 20  # a constant: a trial's draws depend only on the seed and its index


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

    def generator(self, reuse: np.random.Generator | None = None) -> np.random.Generator:
        """A generator at the start of this stream: a fresh one, or the Philox generator ``reuse``
        re-keyed in place (key, counter 0, empty buffers), the same draws at an eighth of the cost."""
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        if reuse is None:
            return np.random.Generator(np.random.Philox(key=key))
        empty = np.zeros(4, np.uint64)
        reuse.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": empty, "key": key},
                                     "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return reuse


def as_sample(x, min_n: int, what: str = "sample") -> np.ndarray:
    """``x`` as a finite 1-D float array of at least ``min_n`` points; other shapes raise, never reshaped."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size < min_n:
        noun = "observation" if min_n == 1 else "observations"
        raise SizeError(f"{what} needs at least {min_n} {noun}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise DataError(f"{what} contains a non-finite value at position {bad}")
    return arr


# Cephes ndtri (S. L. Moshier): a rational approximation in y - 1/2 for the centre,
# and in 1/x, x = sqrt(-2 log y), for the tails above and below exp(-32)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _horner(x: float, coefs, monic: bool = False) -> float:
    """The polynomial with ``coefs`` (highest power first) at x; ``monic`` adds a leading 1."""
    value = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        value = value * x + c
    return value


def ndtri(p: float) -> float:
    """Phi^{-1}(p), the standard normal quantile, for one float p in (0, 1).

    A port of the Cephes ``ndtri`` that ``scipy.special.ndtri`` runs, with the same
    operations in the same order, so it returns the same bits.
    """
    y = float(p)
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0, True))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p_tail, q_tail = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x - math.log(x) / x - z * _horner(z, p_tail) / _horner(z, q_tail, True)
    return x if upper else -x


_erf, _erfc = np.frompyfunc(math.erf, 1, 1), np.frompyfunc(math.erfc, 1, 1)


def ndtr(u, centred: bool = False) -> np.ndarray:
    """Phi(u), the standard normal CDF, elementwise as 0.5*erfc(-u/sqrt(2)) with libm's erfc.

    In the left tail erfc keeps Phi's relative accuracy, and in the right tail its
    absolute accuracy, as Cephes' ``ndtr`` does; each value lies within (8 + u^2) eps,
    relative, of ``scipy.special.ndtr`` (both round u/sqrt(2), which moves Phi by about
    u^2 ulps). ``centred`` gives Phi(u) - 1/2 as 0.5*erf(u/sqrt(2)) instead, which keeps
    its relative accuracy near u = 0. One Python call per element: meant for quadrature
    nodes, not for large arrays.
    """
    x = np.multiply(u, math.sqrt(0.5))
    return 0.5 * (_erf(x) if centred else _erfc(-x)).astype(float)


def _type7_index(n: int, p: float) -> tuple[int, float]:
    """(j, g) of the type-7 p-quantile of n sorted points: x[j-1] + g*(x[j] - x[j-1]), 1-based j."""
    h = p * (n - 1) + 1.0
    j = int(math.floor(h))
    return j, h - j


def _type7_sorted_rows(sorted_rows: np.ndarray, p: float) -> np.ndarray:
    """Type-7 quantile (h = p*(n-1) + 1) per row of an ascending-sorted (m, n) array."""
    n = sorted_rows.shape[-1]
    j, g = _type7_index(n, p)
    if j >= n:
        return sorted_rows[..., n - 1].astype(float, copy=True)
    lo = sorted_rows[..., j - 1]
    if g == 0.0:
        return lo.astype(float, copy=True)
    return lo + g * (sorted_rows[..., j] - lo)


def draw_gaussian(rng: SeededRng | np.random.Generator, count: int, mu: float, sigma: float,
                  out=None) -> np.ndarray:
    """``count`` i.i.d. N(mu, sigma^2) draws, into ``out`` if given; deterministic given ``rng``.

    ``rng`` is a :class:`SeededRng`, drawn from the start of its stream, or a numpy
    ``Generator``, drawn from where it stands. Standard normals times sigma plus mu:
    ``gen.normal(mu, sigma, count)`` bit for bit.
    """
    if int(count) < 1:
        raise DomainError(f"count must be positive, got {count!r}")
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise DomainError(f"sigma must be >= 0, got {sigma!r}")
    gen = rng if isinstance(rng, np.random.Generator) else rng.generator()
    out = gen.standard_normal(int(count), out=out)
    out *= sigma
    out += float(mu)
    return out


def draw_pivotal_chunk(seed: int, chunk: int, n: int, z: np.ndarray, v: np.ndarray) -> None:
    """Chunk ``chunk``'s (Z, V_n) pairs into the float64 arrays ``z`` and ``v``, of one length.

    Z is standard normal from ``SeededRng(seed, 3*chunk)``. V_n is chi_{n-1}, drawn as
    sqrt(2 * standard_gamma((n-1)/2)) from ``(seed, 3*chunk + 1)``: numpy's ``chisquare``
    is 2 * ``standard_gamma``, so these are the bits of sqrt(chisquare(n-1)), with no
    temporary. Stream ``3*chunk + 2`` is left to the checks' next outcome.
    """
    SeededRng(seed, 3 * chunk).generator().standard_normal(out=z)
    SeededRng(seed, 3 * chunk + 1).generator().standard_gamma(0.5 * (n - 1), out=v)
    v *= 2.0
    np.sqrt(v, out=v)


def _usable_cpus() -> int:
    """How many CPUs this process may run on (all of them where no affinity call exists)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def draw_pivotal_pairs(rng: SeededRng, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent draws of (Z, V_n): Z standard normal, V_n chi_{n-1}.

    Trial i is row i % 2^20 of chunk i // 2^20 of :func:`draw_pivotal_chunk` on ``rng.seed``,
    so the output is a pure function of ``(rng.seed, n, count)`` and a shorter draw is a
    prefix of a longer one. ``rng``'s stream id must be 0: the chunks own the streams.
    The chunks run on a thread pool, one thread per usable CPU; numpy releases the GIL
    while it fills a chunk, and each chunk writes its own rows, so any number of threads
    gives the same bits.
    """
    n = int(n)
    if n < 2:
        raise SizeError(f"pivotal pair needs window size n >= 2, got {n}")
    if int(count) < 1:
        raise DomainError(f"count must be positive, got {count!r}")
    if rng.stream_id != 0:
        raise DomainError(f"pivotal pairs own every stream of their seed, got stream_id {rng.stream_id}")
    z, v = np.empty(int(count)), np.empty(int(count))

    def draw(start):
        rows = slice(start, start + _CHUNK_TRIALS)
        draw_pivotal_chunk(rng.seed, start // _CHUNK_TRIALS, n, z[rows], v[rows])

    from concurrent.futures import ThreadPoolExecutor  # here: at import it would add to startup time

    starts = range(0, z.size, _CHUNK_TRIALS)
    with ThreadPoolExecutor(min(_usable_cpus(), len(starts))) as pool:
        list(pool.map(draw, starts))
    return z, v
