"""Calibration tables and the Monte Carlo checks of the unbiased estimators.

The unbiased Gaussian ES estimator is ``-mean - sd * a_n`` where ``a_n < 0``
solves the pivotal condition ES_alpha(Z + b_n * V_n) = 0 with Z standard
normal, V_n chi_{n-1} and ``a_n = -b_n * sqrt((n-1)(n+1)/n)``. The ES kernel
reads the exact, cached ``a_n`` of :func:`exact_unbiased_es_constant`, which
lives in :mod:`riskbench.estimators` and carries no Monte Carlo error; no
table is needed. A :class:`CalibrationTable` is optional: an entry it stores
for (n, alpha) takes precedence over the exact constant, and a lookup it
does not hold returns the exact constant without storing it.

:func:`solve_unbiased_es_constant` solves the same condition exactly on one
fixed Monte Carlo sample (common random numbers), which makes it
bit-reproducible. It serves as an independent cross-check of the quadrature.
On the sample the condition is convex and piecewise linear in b, so Newton's
steps on the tail set (Dinkelbach's iteration) reach its root in a few steps.
The quadrature b_n only guesses which rows can be in the tail; each step checks
that guess, and reads the full sample where it fails, with the same bits.

The Monte Carlo checks test the defining properties: unbiased VaR is exceeded
with probability alpha (:func:`pivotality_check`), and the secured position of
unbiased ES has ES zero (:func:`secured_position_es`). They simulate the pivot,
not the window: for n i.i.d. N(mu, sigma^2) returns the mean is mu + sigma*Z/sqrt(n)
and the sd is sigma*V/sqrt(n-1), with Z ~ N(0, 1) independent of V ~ chi_{n-1},
and the next outcome is mu + sigma*W with W ~ N(0, 1). The kernels read the drawn
moments as a :class:`WindowStats` without windows, so the checks take
location-scale methods only. Chunk c of 2^20 trials draws Z, V and W from the
streams ``SeededRng(seed, 3c)``, ``(seed, 3c+1)`` and ``(seed, 3c+2)``, so a
shorter run is a prefix of a longer one. The solver's sample is the same chunks'
(Z, V) pairs, drawn by :func:`draw_pivotal_pairs` with the chunks spread over threads.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .data_io import write_text
from .errors import CalibrationFailureError, DataError, DomainError, SizeError
from .estimators import (
    CalibrationEntry,
    GaussianParams,
    RiskLevel,
    WindowStats,
    batch_es_capitals,
    batch_var_capitals,
    canonical_method,
    exact_unbiased_es_constant,
)
from .estimators import _exact_entry  # noqa: F401  (its cache_clear() empties the a_n cache)
from .estimators import window_stats  # noqa: F401  (perfbench's tracer wraps this name here)
from .stats_core import _CHUNK_TRIALS, SeededRng, as_sample, draw_pivotal_chunk, draw_pivotal_pairs

TABLE_FORMAT_VERSION = 2
_READABLE_TABLE_VERSIONS = (1, 2)
DEFAULT_MC_SAMPLES = 10_000_000
_PASS_ROWS = 1 << 16  # rows per chunk of the candidate pass


def _optional_int(value):
    return None if value is None else int(value)


@dataclass
class CalibrationTable:
    """Calibration entries keyed by (n, alpha), with the exact constant behind them.

    Lookups match keys exactly, alpha to the bit (JSON keeps a stored alpha's bits): a_n
    varies sharply in n at small n and in alpha at small alpha, so no interpolation or
    rounding is offered. A key the table does not hold falls back to
    :func:`exact_unbiased_es_constant`, which is not stored.
    """

    entries: dict = field(default_factory=dict)

    @staticmethod
    def key(n: int, alpha: float) -> tuple[int, float]:
        return int(n), float(alpha)

    def add(self, entry: CalibrationEntry) -> None:
        self.entries[self.key(entry.n, entry.alpha)] = entry

    def lookup(self, n: int, alpha: float) -> CalibrationEntry:
        entry = self.entries.get(self.key(n, alpha))
        return exact_unbiased_es_constant(n, alpha) if entry is None else entry

    def save(self, path) -> None:
        """Write the table as JSON; a path that cannot be written raises :class:`OutputError`."""
        records = [asdict(e) for _, e in sorted(self.entries.items())]
        text = json.dumps({"version": TABLE_FORMAT_VERSION, "entries": records}, indent=2, sort_keys=True)
        write_text(path, text + "\n", "calibration table")

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        """Read a table file; a missing, unreadable or malformed one raises :class:`DataError`.

        Version-1 files, which predate ``source``, hold Monte Carlo entries
        only; they load into a current-version table.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            version = payload.get("version")
            if version not in _READABLE_TABLE_VERSIONS:
                raise DataError(f"unsupported calibration table version {version!r}")
            table = cls()
            for rec in payload["entries"]:
                table.add(
                    CalibrationEntry(
                        n=int(rec["n"]),
                        alpha=float(rec["alpha"]),
                        b_n=float(rec["b_n"]),
                        a_n=float(rec["a_n"]),
                        mc_samples=_optional_int(rec["mc_samples"]),
                        seed=_optional_int(rec["seed"]),
                        residual=float(rec["residual"]),
                        source=rec.get("source", "monte_carlo"),
                    )
                )
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"cannot read calibration table {path}: {exc}") from exc
        return table

    @classmethod
    def load_or_new(cls, path) -> "CalibrationTable":
        """The table at ``path``, or an empty table if no file exists there yet."""
        return cls.load(path) if os.path.exists(path) else cls()


def _tail_count(alpha, m: int) -> int:
    """ceil(alpha * m) clamped to [1, m]: how many of m values an ES averages."""
    # the 1e-9 guards against alpha * m landing an ulp above an integer
    return min(max(int(math.ceil(alpha * m - 1e-9)), 1), m)


def empirical_es(values, alpha) -> float:
    """Negative mean of the ceil(alpha * m) smallest of m values, a finite 1-D sample.

    This is the lower-tail average used as the Monte Carlo oracle for the
    expected-shortfall condition; ties are resolved by taking exactly
    ceil(alpha * m) order statistics.
    """
    arr = as_sample(values, 1, "empirical_es").copy()  # a copy, which the partition reorders
    tail = _tail_count(RiskLevel(alpha), arr.size)
    if tail < arr.size:
        arr.partition(tail - 1)  # the introselect of np.partition, in place
    return -float(arr[:tail].mean())


def _candidates(z: np.ndarray, v: np.ndarray, tail: int, n: int, alpha):
    """The rows that can hold the tail near the quadrature b_n: (z rows, v rows, guess, b_l, c).

    One pass in chunks keeps the rows with z + b_l*v <= c, where [b_l, b_h] is the
    quadrature guess -+ 8 MC standard errors and c a widened quantile of z + b_h*v
    on the first chunk. V_n > 0, so each rounded z + b*v is non-decreasing in b: at
    any b >= b_l every row not kept exceeds c, and a tail of the kept rows whose
    largest value is <= c is the full sample's tail. A quadrature that raises, or
    kept rows fewer than the tail or over half the sample, give None: the guess only
    saves time.
    """
    try:
        guess = exact_unbiased_es_constant(n, alpha).b_n
    except CalibrationFailureError:
        return None
    delta = 8.0 * guess / math.sqrt(tail)  # the root's MC sd is ~1.2 guess/sqrt(tail) at n = 2
    b_l, b_h = max(guess - delta, 0.0), guess + delta
    first = tail * _PASS_ROWS / z.size  # the first chunk's tail count, widened by 6 sd
    rank = int(first + 6.0 * math.sqrt(first) + 6.0)
    c = np.partition(z[:_PASS_ROWS] + b_h * v[:_PASS_ROWS], rank)[rank]
    parts = []
    for start in range(0, z.size, _PASS_ROWS):
        zs, vs = z[start : start + _PASS_ROWS], v[start : start + _PASS_ROWS]
        index = np.flatnonzero(zs + b_l * vs <= c)  # take: about twice as fast as a boolean mask
        parts.append((zs.take(index), vs.take(index)))
    rows = tuple(np.concatenate(part) for part in zip(*parts))
    return (*rows, guess, b_l, c) if tail <= rows[0].size <= z.size // 2 else None


def _sample_root(tail: int, z, v, b: float = 0.0, b_l: float = -math.inf, c: float = math.inf):
    """Newton's steps from b to the root of g(b) = -sum_{S(b)} (z + b*v) / tail: (root, sums).

    S(b) is the ``tail`` rows with the smallest z + b*v, ties to the earlier row. g is
    the negative of a minimum of lines, so it is convex and piecewise linear, and it
    falls because v > 0. The step from b is the root of S(b)'s line, -sum z / sum v.
    It lands at or below the root, so after the first step the steps rise, and they
    stop once S(b) repeats: the first step that does not rise is the root. Both sums
    run over S(b) in row order, so no arrangement of the partition moves their bits.
    None once a step falls below b_l or a tail's largest value exceeds c.
    """
    x = np.empty_like(z)  # z + b*v, one step at a time
    for step in itertools.count():
        np.multiply(v, b, out=x)
        x += z
        x.partition(tail - 1)  # the introselect of np.partition, in place
        q = x[tail - 1]
        if b < b_l or q > c:
            return None
        np.multiply(v, b, out=x)  # z + b*v again, in row order
        x += z
        index = np.flatnonzero(x <= q)
        if index.size > tail:  # rows tied at q: drop the last of them
            ties = index[x[index] == q]
            index = np.setdiff1d(index, ties[tail - index.size :], assume_unique=True)
        sums = float(z.take(index).sum()), float(v.take(index).sum())
        root = -sums[0] / sums[1]
        if step and root <= b:
            return root, sums
        b = root


def solve_unbiased_es_constant(
    n: int,
    alpha,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> CalibrationEntry:
    """The root b_n of ES_alpha(Z + b_n V_n) = 0 on one fixed MC sample, solved exactly.

    The sample is drawn once, as the (Z, V) pairs of the 2^20-trial chunks on
    ``seed``'s streams (:func:`draw_pivotal_pairs`), and :func:`_sample_root`
    solves it. Its steps read the candidate rows of :func:`_candidates` from the
    quadrature b_n while each step keeps the full sample's tail, and the full
    sample from b = 0 otherwise, with the same bits. The residual is
    |sum z + b_n * sum v| / tail over the root's tail set. A root that is not
    positive raises :class:`CalibrationFailureError`.
    """
    n = int(n)
    if n < 2:
        raise SizeError(f"calibration needs window size n >= 2, got {n}")
    mc_samples = int(mc_samples)
    if mc_samples < 100_000:
        raise DomainError(f"mc_samples must be at least 1e5, got {mc_samples}")
    alpha = RiskLevel(alpha)

    z, v = draw_pivotal_pairs(SeededRng(int(seed)), n, mc_samples)
    tail = _tail_count(alpha, mc_samples)
    rows = 2 * tail <= mc_samples and _candidates(z, v, tail, n, alpha)
    solved = rows and _sample_root(tail, *rows)
    del rows  # the candidate rows go before a full-sample read
    b, (sum_z, sum_v) = solved or _sample_root(tail, z, v)
    if b <= 0.0:
        raise CalibrationFailureError(f"the sample's root is b = {b!r}; no positive root exists")
    return CalibrationEntry(
        n=n,
        alpha=float(alpha),
        b_n=b,
        a_n=-b * math.sqrt((n - 1) * (n + 1) / n),
        mc_samples=mc_samples,
        seed=int(seed),
        residual=abs(sum_z + b * sum_v) / tail,
    )


@dataclass(frozen=True)
class ExceedanceCheck:
    """Monte Carlo exceedance frequency of secured positions."""

    method: str
    n: int
    alpha: float
    trials: int
    exceedances: int
    frequency: float
    standard_error: float


def _secured_chunks(method, n, alpha, trials, seed, params, measure, table):
    """x_out + capital over ``trials`` simulated Gaussian windows, each drawn as (Z, V, W).

    Checks its arguments, then draws lazily: (first trial, chunk) per 2^20 trials, with
    Z and V from :func:`draw_pivotal_chunk` and W from the chunk's third stream.
    """
    method = canonical_method(method)
    n = int(n)
    if n < 2:
        raise SizeError(f"simulation needs window size n >= 2, got {n}")
    trials = int(trials)
    if trials < 10_000:
        raise DomainError(f"trials must be at least 1e4, got {trials}")
    alpha = RiskLevel(alpha)
    if params is None:
        params = GaussianParams(0.0, 1.0)
    batch = batch_var_capitals if measure == "var" else batch_es_capitals

    def draw(start):
        chunk, rows = start // _CHUNK_TRIALS, min(_CHUNK_TRIALS, trials - start)
        means, sds = np.empty(rows), np.empty(rows)
        draw_pivotal_chunk(int(seed), chunk, n, means, sds)
        means *= params.sigma / math.sqrt(n)
        means += params.mu
        sds *= params.sigma / math.sqrt(n - 1)
        caps = batch(method, WindowStats(None, None, means, sds, n), alpha, table=table)
        w = SeededRng(int(seed), 3 * chunk + 2).generator()
        return start, w.normal(params.mu, params.sigma, rows) + caps

    return map(draw, range(0, trials, _CHUNK_TRIALS))


def pivotality_check(method, n, alpha, trials, seed, params=None) -> ExceedanceCheck:
    """MC frequency of {X_out + VaR capital < 0} over simulated Gaussian windows.

    Each window is its pivot (Z, V), so ``method`` must be location-scale:
    ``gaussian``, ``gaussian_unbiased`` or ``mean``. For an unbiased estimator
    the frequency equals alpha up to Monte Carlo noise, for any (mu, sigma);
    the reported standard error is sqrt(p(1-p)/trials).
    """
    chunks = _secured_chunks(method, n, alpha, trials, seed, params, "var", None)
    exceed = sum(int(np.count_nonzero(secured < 0.0)) for _, secured in chunks)
    trials = int(trials)
    freq = exceed / trials
    se = math.sqrt(max(freq * (1.0 - freq), 1e-300) / trials)
    return ExceedanceCheck(
        method=canonical_method(method),
        n=int(n),
        alpha=float(RiskLevel(alpha)),
        trials=trials,
        exceedances=exceed,
        frequency=freq,
        standard_error=se,
    )


def secured_position_es(method, n, alpha, trials, seed, params=None, table=None) -> float:
    """Empirical ES of {X_out + ES capital} — the defining unbiasedness quantity.

    Near zero for an unbiased ES estimator; strictly positive when risk is
    systematically underestimated. Windows and methods as in :func:`pivotality_check`.
    """
    chunks = _secured_chunks(method, n, alpha, trials, seed, params, "es", table)
    secured = np.empty(int(trials))
    for start, chunk in chunks:
        secured[start : start + chunk.size] = chunk
    del chunk  # held, the last chunk pins heap that the partition in empirical_es would reuse
    return empirical_es(secured, alpha)
