"""Calibration tables and the Monte Carlo checks of the unbiased estimators.

The unbiased Gaussian ES estimator is ``-mean - sd * a_n`` where ``a_n < 0``
solves the pivotal condition ES_alpha(Z + b_n * V_n) = 0 with Z standard
normal, V_n chi_{n-1} and ``a_n = -b_n * sqrt((n-1)(n+1)/n)``. The ES kernel
reads the exact, cached ``a_n`` of :func:`exact_unbiased_es_constant`, which
lives in :mod:`riskbench.estimators` and carries no Monte Carlo error; no
table is needed. A :class:`CalibrationTable` is optional: an entry it stores
for (n, alpha) takes precedence over the exact constant, and a lookup it
does not hold returns the exact constant without storing it.

:func:`solve_unbiased_es_constant` solves the same condition by bisection on
one fixed Monte Carlo sample (common random numbers), which makes the
objective monotone and the result bit-reproducible. It serves as an
independent cross-check of the quadrature. Its later steps read only the rows
that can still be in the tail, and the full sample wherever rounding could
change a decision, so every output bit is that of the plain bisection.

The Monte Carlo checks test the defining properties: unbiased VaR is exceeded
with probability alpha (:func:`pivotality_check`), and the secured position of
unbiased ES has ES zero (:func:`secured_position_es`). They simulate the pivot,
not the window: for n i.i.d. N(mu, sigma^2) returns the mean is mu + sigma*Z/sqrt(n)
and the sd is sigma*V/sqrt(n-1), with Z ~ N(0, 1) independent of V ~ chi_{n-1},
and the next outcome is mu + sigma*W with W ~ N(0, 1). The kernels read the drawn
moments as a :class:`WindowStats` without windows, so the checks take
location-scale methods only. Chunk c of 2^20 trials draws Z, V and W from the
streams ``SeededRng(seed, 3c)``, ``(seed, 3c+1)`` and ``(seed, 3c+2)``, so a
shorter run is a prefix of a longer one.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .data_io import write_text
from .errors import CalibrationFailureError, DataError, DomainError, SizeError
from .estimators import (
    _MAX_DOUBLINGS,
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
from .stats_core import SeededRng, draw_pivotal_pairs

TABLE_FORMAT_VERSION = 2
_READABLE_TABLE_VERSIONS = (1, 2)
DEFAULT_MC_SAMPLES = 10_000_000
_TOLERANCE = 1e-4
_BISECTION_WIDTH = 1e-8
_ALPHA_KEY_SCALE = 1_000_000
_CHUNK_TRIALS = 1 << 20  # a constant: a trial's draws depend only on the seed and its index


def _optional_int(value):
    return None if value is None else int(value)


def _alpha_key(alpha: float) -> int:
    return int(round(float(alpha) * _ALPHA_KEY_SCALE))


@dataclass
class CalibrationTable:
    """Calibration entries keyed by (n, alpha @ 1e-6), with the exact constant behind them.

    Lookups match keys exactly: a_n varies sharply in n at small n, so no
    interpolation is offered. A key the table does not hold falls back to
    :func:`exact_unbiased_es_constant`, which is not stored.
    """

    entries: dict = field(default_factory=dict)
    version: int = TABLE_FORMAT_VERSION

    @staticmethod
    def key(n: int, alpha: float) -> tuple[int, int]:
        return int(n), _alpha_key(alpha)

    def add(self, entry: CalibrationEntry) -> None:
        self.entries[self.key(entry.n, entry.alpha)] = entry

    def lookup(self, n: int, alpha: float) -> CalibrationEntry:
        entry = self.entries.get(self.key(n, alpha))
        return exact_unbiased_es_constant(n, alpha) if entry is None else entry

    def save(self, path) -> None:
        """Write the table as JSON; a path that cannot be written raises :class:`OutputError`."""
        records = [asdict(e) for _, e in sorted(self.entries.items())]
        text = json.dumps({"version": self.version, "entries": records}, indent=2, sort_keys=True)
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
    """Negative mean of the ceil(alpha * m) smallest values.

    This is the lower-tail average used as the Monte Carlo oracle for the
    expected-shortfall condition; ties are resolved by taking exactly
    ceil(alpha * m) order statistics.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise SizeError("empirical_es needs a non-empty sample")
    tail = _tail_count(RiskLevel(alpha), arr.size)
    if tail == arr.size:
        return -float(arr.mean())
    return -float(np.partition(arr, tail - 1)[:tail].mean())


def _undecided(g: float, head: np.ndarray) -> bool:
    """Whether g on the candidate rows may differ from the full sample's g in a decision.

    Both are -fl(S/t) with S the sum of the same t values ``head`` in two orders.
    Any order errs by at most gamma_{t-1} * sum|x|, gamma_k = k*u/(1 - k*u) with
    u = eps/2 (Higham, Accuracy and Stability of Numerical Algorithms, 4.2), and
    each division adds u*|g|, so the two g differ by about eps * (sum|x| + |g|)
    at most. The band is twice that, to cover the rounding of sum|x| itself.
    """
    band = 2.0 * np.finfo(float).eps * (float(np.abs(head).sum()) + abs(g))
    return abs(g) <= band or abs(abs(g) - _TOLERANCE) <= band


def solve_unbiased_es_constant(
    n: int,
    alpha,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> CalibrationEntry:
    """Bisection for b_n with ES_alpha(Z + b_n V_n) = 0 on one fixed MC sample.

    The sample is drawn once from ``SeededRng(seed)``; the objective
    g(b) = empirical_es(z + b*v) is then monotone non-increasing in b, so the
    bisection terminates deterministically. Stops when the bracket is below
    1e-8 or |g| falls below 1e-4, whichever comes first.

    V_n > 0, so each z + b*v, rounded, is non-decreasing in b, and so is q(b),
    the tail-th smallest of them: within the bracket [lo, hi] a row can be in
    the tail only if z + lo*v <= q(hi). Once at most a quarter of the rows pass,
    each later step reads g on those rows alone, the same tail summed in another
    order. Where that g lies in the rounding band of a decision (the sign of g,
    and |g| <= 1e-4: :func:`_undecided`), the step re-reads the full sample, as
    does the returned residual, so every output bit is the plain bisection's.
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
    buf = np.empty(mc_samples)  # one buffer for every evaluation: no fresh pages per step

    def at(b, rows):  # z + b*v over ``rows``, in ``buf``: the operations of ``z + b * v``
        out = buf[: rows[0].size]
        return np.add(rows[0], np.multiply(rows[1], b, out=out), out=out)

    def g(b, rows=(z, v)):
        """empirical_es(z + b*v) over ``rows``, the tail it averages, and q(b) (inf: keep all)."""
        values = at(b, rows)
        if tail == values.size:
            return -float(values.mean()), values, math.inf
        values.partition(tail - 1)  # the introselect of np.partition, in place
        return -float(values[:tail].mean()), values[:tail], float(values[tail - 1])

    if g(0.0)[0] <= 0.0:
        raise CalibrationFailureError(
            "empirical ES at b = 0 is already non-positive; no positive root exists"
        )
    hi = 1.0
    for _ in range(_MAX_DOUBLINGS):
        g_hi, _, q_hi = g(hi)
        if g_hi < 0.0:
            break
        hi *= 2.0
    else:
        raise CalibrationFailureError(
            f"could not bracket the root within {_MAX_DOUBLINGS} doublings"
        )

    lo = 0.0
    rows = (z, v)  # every row that can be among the tail smallest for b in [lo, hi]
    while hi - lo > _BISECTION_WIDTH:
        b = 0.5 * (lo + hi)
        gb, head, q = g(b, rows)
        if rows[0] is not z and _undecided(gb, head):
            gb = g(b)[0]
        if abs(gb) <= _TOLERANCE:
            break
        if gb < 0.0:
            hi, q_hi = b, q
        else:
            lo = b
        if 4 * tail <= mc_samples:  # else the candidates never shrink to a quarter
            keep = at(lo, rows) <= q_hi
            if 4 * np.count_nonzero(keep) <= mc_samples:
                index = np.flatnonzero(keep)  # take: about twice as fast as a boolean mask here
                rows = (rows[0].take(index), rows[1].take(index))
    residual = abs(g(b)[0])

    a_n = -b * math.sqrt((n - 1) * (n + 1) / n)
    return CalibrationEntry(
        n=n,
        alpha=float(alpha),
        b_n=float(b),
        a_n=float(a_n),
        mc_samples=mc_samples,
        seed=int(seed),
        residual=float(residual),
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

    Checks its arguments, then draws lazily: (first trial, chunk) per 2^20 trials.
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
        z, v, w = (SeededRng(int(seed), 3 * chunk + k).generator() for k in range(3))
        means = params.mu + params.sigma / math.sqrt(n) * z.standard_normal(rows)
        sds = params.sigma / math.sqrt(n - 1) * np.sqrt(v.chisquare(n - 1, rows))
        caps = batch(method, WindowStats(None, None, means, sds, n), alpha, table=table)
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
