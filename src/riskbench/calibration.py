"""Calibration of the unbiased Expected Shortfall constant.

The unbiased Gaussian ES estimator is ``-mean - sd * a_n`` where ``a_n < 0``
solves the pivotal condition ES_alpha(Z + b_n * V_n) = 0 with Z standard
normal, V_n chi_{n-1} and ``a_n = -b_n * sqrt((n-1)(n+1)/n)``.

:func:`exact_unbiased_es_constant` computes ``a_n`` deterministically. With
Y = Z + b*V the condition reduces to one-dimensional integrals over V,

    P(Y < q) = E[Phi(q - b*V)],
    E[Y * 1{Y < q}] = E[b*V * Phi(q - b*V) - phi(q - b*V)],

evaluated by Gauss-Legendre quadrature in log V. The node count doubles
until two successive roots agree to 1e-10 relative. This is the constant
``riskbench calibrate`` and on-demand table filling
(:meth:`CalibrationTable.ensure`) store; it carries no Monte Carlo error.

:func:`solve_unbiased_es_constant` solves the same condition by bisection on
one fixed Monte Carlo sample (common random numbers), which makes the
objective monotone and the result bit-reproducible. It serves as an
independent cross-check of the quadrature.

This module also hosts the Monte Carlo verification utilities for the
defining unbiasedness properties: the exceedance frequency of secured
positions for VaR and the empirical ES of secured positions for ES.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.special as sc
from scipy import optimize

from .errors import (
    CalibrationFailureError,
    CalibrationMissingError,
    DataError,
    DomainError,
    SizeError,
)
from .estimators import (
    GaussianParams,
    RiskLevel,
    batch_es_capitals,
    batch_var_capitals,
    canonical_method,
    window_stats,
)
from .stats_core import SeededRng, draw_pivotal_pairs

TABLE_FORMAT_VERSION = 2
_READABLE_TABLE_VERSIONS = (1, 2)
CALIBRATION_SOURCES = ("monte_carlo", "quadrature")
DEFAULT_MC_SAMPLES = 10_000_000
DEFAULT_TOLERANCE = 1e-4
_BISECTION_WIDTH = 1e-8
_MAX_DOUBLINGS = 60
_ALPHA_KEY_SCALE = 1_000_000
_QUADRATURE_NODES = 64
_MAX_QUADRATURE_NODES = 4096
_QUADRATURE_RTOL = 1e-10
_CHI_TAIL_MASS = 1e-18
_ROOT_XTOL = 1e-300  # brentq then stops on rtol alone; roots span 1e-7 to 1e6
_ROOT_RTOL = 4.0 * np.finfo(float).eps


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


def _optional_int(value):
    return None if value is None else int(value)


def _alpha_key(alpha: float) -> int:
    return int(round(float(alpha) * _ALPHA_KEY_SCALE))


@dataclass
class CalibrationTable:
    """Lookup table of calibration entries keyed by (n, alpha @ 1e-6).

    Lookups are exact-match only: a_n varies sharply in n at small n, so no
    interpolation is offered.
    """

    entries: dict = field(default_factory=dict)
    version: int = TABLE_FORMAT_VERSION

    @staticmethod
    def key(n: int, alpha: float) -> tuple[int, int]:
        return int(n), _alpha_key(alpha)

    def add(self, entry: CalibrationEntry) -> None:
        self.entries[self.key(entry.n, entry.alpha)] = entry

    def lookup(self, n: int, alpha: float) -> CalibrationEntry:
        try:
            return self.entries[self.key(n, alpha)]
        except KeyError:
            raise CalibrationMissingError(
                f"no calibration entry for (n={n}, alpha={float(alpha):.6g}); "
                "run `riskbench calibrate` or enable on-demand calibration"
            ) from None

    def ensure(self, n: int, alpha: float) -> CalibrationEntry:
        """Return the stored entry, storing the exact constant first if missing."""
        key = self.key(n, alpha)
        if key not in self.entries:
            self.add(exact_unbiased_es_constant(n, alpha))
        return self.entries[key]

    def to_json(self) -> str:
        records = [asdict(e) for _, e in sorted(self.entries.items())]
        return json.dumps({"version": self.version, "entries": records}, indent=2, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        """Read a table file. Version-1 files, which predate ``source``, hold
        Monte Carlo entries only; they load into a current-version table."""
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
        return table

    @classmethod
    def load_or_new(cls, path) -> "CalibrationTable":
        if path is not None and os.path.exists(path):
            return cls.load(path)
        return cls()


def empirical_es(values, alpha) -> float:
    """Negative mean of the ceil(alpha * m) smallest values.

    This is the lower-tail average used as the Monte Carlo oracle for the
    expected-shortfall condition; ties are resolved by taking exactly
    ceil(alpha * m) order statistics.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise SizeError("empirical_es needs a non-empty sample")
    alpha = RiskLevel(alpha)
    # guard against p*m landing an ulp above an integer
    tail = int(math.ceil(alpha * arr.size - 1e-9))
    tail = min(max(tail, 1), arr.size)
    if tail == arr.size:
        return -float(arr.mean())
    return -float(np.partition(arr, tail - 1)[:tail].mean())


def solve_unbiased_es_constant(
    n: int,
    alpha,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CalibrationEntry:
    """Bisection for b_n with ES_alpha(Z + b_n V_n) = 0 on one fixed MC sample.

    The sample is drawn once from ``SeededRng(seed)``; the objective
    g(b) = empirical_es(z + b*v) is then monotone non-increasing in b, so the
    bisection terminates deterministically. Stops when the bracket is below
    1e-8 or |g| falls below ``tolerance``, whichever comes first.
    """
    n = int(n)
    if n < 2:
        raise SizeError(f"calibration needs window size n >= 2, got {n}")
    mc_samples = int(mc_samples)
    if mc_samples < 100_000:
        raise DomainError(f"mc_samples must be at least 1e5, got {mc_samples}")
    alpha = RiskLevel(alpha)
    if not tolerance > 0.0:
        raise DomainError(f"tolerance must be positive, got {tolerance!r}")

    z, v = draw_pivotal_pairs(SeededRng(int(seed)), n, mc_samples)

    def g(b: float) -> float:
        return empirical_es(z + b * v, alpha)

    if g(0.0) <= 0.0:
        raise CalibrationFailureError(
            "empirical ES at b = 0 is already non-positive; no positive root exists"
        )
    hi = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if g(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise CalibrationFailureError(
            f"could not bracket the root within {_MAX_DOUBLINGS} doublings"
        )

    lo = 0.0
    b = 0.5 * hi
    residual = abs(g(b))
    while hi - lo > _BISECTION_WIDTH:
        b = 0.5 * (lo + hi)
        gb = g(b)
        residual = abs(gb)
        if residual <= tolerance:
            break
        if gb < 0.0:
            hi = b
        else:
            lo = b

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

    The root is solved with a 64-node rule, then with doubled node counts
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


def _simulated_secured_positions(method, n, alpha, trials, seed, params, measure, table):
    """Stream x_out + capital over ``trials`` simulated estimation windows."""
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

    gen = SeededRng(int(seed)).generator()
    chunk_rows = max(1, 4_000_000 // (n + 1))
    out = np.empty(trials)
    done = 0
    while done < trials:
        rows = min(chunk_rows, trials - done)
        draws = gen.normal(params.mu, params.sigma, (rows, n + 1))
        ws = window_stats(draws[:, :n])
        if measure == "var":
            caps = batch_var_capitals(method, ws, alpha)
        else:
            caps = batch_es_capitals(method, ws, alpha, table=table)
        out[done : done + rows] = draws[:, n] + caps
        done += rows
    return out


def pivotality_check(method, n, alpha, trials, seed, params=None) -> ExceedanceCheck:
    """MC frequency of {X_out + VaR capital < 0} over simulated Gaussian windows.

    For an unbiased estimator the frequency equals alpha up to Monte Carlo
    noise, for any (mu, sigma); the reported standard error is
    sqrt(p(1-p)/trials).
    """
    secured = _simulated_secured_positions(method, n, alpha, trials, seed, params, "var", None)
    exceed = int(np.count_nonzero(secured < 0.0))
    freq = exceed / secured.size
    se = math.sqrt(max(freq * (1.0 - freq), 1e-300) / secured.size)
    return ExceedanceCheck(
        method=canonical_method(method),
        n=int(n),
        alpha=float(RiskLevel(alpha)),
        trials=secured.size,
        exceedances=exceed,
        frequency=freq,
        standard_error=se,
    )


def secured_position_es(method, n, alpha, trials, seed, params=None, table=None) -> float:
    """Empirical ES of {X_out + ES capital} — the defining unbiasedness quantity.

    Near zero for an unbiased ES estimator; strictly positive when risk is
    systematically underestimated.
    """
    secured = _simulated_secured_positions(method, n, alpha, trials, seed, params, "es", table)
    return empirical_es(secured, alpha)
