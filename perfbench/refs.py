"""Reference computations the benchmark checks the program against.

Everything here is computed with numpy and scipy from the definitions in the
paper and the package documentation. Nothing here imports ``riskbench``, so a
fault in the program cannot hide in its own reference.

Each ``check_*`` function raises :class:`CheckFailed` on a mismatch and
returns None otherwise.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats


class CheckFailed(AssertionError):
    """A program output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_close(actual, expected, what: str, rtol: float = 1e-9, atol: float = 1e-12) -> None:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    bad = ~np.isclose(actual, expected, rtol=rtol, atol=atol)
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise CheckFailed(
            f"{what}: {actual.ravel()[i]!r} != {expected.ravel()[i]!r} at {i} "
            f"({int(bad.sum())} of {bad.size} differ)"
        )


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def parse_csv_columns(path, columns: int) -> np.ndarray:
    """The return columns of a headed CSV whose first column is a date, as written."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, columns + 1), ndmin=2)


def tile(values, window: int) -> np.ndarray:
    """Consecutive disjoint windows of a series; the trailing remainder is dropped."""
    values = np.asarray(values, dtype=float)
    count = values.size // window
    return values[: count * window].reshape(count, window)


# ---------------------------------------------------------------------------
# capitals by their textbook definitions
# ---------------------------------------------------------------------------


def gaussian_var(windows, alpha):
    """Gaussian plug-in VaR: -(mean + sd * Phi^-1(alpha)), sd with divisor n - 1."""
    return -(windows.mean(axis=1) + windows.std(axis=1, ddof=1) * stats.norm.ppf(alpha))


def unbiased_var(windows, alpha):
    """The paper's unbiased Gaussian VaR: -(mean + sd * sqrt((n+1)/n) * t_{n-1}^-1(alpha))."""
    n = windows.shape[1]
    factor = math.sqrt((n + 1) / n) * stats.t.ppf(alpha, n - 1)
    return -(windows.mean(axis=1) + windows.std(axis=1, ddof=1) * factor)


def empirical_var(windows, alpha):
    """Negative type-7 (linear interpolation) sample quantile."""
    return -np.quantile(windows, alpha, axis=1, method="linear")


def empirical_simple_var(windows, alpha):
    """Negative (floor(n * alpha) + 1)-th smallest observation."""
    n = windows.shape[1]
    return -np.sort(windows, axis=1)[:, int(math.floor(n * alpha))]


def mean_var(windows, alpha=None):
    return -windows.mean(axis=1)


def cornish_fisher_var(windows, alpha):
    """Gaussian VaR with the fourth-order Cornish-Fisher quantile.

    Skewness and excess kurtosis are the population (biased) moments.
    """
    z = stats.norm.ppf(alpha)
    s = stats.skew(windows, axis=1, bias=True)
    k = stats.kurtosis(windows, axis=1, fisher=True, bias=True)
    z_cf = z + (z**2 - 1) * s / 6 + (z**3 - 3 * z) * k / 24 - (2 * z**3 - 5 * z) * s**2 / 36
    return -(windows.mean(axis=1) + windows.std(axis=1, ddof=1) * z_cf)


VAR_REFERENCES = {
    "gaussian": gaussian_var,
    "gaussian_unbiased": unbiased_var,
    "empirical": empirical_var,
    "empirical_simple": empirical_simple_var,
    "mean": mean_var,
    "cornish_fisher": cornish_fisher_var,
}


def kde_gaussian_capital(row, alpha) -> float:
    """VaR of a Gaussian-kernel density estimate with Silverman's bandwidth.

    The capital is minus the root, found by ``brentq``, of the mixture CDF
    minus alpha; the bandwidth is 1.06 * sd * n^(-1/5).
    """
    row = np.asarray(row, dtype=float)
    h = 1.06 * row.std(ddof=1) * row.size ** (-0.2)

    def excess(q):
        return special.ndtr((q - row) / h).mean() - alpha

    lo = row.min() - 40.0 * h
    hi = row.max() + 40.0 * h
    return -optimize.brentq(excess, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def student_t_profile_loglik(row, nu):
    """Log-likelihood of a location-scale t with the sample mean and sd fixed.

    The scale sd * sqrt((nu - 2) / nu) gives the t_nu law the sample variance.
    ``nu`` may be an array; the result then has its shape.
    """
    row = np.asarray(row, dtype=float)
    nu = np.asarray(nu, dtype=float)[..., None]
    scale = row.std(ddof=1) * np.sqrt((nu - 2.0) / nu)
    u = (row - row.mean()) / scale
    log_norm = special.gammaln((nu + 1) / 2) - special.gammaln(nu / 2) - 0.5 * np.log(nu * np.pi)
    terms = log_norm - np.log(scale) - (nu + 1) / 2 * np.log1p(u * u / nu)
    return terms.sum(axis=-1)


# a fine grid on (2, 200], denser near 2 where the likelihood bends most
STUDENT_T_NU_GRID = 2.0 + np.geomspace(1e-6, 198.0, 4000)


def check_student_t_fit(row, nu, capital, alpha, what: str) -> None:
    """``nu`` scores no lower than the best grid point; the capital matches it."""
    row = np.asarray(row, dtype=float)
    best =float(student_t_profile_loglik(row, STUDENT_T_NU_GRID).max())
    got = float(student_t_profile_loglik(row, nu))
    require(
        got >= best - 1e-9 * max(1.0, abs(best)),
        f"{what}: profile log-likelihood {got!r} at nu={nu!r} is below the grid's best {best!r}",
    )
    expected = -(row.mean() + row.std(ddof=1) * math.sqrt((nu - 2) / nu) * stats.t.ppf(alpha, nu))
    check_close(capital, expected, f"{what}: capital at the fitted nu")


# ---------------------------------------------------------------------------
# backtest statistics
# ---------------------------------------------------------------------------


def exceedances(capitals, evaluation, tol: float = 1e-12):
    """Strict exceedances x + capital < 0, and the count within ``tol`` of a tie."""
    margin = evaluation + np.asarray(capitals, dtype=float)[:, None]
    scale = np.maximum(np.abs(evaluation), np.abs(capitals)[:, None])
    return int(np.count_nonzero(margin < 0.0)), int(np.count_nonzero(np.abs(margin) <= tol * scale))


def check_exceedance_count(count, capitals, evaluation, what: str) -> None:
    """Agreement to rounding: only observations tied with the capital may differ."""
    expected, ties = exceedances(capitals, evaluation)
    require(
        abs(int(count) - expected) <= ties,
        f"{what}: {count} exceedances, reference {expected} (ties within rounding: {ties})",
    )


def var_mean_score(capitals, evaluation, alpha) -> float:
    """Mean pinball loss of the forecast quantile -capital: (x - y)(1{y < x} - alpha)."""
    x = -np.asarray(capitals, dtype=float)[:, None]
    return float(((x - evaluation) * ((evaluation < x) - alpha)).mean())


def check_method_result(result: dict, capitals, evaluation, alpha, what: str) -> None:
    """A report's exceedance count, rate and VaR mean score against capitals."""
    require(not result["failed"], f"{what}: failed: {result['failure']}")
    check_exceedance_count(result["exceedance_count"], capitals, evaluation, what)
    require(
        result["exceedance_count"] == round(result["exceedance_rate"] * evaluation.size),
        f"{what}: rate {result['exceedance_rate']!r} times {evaluation.size} points "
        f"is not the count {result['exceedance_count']}",
    )
    check_close(result["var_mean_score"], var_mean_score(capitals, evaluation, alpha),
                f"{what}: VaR mean score", rtol=1e-9)


# ---------------------------------------------------------------------------
# replication study
# ---------------------------------------------------------------------------


def replication_series(seed: int, index: int, length: int, mu: float, sigma: float):
    """Replication ``index``'s series: the Philox stream keyed by (seed, index)."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    return gen.normal(mu, sigma, length)


def replication_unbiased_er(seed, index, length, mu, sigma, window, alpha):
    """Exceedance rate of the unbiased VaR in one replication, and its tie count."""
    windows = tile(replication_series(seed, index, length, mu, sigma), window)
    caps = unbiased_var(windows[:-1], alpha)
    count, ties = exceedances(caps, windows[1:])
    return count, ties, windows[1:].size


# ---------------------------------------------------------------------------
# the pivot Z + b V_n of the unbiased ES
# ---------------------------------------------------------------------------


def _chi_cdf(k, c):
    return float(special.gammainc(k / 2.0, c * c / 2.0)) if c > 0.0 else 0.0


def _given_z(q, b, n):
    """Integrals over Z of the moments of Y = Z + b*V with V ~ chi_{n-1}.

    Given Z = z, the event Y < q is V < c = (q - z)/b, and with F_k the chi_k
    CDF: E[V 1{V<c}] = mu_k F_{k+1}(c), E[V^2 1{V<c}] = k F_{k+2}(c).
    """
    k = n - 1
    mu_k = math.sqrt(2.0) * math.exp(special.gammaln((k + 1) / 2) - special.gammaln(k / 2))
    centre = q - b * mu_k  # where the conditional probability switches over

    def integral(f):
        def integrand(z):
            c = (q - z) / b
            return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) * f(z, c)

        points = [centre] if -40.0 < centre < q else None
        return integrate.quad(integrand, -40.0, q, points=points,
                              epsabs=1e-15, epsrel=1e-13, limit=400)[0]

    moments = {
        "p": lambda z, c: _chi_cdf(k, c),
        "y": lambda z, c: z * _chi_cdf(k, c) + b * mu_k * _chi_cdf(k + 1, c),
        "y2": lambda z, c: z * z * _chi_cdf(k, c) + 2 * z * b * mu_k * _chi_cdf(k + 1, c)
        + b * b * k * _chi_cdf(k + 2, c),
        "v": lambda z, c: mu_k * _chi_cdf(k + 1, c),
    }
    return integral, moments


def pivot_quantile(b, n, alpha) -> float:
    """The alpha-quantile q of Y = Z + b*V_n."""
    z_alpha = float(special.ndtri(alpha))
    k = n - 1
    hi = z_alpha + 1.0 + b * (math.sqrt(k) + 20.0)

    def excess(q):
        integral_q, moments_q = _given_z(q, b, n)
        return integral_q(moments_q["p"]) - alpha

    # Y >= Z, so P(Y < z_alpha) <= alpha
    return optimize.brentq(excess, z_alpha, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)


def pivot_tail(b, n, alpha) -> dict:
    """ES_alpha(Y) and the moments that set Monte Carlo errors, for Y = Z + b*V_n."""
    q = pivot_quantile(b, n, alpha)
    integral, moments = _given_z(q, b, n)
    ey, ey2, ev = (integral(moments[m]) for m in ("y", "y2", "v"))
    # (q - Y)^+ has mean q*alpha - E[Y 1{Y<q}] and second moment q^2 alpha - 2q E[Y 1] + E[Y^2 1]
    excess_mean = q * alpha - ey
    excess_var = q * q * alpha - 2 * q * ey + ey2 - excess_mean**2
    return {"q": q, "es": -ey / alpha, "excess_var": excess_var, "tail_v": ev}


def check_exact_constant(n, alpha, a_n, b_n, what: str) -> None:
    """|ES_alpha(Z + b_n V_n)| <= 1e-8 under quadrature, and a_n = -b_n sqrt((n-1)(n+1)/n)."""
    check_close(a_n, -b_n * math.sqrt((n - 1) * (n + 1) / n), f"{what}: a_n against b_n", rtol=1e-12)
    es = pivot_tail(b_n, n, alpha)["es"]
    require(abs(es) <= 1e-8, f"{what}: ES_alpha(Z + b_n V_n) = {es!r}, not within 1e-8 of 0")


def mc_constant_standard_error(n, alpha, b_n, samples) -> float:
    """Standard error of a_n solved on ``samples`` Monte Carlo pivots.

    The empirical ES has asymptotic variance Var((q - Y)^+) / (alpha^2 N), and
    dES/db = -E[V 1{Y < q}] / alpha; the delta method carries it to b, then
    to a = -b sqrt((n-1)(n+1)/n).
    """
    tail = pivot_tail(b_n, n, alpha)
    se_es = math.sqrt(tail["excess_var"] / samples) / alpha
    slope = tail["tail_v"] / alpha
    return se_es / slope * math.sqrt((n - 1) * (n + 1) / n)


def secured_es_standard_error(n, alpha, a, sigma, trials) -> float:
    """Monte Carlo standard error of the empirical ES of secured positions.

    With capital -mean - sd*a on a Gaussian window, X_out + capital equals
    sigma * sqrt(1 + 1/n) * (Z + b V_n) with b = -a / sqrt((n-1)(n+1)/n).
    """
    b = -a / math.sqrt((n - 1) * (n + 1) / n)
    tail = pivot_tail(b, n, alpha)
    return sigma * math.sqrt(1.0 + 1.0 / n) * math.sqrt(tail["excess_var"] / trials) / alpha
