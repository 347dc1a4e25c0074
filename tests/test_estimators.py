import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

import riskbench
from riskbench import (
    CalibrationEntry,
    CalibrationTable,
    ConfigError,
    DataError,
    DegenerateFitError,
    DomainError,
    EmptyTailError,
    GpdFit,
    InfiniteMeanTailError,
    InsufficientTailError,
    LevelTooHighError,
    RiskbenchError,
    SeededRng,
    SizeError,
    StudentTParams,
    cornish_fisher_z,
    draw_gaussian,
    exact_unbiased_es_constant,
    fit_gpd_pwm,
    fit_student_t,
    gpd_es_capital,
    gpd_var_capital,
    sample_moments,
    student_t_var_capital,
)
from riskbench.backtest import BacktestConfig
from riskbench.estimators import (
    METHODS,
    RiskLevel,
    WindowStats,
    batch_es_capitals,
    batch_var_capitals,
    canonical_method,
    estimate,
    window_stats,
)

# frozen oracle constants (high-precision inversion of the target densities)
Z_05 = -1.6448536269514727          # Phi^{-1}(0.05)
T49_05 = -1.6765508926168539        # t_49^{-1}(0.05)
T5_05 = -2.0150483733330242         # t_5^{-1}(0.05)
UNBIASED_FACTOR_50 = 1.6932334019399266   # sqrt(51/50) * |t_49^{-1}(0.05)|
ES_GAUSS_10 = 1.7549833193248680    # phi(z_.10)/0.10
ES_GAUSS_05 = 2.0627128075074260    # phi(z_.05)/0.05

grid_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False).map(
    lambda v: round(v, 6)
)


def constant_plus_rounding_noise(n=12, value=5.589843):
    """A constant sample with one-ulp jitter on every other point."""
    x = np.full(n, value)
    x[::2] = np.nextafter(x[::2], np.inf)
    return x


def standardized(x):
    """Rescale a sample to mean 0 and sd 1 (up to float rounding)."""
    arr = np.asarray(x, dtype=float)
    return (arr - arr.mean()) / arr.std(ddof=1)


@pytest.fixture(scope="module")
def gaussian_sample():
    return draw_gaussian(SeededRng(314), 50, 0.0, 1.0)


class TestVarEmpirical:
    def test_hand_interpolation(self):
        est = estimate("empirical", [1, 2, 3, 4, 5], 0.05)
        assert est.capital == pytest.approx(-1.2, abs=1e-12)
        assert est.method == "empirical" and est.measure == "var" and est.n == 5

    def test_constant_sample(self):
        assert estimate("empirical", [4.0] * 10, 0.3).capital == -4.0

    def test_short_sample(self):
        with pytest.raises(SizeError):
            estimate("empirical", [1.0], 0.05)

    @given(st.lists(grid_floats, min_size=2, max_size=40), grid_floats)
    @settings(max_examples=100, deadline=None)
    def test_translation_equivariance(self, xs, d):
        base = estimate("empirical", xs, 0.1).capital
        shifted = estimate("empirical", [x + d for x in xs], 0.1).capital
        assert shifted == pytest.approx(base - d, abs=1e-10)


class TestVarEmpiricalSimple:
    def test_first_order_statistic(self):
        x = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert estimate("empirical_simple", x, 0.05).capital == -10.0

    def test_sixth_order_statistic_at_n100(self):
        x = list(range(1, 101))
        assert estimate("empirical_simple", x, 0.05).capital == -6.0

    def test_constant(self):
        assert estimate("empirical_simple", [2.0] * 10, 0.08).capital == -2.0

    def test_level_domain(self):
        # floor(n*alpha)+1 <= n holds for every alpha in (0,1); levels outside
        # the open interval are rejected
        with pytest.raises(DomainError):
            estimate("empirical_simple", [1.0, 2.0], 1.2)


class TestVarGaussian:
    def test_standardized_sample(self, gaussian_sample):
        est = estimate("gaussian", standardized(gaussian_sample), 0.05)
        assert est.capital == pytest.approx(-Z_05, abs=1e-6)

    def test_degenerate_sd(self):
        assert estimate("gaussian", [0.1] * 5, 0.3).capital == pytest.approx(-0.1, abs=1e-15)

    @given(st.lists(grid_floats, min_size=2, max_size=40),
           st.floats(min_value=0.1, max_value=10.0).map(lambda v: round(v, 3)))
    @settings(max_examples=100, deadline=None)
    def test_positive_homogeneity(self, xs, lam):
        base = estimate("gaussian", xs, 0.05).capital
        scaled = estimate("gaussian", [lam * x for x in xs], 0.05).capital
        assert scaled == pytest.approx(lam * base, rel=1e-10, abs=1e-10)


class TestVarGaussianUnbiased:
    def test_standardized_sample_n50(self, gaussian_sample):
        est = estimate("gaussian_unbiased", standardized(gaussian_sample), 0.05)
        assert est.capital == pytest.approx(UNBIASED_FACTOR_50, abs=1e-4)

    def test_dominates_plugin(self, gaussian_sample):
        for alpha in (0.01, 0.05, 0.1, 0.25):
            assert (
                estimate("gaussian_unbiased", gaussian_sample, alpha).capital
                > estimate("gaussian", gaussian_sample, alpha).capital
            )

    def test_large_n_limit(self):
        x = standardized(draw_gaussian(SeededRng(7), 1_000_000, 0.0, 1.0))
        gap = estimate("gaussian_unbiased", x, 0.05).capital - estimate("gaussian", x, 0.05).capital
        assert abs(gap) <= 1e-3


class TestCornishFisherZ:
    def test_zero_adjustment(self):
        adj = cornish_fisher_z(0.17, 0.0, 0.0)
        assert adj.z_cf == adj.base_z

    def test_skew_term(self):
        # full fourth-order polynomial with s=1, k=0 (includes the s^2 term)
        adj = cornish_fisher_z(0.05, 1.0, 0.0)
        assert adj.z_cf == pytest.approx(-1.3418136681597383, abs=1e-6)

    def test_kurtosis_term(self):
        adj = cornish_fisher_z(0.05, 0.0, 1.0)
        assert adj.z_cf == pytest.approx(-1.6246728803885244, abs=1e-6)

    def test_negative_skew_capital(self):
        # -(z_cf) for s=-0.5, k=0 at alpha=0.05, by direct polynomial evaluation
        adj = cornish_fisher_z(0.05, -0.5, 0.0)
        assert -adj.z_cf == pytest.approx(1.7822865690154659, abs=1e-6)


class TestVarCornishFisher:
    def test_reduces_to_gaussian_on_mesokurtic_sample(self):
        # {-1, 0, 0, 0, 0, 1} has zero skewness and zero excess kurtosis
        x = [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert estimate("cornish_fisher", x, 0.05).capital == pytest.approx(
            estimate("gaussian", x, 0.05).capital, abs=1e-12
        )

    def test_needs_four_points(self):
        with pytest.raises(SizeError):
            estimate("cornish_fisher", [1.0, 2.0, 3.0], 0.05)

    def test_noisy_constant_row_shape_matches_scalar_moments(self):
        x = constant_plus_rounding_noise()
        ms = sample_moments(x)
        ws = window_stats(np.vstack([x, x[::-1]]), with_shape=True)
        assert np.array_equal(ws.skews, [ms.skewness] * 2)
        assert np.array_equal(ws.kurts, [ms.excess_kurtosis] * 2)
        assert (ms.skewness, ms.excess_kurtosis) == (0.0, 0.0)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_shape_moments_equal_scalar_moments_to_the_bit(self, xs):
        ms = sample_moments(xs)
        ws = window_stats(np.array([xs]), with_shape=True)
        assert (ws.skews[0], ws.kurts[0]) == (ms.skewness, ms.excess_kurtosis)

    @given(st.lists(grid_floats, min_size=4, max_size=40), grid_floats)
    @settings(max_examples=100, deadline=None)
    def test_translation_equivariance(self, xs, d):
        base = estimate("cornish_fisher", xs, 0.05).capital
        shifted = estimate("cornish_fisher", [x + d for x in xs], 0.05).capital
        assert shifted == pytest.approx(base - d, abs=1e-8)


class TestStudentT:
    def test_capital_formula_at_exact_params(self):
        params = StudentTParams(0.0, 1.0, 5.0)
        assert student_t_var_capital(params, 0.05) == pytest.approx(
            math.sqrt(3.0 / 5.0) * abs(T5_05), abs=1e-6
        )

    def test_fit_recovers_t5(self):
        gen = SeededRng(42).generator()
        x = gen.standard_t(5, 100_000) * math.sqrt(3.0 / 5.0)
        params = fit_student_t(x)
        assert 4.5 <= params.nu <= 5.5

    def test_gaussian_sample_hits_upper_bound(self):
        x = draw_gaussian(SeededRng(43), 100_000, 0.0, 1.0)
        assert fit_student_t(x).nu == 200.0

    def test_location_scale_equivariance(self, gaussian_sample):
        x = np.concatenate([gaussian_sample, draw_gaussian(SeededRng(55), 50, 0.0, 1.0)])
        base = fit_student_t(x)
        moved = fit_student_t(2.0 * x + 3.0)
        assert moved.mu == pytest.approx(2.0 * base.mu + 3.0, abs=1e-10)
        assert moved.sigma == pytest.approx(2.0 * base.sigma, rel=1e-10)
        assert moved.nu == pytest.approx(base.nu, abs=1e-3)

    def test_constant_plus_rounding_noise_rejected(self):
        with pytest.raises(DataError):
            fit_student_t(constant_plus_rounding_noise())

    def test_nu_maximises_the_t_likelihood(self):
        # scipy's t density on a 4000-point grid over (2, 200] is the oracle
        gen = SeededRng(57).generator()
        rows = np.vstack([gen.standard_t(3, 50), gen.standard_t(6, 50), gen.standard_normal(50),
                          0.01 * gen.standard_t(4, 50) + 2e-4])
        grid = 2.0 + np.geomspace(1e-6, 198.0, 4000)[:, None]
        for row, nu in zip(rows, fit_student_t(window_stats(rows))):
            z = (row - row.mean()) / row.std(ddof=1)
            scale = np.sqrt((grid - 2.0) / grid)
            best = (stats.t.logpdf(z / scale, grid) - np.log(scale)).sum(axis=1).max()
            scale = math.sqrt((nu - 2.0) / nu)
            fitted = (stats.t.logpdf(z / scale, nu) - math.log(scale)).sum()
            assert fitted >= best - 1e-9 * abs(best)
            assert fit_student_t(row).nu == nu

    def test_nu_to_infinity_matches_gaussian(self, gaussian_sample):
        params = StudentTParams(0.0, 1.0, 200.0)
        assert student_t_var_capital(params, 0.05) == pytest.approx(-Z_05, abs=2e-3)

    def test_var_translation(self, gaussian_sample):
        x = np.concatenate([gaussian_sample, draw_gaussian(SeededRng(56), 50, 0.0, 1.0)])
        base = estimate("student_t", x, 0.05).capital
        shifted = estimate("student_t", x + 0.37, 0.05).capital
        # nu is re-optimised on the shifted sample, so exactness is limited by
        # the profile-likelihood search tolerance
        assert shifted == pytest.approx(base - 0.37, abs=1e-6)


class TestGpdFit:
    def test_exponential_tail(self):
        gen = SeededRng(5).generator()
        below = -gen.exponential(1.0, 100_000)
        sample = np.concatenate([below, np.ones(5)])
        fit = fit_gpd_pwm(sample, 0.0)
        assert fit.k == 100_000
        assert -0.02 <= fit.xi <= 0.02
        assert 0.98 <= fit.beta <= 1.02

    def test_gpd_tail_recovery(self):
        gen = SeededRng(6).generator()
        uniforms = gen.uniform(size=100_000)
        y = 2.0 / 0.3 * (uniforms ** (-0.3) - 1.0)  # GPD(xi=0.3, beta=2)
        sample = np.concatenate([-y, np.ones(5)])
        fit = fit_gpd_pwm(sample, 0.0)
        assert 0.27 <= fit.xi <= 0.33
        assert 1.9 <= fit.beta <= 2.1

    def test_constant_exceedances_degenerate(self):
        sample = np.concatenate([-np.ones(10), np.ones(10)])
        with pytest.raises(DegenerateFitError):
            fit_gpd_pwm(sample, 0.0)

    def test_insufficient_tail(self):
        with pytest.raises(InsufficientTailError):
            fit_gpd_pwm([-1.0, -2.0, 1.0, 2.0, 3.0], 0.0)

    def test_row_fit_independent_of_other_rows(self):
        rows = draw_gaussian(SeededRng(61), 20 * 50, 0.0, 1.0).reshape(20, 50)
        # a tie at the 0.3 threshold leaves this row 14 exceedances, the others 15
        tied = np.sort(rows[0])
        tied[15] = tied[14]
        alone = window_stats(rows)
        mixed = window_stats(np.vstack([rows, tied]))
        for kernel in (batch_var_capitals, batch_es_capitals):
            assert np.array_equal(kernel("gpd", alone, 0.05), kernel("gpd", mixed, 0.05)[:20])


class TestVarGpd:
    def test_hand_formula(self):
        fit = GpdFit(u=-1.0, xi=0.5, beta=1.0, k=30, n=100)
        assert gpd_var_capital(fit, 0.05) == pytest.approx(1 + 2 * (math.sqrt(6) - 1), abs=1e-4)

    def test_log_limit(self):
        fit = GpdFit(u=-1.0, xi=1e-9, beta=1.0, k=30, n=100)
        assert gpd_var_capital(fit, 0.05) == pytest.approx(1 + math.log(6), abs=1e-3)

    def test_alpha_equals_tail_mass(self):
        fit = GpdFit(u=-1.0, xi=0.5, beta=1.0, k=30, n=100)
        assert gpd_var_capital(fit, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_level_too_high(self):
        fit = GpdFit(u=-1.0, xi=0.5, beta=1.0, k=10, n=100)
        with pytest.raises(LevelTooHighError):
            gpd_var_capital(fit, 0.2)

    def test_sample_route_matches_fit_route(self, gaussian_sample):
        u = float(np.quantile(gaussian_sample, 0.3))
        est = estimate("gpd", gaussian_sample, 0.05, gpd_threshold=u)
        fit = fit_gpd_pwm(gaussian_sample, u)
        assert est.capital == pytest.approx(gpd_var_capital(fit, 0.05), abs=1e-12)

    def test_translation_equivariance_with_data_driven_threshold(self, gaussian_sample):
        base = estimate("gpd", gaussian_sample, 0.05).capital
        shifted = estimate("gpd", gaussian_sample + 0.41, 0.05).capital
        assert shifted == pytest.approx(base - 0.41, abs=1e-10)

    def test_positive_homogeneity(self, gaussian_sample):
        base = estimate("gpd", gaussian_sample, 0.05).capital
        scaled = estimate("gpd", 2.5 * gaussian_sample, 0.05).capital
        assert scaled == pytest.approx(2.5 * base, abs=1e-10)


def kde_cdf_and_density(q, row, kernel, h):
    """One row's mixture CDF and density at ``q``, in the batch kernel's arithmetic."""
    if kernel == "gaussian":
        t = (q - row) / h
        density = np.mean(np.exp(-0.5 * (t * t))) / (math.sqrt(2.0 * math.pi) * h)
        return float(np.mean(special.ndtr(t))), float(density)
    t = np.clip((q - row) / h, -1.0, 1.0)
    return float(np.mean((2.0 + 3.0 * t - t**3) / 4.0)), float(np.mean(0.75 * (1.0 - t * t)) / h)


def kde_row_reference(row, alpha, kernel, h):
    """One row's KDE quantile by the scalar form of the batch kernel's safeguarded Newton iteration."""
    if kernel == "gaussian":
        z = float(special.ndtri(alpha))
        lo, hi = float(row.min()) + h * min(z, 0.0), float(row.max()) + h * max(z, 0.0)
    else:
        lo, hi = float(row.min()) - h, float(row.max()) + h
    q = 0.5 * (lo + hi)
    for _ in range(200):
        f, density = kde_cdf_and_density(q, row, kernel, h)
        width, scale = hi - lo, max(1.0, abs(lo), abs(hi))
        if abs(f - alpha) <= 1e-10 and width <= 1e-12 * scale or width <= 1e-15 * scale:
            break
        lo, hi = (q, hi) if f <= alpha else (lo, q)
        newton = math.nan
        if density > 0.0:
            step = (alpha - f) / density
            newton = q + step + 2.5e-13 * scale * float(np.sign(step))
        q = newton if lo < newton < hi else 0.5 * (lo + hi)
    return -q


def kde_mixture_root(row, alpha, kernel, h):
    """The root of the mixture CDF minus alpha, by brentq over 40 bandwidths past the data."""
    return optimize.brentq(lambda q: kde_cdf_and_density(q, row, kernel, h)[0] - alpha,
                           row.min() - 40.0 * h, row.max() + 40.0 * h,
                           xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=1000)


class TestVarKde:
    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    @pytest.mark.parametrize("bandwidth", [None, 0.05])
    def test_batch_equals_scalar_loop_to_the_bit(self, kernel, bandwidth):
        # rows of different scales stop after different numbers of steps
        gen = SeededRng(58).generator()
        rows = np.vstack([gen.standard_t(3, 40) * s + m for s, m in [(0.01, 0), (1, 5), (30, -2)]])
        for alpha in (0.01, 0.1, 0.5):
            batch = batch_var_capitals("kde", window_stats(rows), alpha,
                                       kde_kernel=kernel, kde_bandwidth=bandwidth)
            for row, capital in zip(rows, batch):
                h = 1.06 * np.std(row, ddof=1) * row.size ** (-0.2) if bandwidth is None else bandwidth
                assert capital.hex() == kde_row_reference(row, alpha, kernel, h).hex()

    @pytest.mark.parametrize("kernel", ["gaussian", "epanechnikov"])
    def test_quantile_is_the_mixture_root_to_1e12(self, kernel):
        gen = SeededRng(58).generator()
        rows = np.vstack([gen.standard_t(3, 40) * s + m for s, m in [(0.01, 0), (1, 5), (30, -2)]])
        for alpha in (0.01, 0.1, 0.5):
            batch = batch_var_capitals("kde", window_stats(rows), alpha, kde_kernel=kernel)
            for row, capital in zip(rows, batch):
                root = kde_mixture_root(row, alpha, kernel, 1.06 * np.std(row, ddof=1) * row.size ** (-0.2))
                assert abs(-capital - root) <= 1e-12 * max(1.0, abs(root))

    def test_flat_stretch_resolves_upward(self):
        # F == alpha on all of [0.1, 0.9]; the tie resolves to its upper end
        x = np.arange(20.0)
        est = estimate("kde", x, 0.05, kde_kernel="epanechnikov", kde_bandwidth=0.1)
        assert est.capital == pytest.approx(-0.9, abs=1e-8)

    def test_single_point_gaussian_kernel(self):
        est = estimate("kde", [5.0], 0.05, kde_kernel="gaussian", kde_bandwidth=1.0)
        assert est.capital == pytest.approx(-(5.0 + Z_05), abs=1e-8)

    def test_small_bandwidth_approaches_empirical(self):
        x = draw_gaussian(SeededRng(10), 1000, 0.0, 1.0)
        kde_cap = estimate("kde", x, 0.05, kde_bandwidth=1e-4).capital
        emp_cap = estimate("empirical", x, 0.05).capital
        assert abs(kde_cap - emp_cap) <= 0.01

    def test_translation_equivariance(self, gaussian_sample):
        base = estimate("kde", gaussian_sample, 0.05).capital
        shifted = estimate("kde", gaussian_sample + 0.73, 0.05).capital
        assert shifted == pytest.approx(base - 0.73, abs=1e-10)

    def test_epanechnikov_self_consistent(self, gaussian_sample):
        est = estimate("kde", gaussian_sample, 0.1, kde_kernel="epanechnikov")
        h = 1.06 * np.std(gaussian_sample, ddof=1) * 50 ** (-0.2)
        t = np.clip((-est.capital - gaussian_sample) / h, -1.0, 1.0)
        assert np.mean((2 + 3 * t - t**3) / 4) == pytest.approx(0.1, abs=1e-9)

    def test_bandwidth_domain(self):
        with pytest.raises(DomainError):
            estimate("kde", [1.0, 2.0], 0.05, kde_bandwidth=0.0)

    def test_constant_plus_rounding_noise_rejected(self):
        with pytest.raises(DataError):
            estimate("kde", constant_plus_rounding_noise(), 0.05)

    def test_unknown_kernel(self):
        with pytest.raises(ConfigError):
            estimate("kde", [1.0, 2.0], 0.05, kde_kernel="triangle", kde_bandwidth=1.0)


class TestEsEmpirical:
    def test_two_tail_points(self):
        x = [-10.0, -5.0] + [0.0] * 18
        assert estimate("empirical", x, 0.10, "es").capital == pytest.approx(7.5, abs=1e-12)

    def test_constant_sample_empty_tail(self):
        with pytest.raises(EmptyTailError):
            estimate("empirical", [1.0] * 20, 0.1, "es")

    def test_es_geq_var(self):
        for seed in range(5):
            x = draw_gaussian(SeededRng(seed), 50, 0.0, 1.0)
            es = estimate("empirical", x, 0.1, "es").capital
            assert es >= estimate("empirical", x, 0.1).capital


class TestEsGaussian:
    def test_frozen_constants(self, gaussian_sample):
        z = standardized(gaussian_sample)
        assert estimate("gaussian", z, 0.10, "es").capital == pytest.approx(ES_GAUSS_10, abs=1e-5)
        assert estimate("gaussian", z, 0.05, "es").capital == pytest.approx(ES_GAUSS_05, abs=1e-5)

    def test_dominates_var(self, gaussian_sample):
        for alpha in (0.01, 0.05, 0.1, 0.4):
            es = estimate("gaussian", gaussian_sample, alpha, "es").capital
            assert es > estimate("gaussian", gaussian_sample, alpha).capital


class TestEsCornishFisher:
    def test_zero_skew_matches_gaussian(self):
        x = [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert estimate("cornish_fisher", x, 0.10, "es").capital == pytest.approx(
            estimate("gaussian", x, 0.10, "es").capital, abs=1e-4
        )

    @pytest.mark.parametrize(
        "alpha, skew, kurt",
        [(0.01, 0.0, 0.0), (0.025, -1.5, 6.0), (0.05, -0.8, 2.5), (0.10, 0.4, -0.6), (0.30, 0.2, 1.0)],
    )
    def test_closed_form_exact(self, alpha, skew, kurt):
        # a window with mean 0 and sd 1 has capital -(1/alpha) * int_{-inf}^{z} z_cf(t) phi(t) dt
        def z_cf(t):
            return (
                t
                + (t * t - 1.0) * skew / 6.0
                + (t**3 - 3.0 * t) * kurt / 24.0
                - (2.0 * t**3 - 5.0 * t) * skew * skew / 36.0
            )

        z = stats.norm.ppf(alpha)
        tail, _ = integrate.quad(
            lambda t: z_cf(t) * stats.norm.pdf(t), -np.inf, z, epsabs=1e-14, epsrel=1e-13
        )
        ws = WindowStats(
            windows=np.zeros((1, 4)),
            sorted_rows=np.zeros((1, 4)),
            means=np.zeros(1),
            sds=np.ones(1),
            n=4,
            skews=np.array([skew]),
            kurts=np.array([kurt]),
        )
        capital = batch_es_capitals("cornish_fisher", ws, alpha)[0]
        assert abs(capital + tail / alpha) <= 1e-10

    def test_translation(self, gaussian_sample):
        base = estimate("cornish_fisher", gaussian_sample, 0.10, "es").capital
        shifted = estimate("cornish_fisher", gaussian_sample + 0.21, 0.10, "es").capital
        assert shifted == pytest.approx(base - 0.21, abs=1e-10)


class TestEsGpd:
    def test_hand_formula(self):
        fit = GpdFit(u=-1.0, xi=0.5, beta=1.0, k=30, n=100)
        # 3.899/(1 - 0.5) + (1.0 + 0.5*(-1.0))/(1 - 0.5)
        assert gpd_es_capital(fit, 3.899) == pytest.approx(8.798, abs=1e-3)

    @pytest.mark.parametrize("xi", [-0.25, 0.0, 0.2, 0.45, 0.65])
    def test_equals_tail_average_of_var(self, xi):
        # ES_alpha is the average of VaR_p over p in (0, alpha); alpha*n/k <= 1 keeps p in the tail
        fit = GpdFit(u=-0.4, xi=xi, beta=0.7, k=30, n=100)
        alpha = 0.05
        average, _ = integrate.quad(
            lambda p: gpd_var_capital(fit, p), 0.0, alpha, epsabs=1e-13, epsrel=1e-13, limit=200
        )
        es = gpd_es_capital(fit, gpd_var_capital(fit, alpha))
        assert es == pytest.approx(average / alpha, rel=1e-10, abs=1e-10)

    def test_exponential_limit(self):
        fit = GpdFit(u=-1.0, xi=0.0, beta=1.0, k=30, n=100)
        assert gpd_es_capital(fit, 2.0) == pytest.approx(3.0, abs=1e-12)

    def test_infinite_mean_tail(self):
        fit = GpdFit(u=-1.0, xi=1.0, beta=1.0, k=30, n=100)
        with pytest.raises(InfiniteMeanTailError):
            gpd_es_capital(fit, 2.0)

    def test_increasing_in_beta(self):
        caps = [
            gpd_es_capital(GpdFit(u=-1.0, xi=0.5, beta=b, k=30, n=100), 2.0)
            for b in (0.5, 1.0, 2.0)
        ]
        assert caps[0] < caps[1] < caps[2]

    def test_sample_route(self, gaussian_sample):
        u = float(np.quantile(gaussian_sample, 0.3))
        est = estimate("gpd", gaussian_sample, 0.10, "es", gpd_threshold=u)
        fit = fit_gpd_pwm(gaussian_sample, u)
        expected = gpd_es_capital(fit, estimate("empirical", gaussian_sample, 0.10).capital)
        assert est.capital == pytest.approx(expected, abs=1e-12)


class TestEsGaussianUnbiased:
    def test_formula_with_synthetic_entry(self, gaussian_sample):
        a_n = -1.81033
        b_n = -a_n * math.sqrt(50.0 / (49.0 * 51.0))
        table = CalibrationTable()
        table.add(CalibrationEntry(50, 0.10, b_n, a_n, 1_000_000, 0, 0.0))
        z = standardized(gaussian_sample)
        est = estimate("gaussian_unbiased", z, 0.10, "es", table=table)
        assert est.capital == pytest.approx(1.81033, abs=1e-9)

    def test_paper_constant_from_solver(self, gaussian_sample):
        table = CalibrationTable()
        table.add(exact_unbiased_es_constant(50, 0.10))
        z = standardized(gaussian_sample)
        est = estimate("gaussian_unbiased", z, 0.10, "es", table=table)
        assert est.capital == pytest.approx(1.8101034, abs=1e-6)

    def test_missing_entry(self, table_a50, gaussian_sample):
        # without a stored entry the exact constant is used, to the bit
        exact = CalibrationTable()
        exact.add(exact_unbiased_es_constant(50, 0.05))
        want = estimate("gaussian_unbiased", gaussian_sample, 0.05, "es", table=exact).capital
        stored = estimate("gaussian_unbiased", gaussian_sample, 0.05, "es", table=table_a50)
        assert stored.capital == want
        assert estimate("gaussian_unbiased", gaussian_sample, 0.05, "es").capital == want
        ws = window_stats(gaussian_sample[None, :])
        assert batch_es_capitals("gaussian_unbiased", ws, 0.05)[0] == want
        # a stored entry wins over the exact constant
        stored = estimate("gaussian_unbiased", gaussian_sample, 0.10, "es", table=table_a50)
        assert stored.capital != estimate("gaussian_unbiased", gaussian_sample, 0.10, "es").capital

    def test_dominates_plugin_at_n50(self, table_a50, gaussian_sample):
        assert (
            estimate("gaussian_unbiased", gaussian_sample, 0.10, "es", table=table_a50).capital
            > estimate("gaussian", gaussian_sample, 0.10, "es").capital
        )

    @pytest.mark.slow
    def test_large_n_limit_matches_plugin(self):
        from riskbench import solve_unbiased_es_constant

        table = CalibrationTable()
        table.add(solve_unbiased_es_constant(10_000, 0.10, 1_000_000, seed=9))
        x = standardized(draw_gaussian(SeededRng(8), 10_000, 0.0, 1.0))
        assert estimate("gaussian_unbiased", x, 0.10, "es", table=table).capital == pytest.approx(
            estimate("gaussian", x, 0.10, "es").capital, abs=0.005
        )


class TestMeanEstimator:
    def test_arithmetic(self):
        assert estimate("mean", [1.0, 2.0, 3.0], 0.5).capital == -2.0

    def test_constant(self):
        assert estimate("mean", [5.0] * 4, 0.5).capital == -5.0

    def test_empty(self):
        with pytest.raises(SizeError):
            estimate("mean", [], 0.5)

    @given(st.lists(grid_floats, min_size=1, max_size=30), grid_floats)
    @settings(max_examples=50, deadline=None)
    def test_translation(self, xs, d):
        assert estimate("mean", [x + d for x in xs], 0.5).capital == pytest.approx(
            estimate("mean", xs, 0.5).capital - d, abs=1e-10
        )


def _measures(tag):
    return ("var", "es") if METHODS[tag].es is not None else ("var",)


class TestCrossCuttingInvariants:
    """Translation equivariance and positive homogeneity of every registered method and measure."""

    CASES = [
        pytest.param(tag, measure, id=tag if measure == "var" else f"es_{tag}")
        for tag in METHODS
        for measure in _measures(tag)
    ]

    @pytest.mark.parametrize("tag, measure", CASES)
    def test_translation_to_1e10(self, tag, measure):
        x = draw_gaussian(SeededRng(2024), 50, 0.0, 1.0)
        base = estimate(tag, x, 0.1, measure).capital
        for d in (-1.5, 0.37, 4.0):
            assert estimate(tag, x + d, 0.1, measure).capital == pytest.approx(base - d, abs=1e-10)

    @pytest.mark.parametrize("tag, measure", CASES)
    def test_positive_homogeneity_to_1e10(self, tag, measure):
        x = draw_gaussian(SeededRng(2025), 50, 0.0, 1.0)
        base = estimate(tag, x, 0.1, measure).capital
        for lam in (0.25, 2.0, 7.5):
            assert estimate(tag, lam * x, 0.1, measure).capital == pytest.approx(
                lam * base, rel=1e-10, abs=1e-10
            )

    @pytest.mark.parametrize("tag, measure", CASES)
    def test_constant_plus_rounding_noise_acts_as_constant(self, tag, measure):
        # the same exception as the exact constant, or its capital up to rounding
        noisy = constant_plus_rounding_noise()
        exact = np.full(noisy.size, noisy.min())

        def outcome(x):
            try:
                return estimate(tag, x, 0.1, measure).capital
            except RiskbenchError as exc:
                return type(exc)

        want, got = outcome(exact), outcome(noisy)
        if isinstance(want, type):
            assert got is want
        else:
            assert abs(got - want) <= 4 * noisy.size * np.finfo(float).eps * np.abs(noisy).max()

    @pytest.mark.parametrize("tag", ["gaussian", "gaussian_unbiased", "cornish_fisher", "mean"])
    @pytest.mark.parametrize("measure", ["var", "es"])
    @pytest.mark.parametrize("value, n", [(5.589843, 12), (-7.77, 30)])
    def test_exact_constant_gives_its_own_value(self, tag, measure, value, n):
        # the mean of n copies of c can round one ulp off c; the capital must not
        assert estimate(tag, np.full(n, value), 0.1, measure).capital == -value


class TestMethodTags:
    def test_aliases(self):
        assert canonical_method("emp") == "empirical"
        assert canonical_method("norm") == "gaussian"
        assert canonical_method("cf") == "cornish_fisher"
        assert canonical_method("u") == "gaussian_unbiased"
        assert canonical_method("GPD") == "gpd"

    def test_unknown_tag_lists_valid(self):
        with pytest.raises(ConfigError, match="valid tags"):
            canonical_method("nope")

    def test_risk_level_domain(self):
        with pytest.raises(DomainError):
            RiskLevel(0.0)
        with pytest.raises(DomainError):
            RiskLevel(1.0)
        assert float(RiskLevel(0.05)) == 0.05

    def test_non_finite_sample_rejected(self):
        with pytest.raises(DataError):
            estimate("gaussian", [1.0, float("inf")], 0.05)


class TestMethodRegistry:
    """Checks run for every registered method, so a new method is covered as it is added."""

    ALPHA = 0.1
    ROWS = draw_gaussian(SeededRng(77), 4 * 30, 0.2, 1.5).reshape(4, 30)

    @pytest.fixture(scope="class")
    def table(self):
        table = CalibrationTable()
        table.add(exact_unbiased_es_constant(30, self.ALPHA))
        return table

    @pytest.mark.parametrize("tag", list(METHODS))
    def test_scalar_equals_batch_row_to_the_bit(self, tag, table):
        for measure in _measures(tag):
            batch = batch_var_capitals if measure == "var" else batch_es_capitals
            capitals = batch(tag, window_stats(self.ROWS), self.ALPHA, table=table)
            for i, row in enumerate(self.ROWS):
                est = estimate(tag, row, self.ALPHA, measure, table=table)
                assert (est.method, est.measure, est.n) == (tag, measure, row.size)
                assert est.capital.hex() == float(capitals[i]).hex()

    @pytest.mark.parametrize("tag", list(METHODS))
    def test_aliases_resolve_to_tag(self, tag):
        for alias in (tag, *METHODS[tag].aliases):
            assert canonical_method(alias) == tag
            assert canonical_method(alias.upper().replace("_", "-")) == tag

    @pytest.mark.parametrize("tag", list(METHODS))
    def test_nan_rejected(self, tag, table):
        x = self.ROWS[0].copy()
        x[7] = np.nan
        for measure in _measures(tag):
            with pytest.raises(DataError, match="position 7"):
                estimate(tag, x, self.ALPHA, measure, table=table)

    @pytest.mark.parametrize("tag", list(METHODS))
    def test_below_minimum_size_rejected(self, tag, table):
        x = self.ROWS[0, : METHODS[tag].min_n - 1]
        for measure in _measures(tag):
            with pytest.raises(SizeError):
                estimate(tag, x, self.ALPHA, measure, table=table)
            if x.size:
                batch = batch_var_capitals if measure == "var" else batch_es_capitals
                with pytest.raises(SizeError):
                    batch(tag, window_stats(x[None, :]), self.ALPHA, table=table)

    @pytest.mark.parametrize("tag", [t for t in METHODS if METHODS[t].es is None])
    def test_es_on_var_only_tag_rejected(self, tag):
        with pytest.raises(ConfigError, match="no Expected Shortfall form"):
            estimate(tag, self.ROWS[0], self.ALPHA, "es")
        with pytest.raises(ConfigError, match="no Expected Shortfall form"):
            batch_es_capitals(tag, window_stats(self.ROWS), self.ALPHA)
        with pytest.raises(ConfigError, match="no Expected Shortfall form"):
            BacktestConfig(alpha=self.ALPHA, methods=(tag,), measure="both")

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="gpd_treshold"):
            estimate("gpd", self.ROWS[0], self.ALPHA, gpd_treshold=0.0)

    def test_single_observation_where_defined(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate("empirical_simple", [3.0], 0.5).capital == -3.0
            assert estimate("mean", [2.0], 0.5).capital == -2.0
            est = estimate("kde", [5.0], 0.05, kde_bandwidth=1.0)
            assert est.capital == pytest.approx(-(5.0 + Z_05), abs=1e-8)
        with pytest.raises(SizeError):
            estimate("kde", [5.0], 0.05)


class TestImports:
    def test_import_leaves_scipy_stats_unloaded(self):
        # the package needs scipy.special and scipy.optimize only; scipy.stats
        # would cost about as much import time again
        code = "import sys, riskbench; print('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(riskbench.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"


class TestWindowStats:
    def test_noisy_constant_row_sd_matches_scalar(self):
        x = constant_plus_rounding_noise()
        ws = window_stats(np.vstack([x, x[::-1], np.arange(12.0)]))
        assert sample_moments(x).sd == 0.0
        assert ws.sds[0] == ws.sds[1] == 0.0
        assert ws.sds[2] == np.std(np.arange(12.0), ddof=1)

    def test_overflowing_rows_scaled_exactly(self):
        rows = draw_gaussian(SeededRng(530), 3 * 50, 0.3, 2.0).reshape(3, 50)
        big = rows * 2.0**530
        base = window_stats(rows, with_shape=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = window_stats(np.vstack([big, rows]), with_shape=True)
        assert np.array_equal(scaled.means, np.concatenate([base.means * 2.0**530, base.means]))
        assert np.array_equal(scaled.sds, np.concatenate([base.sds * 2.0**530, base.sds]))
        assert np.array_equal(scaled.skews, np.tile(base.skews, 2))
        assert np.array_equal(scaled.kurts, np.tile(base.kurts, 2))

    def test_moments_only_form_feeds_location_scale_kernels_to_the_bit(self):
        full = window_stats(draw_gaussian(SeededRng(8), 6 * 20, 0.3, 2.0).reshape(6, 20))
        moments = WindowStats(None, None, full.means, full.sds, 20)
        for tag, spec in METHODS.items():
            if spec.location_scale:
                for batch in (batch_var_capitals, batch_es_capitals):
                    assert np.array_equal(batch(tag, moments, 0.05), batch(tag, full, 0.05))

    def test_moments_only_form_refuses_kernels_that_read_sorted_rows(self):
        moments = WindowStats(None, None, np.zeros(3), np.ones(3), 20)
        for tag in ("empirical", "empirical_simple", "gpd", "kde", "cornish_fisher", "student_t"):
            assert not METHODS[tag].location_scale
            with pytest.raises(ConfigError, match="gaussian, gaussian_unbiased, mean"):
                batch_var_capitals(tag, moments, 0.05)
        assert moments.take(slice(1, 3)).n == 20
