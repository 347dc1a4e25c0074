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
    InfiniteMeanTailError,
    InsufficientTailError,
    LevelTooHighError,
    RiskbenchError,
    SeededRng,
    SizeError,
    draw_gaussian,
    exact_unbiased_es_constant,
    fit_student_t,
)
from riskbench import estimators
from riskbench.backtest import BacktestConfig, _capitals
from riskbench.estimators import (
    METHODS,
    RiskLevel,
    StudentTParams,
    WindowStats,
    _batch_gpd_fit,
    _cf_expansion,
    _gpd_es_from_fit,
    _gpd_var_from_fit,
    _t_capital,
    _t_score,
    batch_es_capitals,
    batch_var_capitals,
    canonical_method,
    estimate,
    window_stats,
)
from riskbench.stats_core import _type7_index, _type7_sorted_rows

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


def gpd_fit(x, q):
    """Threshold u, the type-7 ``q``-quantile, and PWM fit (u, xi, beta, k) of the exceedances
    below it, as the GPD kernels fit a row."""
    srt = np.sort(np.asarray(x, dtype=float))[None, :]
    u = _type7_sorted_rows(srt, q)
    xi, beta, ks = _batch_gpd_fit(srt, u, np.zeros(1, dtype=int), q)
    return float(u[0]), float(xi[0]), float(beta[0]), int(ks[0])


def gpd_var(u, xi, beta, k, n, alpha):
    """VaR capital of one GPD fit: -u + beta/xi * ((alpha*n/k)^(-xi) - 1)."""
    args = np.array([[u], [xi], [beta], [k]], dtype=float)
    return float(_gpd_var_from_fit(*args, n, alpha)[0])


def gpd_es(u, xi, beta, var_empirical):
    """ES capital of one GPD fit: VaR_emp/(1-xi) + (beta + xi*u)/(1-xi)."""
    args = np.array([[u], [xi], [beta], [var_empirical]], dtype=float)
    return float(_gpd_es_from_fit(*args)[0])


@pytest.fixture(scope="module")
def gaussian_sample():
    return draw_gaussian(SeededRng(314), 50, 0.0, 1.0)


class TestVarEmpirical:
    def test_hand_interpolation(self):
        assert estimate("empirical", [1, 2, 3, 4, 5], 0.05) == pytest.approx(-1.2, abs=1e-12)

    def test_constant_sample(self):
        assert estimate("empirical", [4.0] * 10, 0.3) == -4.0

    def test_short_sample(self):
        with pytest.raises(SizeError):
            estimate("empirical", [1.0], 0.05)

    @given(st.lists(grid_floats, min_size=2, max_size=40), grid_floats)
    @settings(max_examples=100, deadline=None)
    def test_translation_equivariance(self, xs, d):
        base = estimate("empirical", xs, 0.1)
        shifted = estimate("empirical", [x + d for x in xs], 0.1)
        assert shifted == pytest.approx(base - d, abs=1e-10)


class TestVarEmpiricalSimple:
    def test_first_order_statistic(self):
        x = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert estimate("empirical_simple", x, 0.05) == -10.0

    def test_sixth_order_statistic_at_n100(self):
        x = list(range(1, 101))
        assert estimate("empirical_simple", x, 0.05) == -6.0

    def test_constant(self):
        assert estimate("empirical_simple", [2.0] * 10, 0.08) == -2.0

    def test_level_domain(self):
        # floor(n*alpha)+1 <= n holds for every alpha in (0,1); levels outside
        # the open interval are rejected
        with pytest.raises(DomainError):
            estimate("empirical_simple", [1.0, 2.0], 1.2)


class TestVarGaussian:
    def test_standardized_sample(self, gaussian_sample):
        est = estimate("gaussian", standardized(gaussian_sample), 0.05)
        assert est == pytest.approx(-Z_05, abs=1e-6)

    def test_degenerate_sd(self):
        assert estimate("gaussian", [0.1] * 5, 0.3) == pytest.approx(-0.1, abs=1e-15)

    @given(st.lists(grid_floats, min_size=2, max_size=40),
           st.floats(min_value=0.1, max_value=10.0).map(lambda v: round(v, 3)))
    @settings(max_examples=100, deadline=None)
    def test_positive_homogeneity(self, xs, lam):
        base = estimate("gaussian", xs, 0.05)
        scaled = estimate("gaussian", [lam * x for x in xs], 0.05)
        assert scaled == pytest.approx(lam * base, rel=1e-10, abs=1e-10)


class TestVarGaussianUnbiased:
    def test_standardized_sample_n50(self, gaussian_sample):
        est = estimate("gaussian_unbiased", standardized(gaussian_sample), 0.05)
        assert est == pytest.approx(UNBIASED_FACTOR_50, abs=1e-4)

    def test_dominates_plugin(self, gaussian_sample):
        for alpha in (0.01, 0.05, 0.1, 0.25):
            assert (
                estimate("gaussian_unbiased", gaussian_sample, alpha)
                > estimate("gaussian", gaussian_sample, alpha)
            )

    def test_large_n_limit(self):
        x = standardized(draw_gaussian(SeededRng(7), 1_000_000, 0.0, 1.0))
        gap = estimate("gaussian_unbiased", x, 0.05) - estimate("gaussian", x, 0.05)
        assert abs(gap) <= 1e-3


def _cf_z_values(z, skew, excess_kurtosis):
    """The Cornish-Fisher quantile of z, as the VaR kernel reads the expansion."""
    return _cf_expansion(z, z * z, z**3, skew, excess_kurtosis)


class TestCornishFisherZ:
    def test_zero_adjustment(self):
        z = special.ndtri(0.17)
        assert _cf_z_values(z, 0.0, 0.0) == z

    def test_skew_term(self):
        # full fourth-order polynomial with s=1, k=0 (includes the s^2 term)
        z_cf = _cf_z_values(special.ndtri(0.05), 1.0, 0.0)
        assert z_cf == pytest.approx(-1.3418136681597383, abs=1e-6)

    def test_kurtosis_term(self):
        z_cf = _cf_z_values(special.ndtri(0.05), 0.0, 1.0)
        assert z_cf == pytest.approx(-1.6246728803885244, abs=1e-6)

    def test_negative_skew_capital(self):
        # -(z_cf) for s=-0.5, k=0 at alpha=0.05, by direct polynomial evaluation
        z_cf = _cf_z_values(special.ndtri(0.05), -0.5, 0.0)
        assert -z_cf == pytest.approx(1.7822865690154659, abs=1e-6)


class TestVarCornishFisher:
    def test_reduces_to_gaussian_on_mesokurtic_sample(self):
        # {-1, 0, 0, 0, 0, 1} has zero skewness and zero excess kurtosis
        x = [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert estimate("cornish_fisher", x, 0.05) == pytest.approx(
            estimate("gaussian", x, 0.05), abs=1e-12
        )

    def test_needs_four_points(self):
        with pytest.raises(SizeError):
            estimate("cornish_fisher", [1.0, 2.0, 3.0], 0.05)

    def test_noisy_constant_row_shape_matches_scalar_moments(self):
        x = constant_plus_rounding_noise()
        one = window_stats(x[None, :], with_shape=True)
        ws = window_stats(np.vstack([x, x[::-1]]), with_shape=True)
        assert np.array_equal(ws.skews, [one.skews[0]] * 2)
        assert np.array_equal(ws.kurts, [one.kurts[0]] * 2)
        assert (one.skews[0], one.kurts[0]) == (0.0, 0.0)

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_shape_moments_equal_scalar_moments_to_the_bit(self, xs):
        # a row's shape moments do not depend on the other rows of its batch
        one = window_stats(np.array([xs]), with_shape=True)
        ws = window_stats(np.array([xs, np.linspace(-1.0, 1.0, len(xs))]), with_shape=True)
        assert (ws.skews[0], ws.kurts[0]) == (one.skews[0], one.kurts[0])

    @given(st.lists(grid_floats, min_size=4, max_size=40), grid_floats)
    @settings(max_examples=100, deadline=None)
    def test_translation_equivariance(self, xs, d):
        base = estimate("cornish_fisher", xs, 0.05)
        shifted = estimate("cornish_fisher", [x + d for x in xs], 0.05)
        assert shifted == pytest.approx(base - d, abs=1e-8)


class TestStudentT:
    def test_capital_formula_at_exact_params(self):
        assert _t_capital(0.0, 1.0, 5.0, 0.05) == pytest.approx(
            math.sqrt(3.0 / 5.0) * abs(T5_05), abs=1e-6
        )

    def test_fit_recovers_t5(self):
        gen = SeededRng(42).generator()
        x = gen.standard_t(5, 100_000) * math.sqrt(3.0 / 5.0)
        params = fit_student_t(x)
        assert 4.5 <= params.nu <= 5.5

    def test_matrix_is_a_data_error_naming_its_shape(self):
        with pytest.raises(DataError, match=r"fit_student_t must be one-dimensional, got shape \(10, 2\)"):
            fit_student_t(np.ones((10, 2)))

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

    def test_likelihood_rising_at_200_gives_exactly_200(self):
        # a platykurtic row: the likelihood still rises at the top of (2, 200]
        row = np.linspace(-1.0, 1.0, 60)
        ws = window_stats(np.vstack([row, SeededRng(60).generator().standard_t(3, 60)]))
        z2 = ((ws.windows - ws.means[:, None]) / ws.sds[:, None]) ** 2
        assert _t_score(z2[:1], np.array([200.0]))[0][0] > 0.0
        assert fit_student_t(ws)[0] == fit_student_t(row).nu == 200.0

    def test_row_fit_independent_of_neighbours_stopping_at_other_steps(self, monkeypatch):
        gen = SeededRng(59).generator()
        draws = (lambda k: gen.standard_t(3, k), lambda k: gen.standard_t(6, k), gen.standard_normal)
        rows = np.vstack([draw(50) for _ in range(4) for draw in draws])
        active = []

        def counting_score(z2, nu):
            active.append(z2.shape[0])
            return _t_score(z2, nu)

        monkeypatch.setattr(estimators, "_t_score", counting_score)
        batch = fit_student_t(window_stats(rows))
        assert len(set(active)) > 2  # rows left the Newton iteration at different steps
        monkeypatch.undo()
        for row, nu in zip(rows, batch):
            assert fit_student_t(row).nu.hex() == nu.hex()

    def test_fitted_nu_is_a_root_of_the_score(self):
        # |score| within a few ulps of the size of its terms, its own rounding (the fit stops
        # at 2), or a sign change within 1e-10*nu
        gen = SeededRng(62).generator()
        for df in (3.0, 6.0, 30.0):
            ws = window_stats(gen.standard_t(df, (40, 50)))
            z2 = ((ws.windows - ws.means[:, None]) / ws.sds[:, None]) ** 2
            nu = fit_student_t(ws)
            inner = nu < 200.0
            score, _, size = _t_score(z2[inner], nu[inner])
            lower = _t_score(z2[inner], nu[inner] * (1.0 - 1e-10))[0]
            upper = _t_score(z2[inner], nu[inner] * (1.0 + 1e-10))[0]
            at_zero = np.abs(score) <= 4.0 * np.finfo(float).eps * size
            assert np.all(at_zero | (lower >= 0.0) & (upper <= 0.0))

    def test_nu_to_infinity_matches_gaussian(self, gaussian_sample):
        assert _t_capital(0.0, 1.0, 200.0, 0.05) == pytest.approx(-Z_05, abs=2e-3)

    def test_var_translation(self, gaussian_sample):
        x = np.concatenate([gaussian_sample, draw_gaussian(SeededRng(56), 50, 0.0, 1.0)])
        base = estimate("student_t", x, 0.05)
        shifted = estimate("student_t", x + 0.37, 0.05)
        # nu is re-optimised on the shifted sample, so exactness is limited by
        # the profile-likelihood search tolerance
        assert shifted == pytest.approx(base - 0.37, abs=1e-6)


class TestGpdFit:
    # five zeros above a tail: its 0.99999-quantile, between two zeros, is the threshold 0

    def test_exponential_tail(self):
        gen = SeededRng(5).generator()
        below = -gen.exponential(1.0, 100_000)
        sample = np.concatenate([below, np.zeros(5)])
        u, xi, beta, k = gpd_fit(sample, 0.99999)
        assert (u, k) == (0.0, 100_000)
        assert -0.02 <= xi <= 0.02
        assert 0.98 <= beta <= 1.02

    def test_gpd_tail_recovery(self):
        gen = SeededRng(6).generator()
        uniforms = gen.uniform(size=100_000)
        y = 2.0 / 0.3 * (uniforms ** (-0.3) - 1.0)  # GPD(xi=0.3, beta=2)
        sample = np.concatenate([-y, np.zeros(5)])
        u, xi, beta, _ = gpd_fit(sample, 0.99999)
        assert u == 0.0
        assert 0.27 <= xi <= 0.33
        assert 1.9 <= beta <= 2.1

    def test_constant_exceedances_degenerate(self):
        # the 0.5-quantile is 0, so every exceedance is 1
        sample = np.concatenate([-np.ones(10), np.ones(10)])
        with pytest.raises(DegenerateFitError):
            estimate("gpd", sample, 0.05, gpd_threshold_quantile=0.5)

    def test_insufficient_tail(self):
        # the 0.3-quantile is -0.6, with two points below it
        with pytest.raises(InsufficientTailError):
            estimate("gpd", [-1.0, -2.0, 1.0, 2.0, 3.0], 0.05)

    def test_row_fit_independent_of_other_rows(self):
        rows = draw_gaussian(SeededRng(61), 20 * 50, 0.0, 1.0).reshape(20, 50)
        # a tie at the 0.3 threshold leaves this row 14 exceedances, the others 15
        tied = np.sort(rows[0])
        tied[15] = tied[14]
        alone = window_stats(rows)
        mixed = window_stats(np.vstack([rows, tied]))
        for kernel in (batch_var_capitals, batch_es_capitals):
            assert np.array_equal(kernel("gpd", alone, 0.05), kernel("gpd", mixed, 0.05)[:20])


class TestGpdFitMemo:
    """One PWM fit per batch: the VaR and ES kernels read it from the batch's WindowStats."""

    ROWS = draw_gaussian(SeededRng(62), 8 * 50, 0.0, 1.0).reshape(8, 50)

    def test_one_fit_serves_both_measures_to_the_bit(self):
        config = BacktestConfig(alpha=0.05, methods=("gpd",), measure="both")
        ws = window_stats(self.ROWS)
        var_caps, es_caps = _capitals("gpd", ws, config, None)
        assert len(ws.fits) == 1
        for row, var_cap, es_cap in zip(self.ROWS, var_caps, es_caps):
            assert var_cap.hex() == estimate("gpd", row, 0.05).hex()
            assert es_cap.hex() == estimate("gpd", row, 0.05, "es").hex()

    def test_each_threshold_quantile_has_its_own_fit(self):
        ws = window_stats(self.ROWS)
        for q in (0.3, 0.4, 0.3):
            fresh = batch_es_capitals("gpd", window_stats(self.ROWS), 0.05, gpd_threshold_quantile=q)
            memo = batch_es_capitals("gpd", ws, 0.05, gpd_threshold_quantile=q)
            assert [c.hex() for c in memo] == [c.hex() for c in fresh]
        assert len(ws.fits) == 2
        assert not np.array_equal(
            batch_var_capitals("gpd", ws, 0.05, gpd_threshold_quantile=0.3),
            batch_var_capitals("gpd", ws, 0.05, gpd_threshold_quantile=0.4),
        )

    def test_slice_starts_without_fits(self):
        ws = window_stats(self.ROWS)
        batch_var_capitals("gpd", ws, 0.05)
        part = ws.take(slice(2, 5))
        assert ws.fits and part.fits == {}
        whole = batch_var_capitals("gpd", ws, 0.05)
        assert np.array_equal(batch_var_capitals("gpd", part, 0.05), whole[2:5])

    def test_fit_that_raised_is_not_memoised(self):
        rows = self.ROWS.copy()
        rows[3, 4:] = 5.0  # four outcomes below the 0.3-quantile 5, where five are needed
        ws = window_stats(rows)
        with pytest.raises(InsufficientTailError) as var_error:
            batch_var_capitals("gpd", ws, 0.05)
        assert ws.fits == {}
        with pytest.raises(InsufficientTailError) as es_error:
            batch_es_capitals("gpd", ws, 0.05)
        assert str(es_error.value) == str(var_error.value)


class TestVarGpd:
    def test_hand_formula(self):
        capital = gpd_var(u=-1.0, xi=0.5, beta=1.0, k=30, n=100, alpha=0.05)
        assert capital == pytest.approx(1 + 2 * (math.sqrt(6) - 1), abs=1e-4)

    def test_log_limit(self):
        capital = gpd_var(u=-1.0, xi=1e-9, beta=1.0, k=30, n=100, alpha=0.05)
        assert capital == pytest.approx(1 + math.log(6), abs=1e-3)

    def test_alpha_equals_tail_mass(self):
        capital = gpd_var(u=-1.0, xi=0.5, beta=1.0, k=30, n=100, alpha=0.3)
        assert capital == pytest.approx(1.0, abs=1e-12)

    def test_level_too_high(self):
        with pytest.raises(LevelTooHighError):
            gpd_var(u=-1.0, xi=0.5, beta=1.0, k=10, n=100, alpha=0.2)

    def test_sample_route_matches_fit_route(self, gaussian_sample):
        est = estimate("gpd", gaussian_sample, 0.05)
        u, xi, beta, k = gpd_fit(gaussian_sample, 0.3)
        assert u == pytest.approx(float(np.quantile(gaussian_sample, 0.3)), abs=1e-15)
        assert est == pytest.approx(gpd_var(u, xi, beta, k, 50, 0.05), abs=1e-12)

    def test_translation_equivariance_with_data_driven_threshold(self, gaussian_sample):
        base = estimate("gpd", gaussian_sample, 0.05)
        shifted = estimate("gpd", gaussian_sample + 0.41, 0.05)
        assert shifted == pytest.approx(base - 0.41, abs=1e-10)

    def test_positive_homogeneity(self, gaussian_sample):
        base = estimate("gpd", gaussian_sample, 0.05)
        scaled = estimate("gpd", 2.5 * gaussian_sample, 0.05)
        assert scaled == pytest.approx(2.5 * base, abs=1e-10)


class TestGpdThresholdQuantile:
    @pytest.mark.parametrize("measure", ["var", "es"])
    @pytest.mark.parametrize("q", [-0.5, 0.0, 1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_outside_open_unit_interval_is_config_error(self, gaussian_sample, measure, q):
        # the kernels reject what the backtest config rejects, with the same message
        with pytest.raises(ConfigError) as kernel_error:
            estimate("gpd", gaussian_sample, 0.05, measure, gpd_threshold_quantile=q)
        with pytest.raises(ConfigError) as config_error:
            BacktestConfig(alpha=0.05, methods=("gpd",), gpd_threshold_quantile=q)
        assert str(kernel_error.value) == str(config_error.value)
        assert "gpd_threshold_quantile must lie in (0, 1)" in str(kernel_error.value)


def kde_bandwidth(row):
    """Silverman's bandwidth 1.06*sd*n^(-1/5), the one the KDE kernel uses."""
    return 1.06 * np.std(row, ddof=1) * row.size ** (-0.2)


def kde_cdf_and_density(q, row, h):
    """One row's Gaussian mixture CDF and density at ``q``, in the batch kernel's arithmetic."""
    t = (q - row) / h
    density = np.mean(np.exp(-0.5 * (t * t))) / (math.sqrt(2.0 * math.pi) * h)
    return float(np.mean(special.ndtr(t))), float(density)


def kde_row_reference(row, alpha, h):
    """One row's KDE quantile by the scalar form of the batch kernel's safeguarded Newton iteration."""
    z = float(special.ndtri(alpha))
    lo, hi = float(row.min()) + h * min(z, 0.0), float(row.max()) + h * max(z, 0.0)
    q = 0.5 * (lo + hi)
    # the bracket scale's floor is 1/16 of the row's unit, 2^e with e the exponent of max|x|
    floor = math.ldexp(1.0, max(math.frexp(float(np.abs(row).max()))[1], -1021) - 4)
    for _ in range(200):
        f, density = kde_cdf_and_density(q, row, h)
        width, scale = hi - lo, max(floor, abs(lo), abs(hi))
        if abs(f - alpha) <= 1e-10 and width <= 1e-12 * scale or width <= 1e-15 * scale:
            break
        lo, hi = (q, hi) if f <= alpha else (lo, q)
        newton = math.nan
        if density > 0.0:
            step = (alpha - f) / density
            newton = q + step + 2.5e-13 * scale * float(np.sign(step))
        q = newton if lo < newton < hi else 0.5 * (lo + hi)
    return -q


def kde_mixture_root(row, alpha, h):
    """The root of the mixture CDF minus alpha, by brentq over 40 bandwidths past the data."""
    return optimize.brentq(lambda q: kde_cdf_and_density(q, row, h)[0] - alpha,
                           row.min() - 40.0 * h, row.max() + 40.0 * h,
                           xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=1000)


class TestVarKde:
    def test_batch_equals_scalar_loop_to_the_bit(self):
        # rows of different scales stop after different numbers of steps
        gen = SeededRng(58).generator()
        rows = np.vstack([gen.standard_t(3, 40) * s + m for s, m in [(0.01, 0), (1, 5), (30, -2)]])
        for alpha in (0.01, 0.1, 0.5):
            batch = batch_var_capitals("kde", window_stats(rows), alpha)
            for row, capital in zip(rows, batch):
                assert capital.hex() == kde_row_reference(row, alpha, kde_bandwidth(row)).hex()

    def test_subnormal_slope_warns_nothing(self):
        # Cauchy rows, one with an outlier ~2000 below the rest: some Newton iterates on it
        # see a subnormal density
        rows = np.random.default_rng(0).standard_t(1, (300, 1000))[116:120]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = batch_var_capitals("kde", window_stats(rows), 0.1)
        for row, capital in zip(rows, batch):
            assert capital.hex() == kde_row_reference(row, 0.1, kde_bandwidth(row)).hex()

    def test_quantile_is_the_mixture_root_to_1e12(self):
        gen = SeededRng(58).generator()
        rows = np.vstack([gen.standard_t(3, 40) * s + m for s, m in [(0.01, 0), (1, 5), (30, -2)]])
        for alpha in (0.01, 0.1, 0.5):
            batch = batch_var_capitals("kde", window_stats(rows), alpha)
            for row, capital in zip(rows, batch):
                root = kde_mixture_root(row, alpha, kde_bandwidth(row))
                assert abs(-capital - root) <= 1e-12 * max(1.0, abs(root))

    def test_flat_stretch_resolves_upward(self):
        # one point far below 399 zeros: F == alpha = 1/400 to the bit from where the far
        # point's term reaches 1 to where the zeros' terms register; the tie resolves to the
        # upper end of that stretch
        x = np.r_[-1e4, np.zeros(399)]
        q, h = -estimate("kde", x, 1 / 400), kde_bandwidth(x)
        assert kde_cdf_and_density(q - 3000.0, x, h)[0] == 1 / 400
        assert kde_cdf_and_density(q, x, h)[0] == 1 / 400
        assert kde_cdf_and_density(q + 1e-9 * abs(q), x, h)[0] > 1 / 400

    def test_translation_equivariance(self, gaussian_sample):
        base = estimate("kde", gaussian_sample, 0.05)
        shifted = estimate("kde", gaussian_sample + 0.73, 0.05)
        assert shifted == pytest.approx(base - 0.73, abs=1e-10)

    def test_constant_plus_rounding_noise_rejected(self):
        with pytest.raises(DataError):
            estimate("kde", constant_plus_rounding_noise(), 0.05)

    def test_ten_observations_are_its_minimum(self):
        # the registry's min_n is the KDE's one size rule, in both entry points
        assert METHODS["kde"].min_n == 10
        rows = draw_gaussian(SeededRng(59), 2 * 10, 0.0, 1.0).reshape(2, 10)
        for row, capital in zip(rows, batch_var_capitals("kde", window_stats(rows), 0.05)):
            assert capital.hex() == kde_row_reference(row, 0.05, kde_bandwidth(row)).hex()
            assert estimate("kde", row, 0.05).hex() == capital.hex()
        with pytest.raises(SizeError, match="kde needs at least 10 observations, got 9"):
            estimate("kde", rows[0, :9], 0.05)
        with pytest.raises(SizeError, match="kde needs at least 10 observations, got 9"):
            batch_var_capitals("kde", window_stats(rows[:, :9]), 0.05)

    def test_mirrored_sample_mirrors_the_quantile(self, gaussian_sample):
        # the bandwidth reads the sd, which a reflection keeps: q(-x, p) = -q(x, 1 - p)
        for alpha in (0.01, 0.1, 0.3):
            q = -estimate("kde", gaussian_sample, alpha)
            mirrored = -estimate("kde", -gaussian_sample, 1.0 - alpha)
            assert mirrored == pytest.approx(-q, abs=1e-11)

    def test_large_sample_approaches_empirical(self):
        # h = 1.06*n^(-1/5) is about 0.1 at n = 1e5: the smoothing moves the 5% quantile by
        # about (sqrt(1 + h^2) - 1)*1.645 = 0.009, and the empirical one errs by about 0.007
        x = draw_gaussian(SeededRng(10), 100_000, 0.0, 1.0)
        kde_cap = estimate("kde", x, 0.05)
        emp_cap = estimate("empirical", x, 0.05)
        assert abs(kde_cap - emp_cap) <= 0.03


class TestEsEmpirical:
    def test_two_tail_points(self):
        x = [-10.0, -5.0] + [0.0] * 18
        assert estimate("empirical", x, 0.10, "es") == pytest.approx(7.5, abs=1e-12)

    def test_constant_sample_empty_tail(self):
        with pytest.raises(EmptyTailError):
            estimate("empirical", [1.0] * 20, 0.1, "es")

    def test_es_geq_var(self):
        for seed in range(5):
            x = draw_gaussian(SeededRng(seed), 50, 0.0, 1.0)
            es = estimate("empirical", x, 0.1, "es")
            assert es >= estimate("empirical", x, 0.1)


class TestEsGaussian:
    def test_frozen_constants(self, gaussian_sample):
        z = standardized(gaussian_sample)
        assert estimate("gaussian", z, 0.10, "es") == pytest.approx(ES_GAUSS_10, abs=1e-5)
        assert estimate("gaussian", z, 0.05, "es") == pytest.approx(ES_GAUSS_05, abs=1e-5)

    def test_dominates_var(self, gaussian_sample):
        for alpha in (0.01, 0.05, 0.1, 0.4):
            es = estimate("gaussian", gaussian_sample, alpha, "es")
            assert es > estimate("gaussian", gaussian_sample, alpha)


class TestEsCornishFisher:
    def test_zero_skew_matches_gaussian(self):
        x = [-1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert estimate("cornish_fisher", x, 0.10, "es") == pytest.approx(
            estimate("gaussian", x, 0.10, "es"), abs=1e-4
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
        base = estimate("cornish_fisher", gaussian_sample, 0.10, "es")
        shifted = estimate("cornish_fisher", gaussian_sample + 0.21, 0.10, "es")
        assert shifted == pytest.approx(base - 0.21, abs=1e-10)


class TestEsGpd:
    def test_hand_formula(self):
        # 3.899/(1 - 0.5) + (1.0 + 0.5*(-1.0))/(1 - 0.5)
        capital = gpd_es(u=-1.0, xi=0.5, beta=1.0, var_empirical=3.899)
        assert capital == pytest.approx(8.798, abs=1e-3)

    @pytest.mark.parametrize("xi", [-0.25, 0.0, 0.2, 0.45, 0.65])
    def test_equals_tail_average_of_var(self, xi):
        # ES_alpha is the average of VaR_p over p in (0, alpha); alpha*n/k <= 1 keeps p in the tail
        fit = {"u": -0.4, "xi": xi, "beta": 0.7, "k": 30, "n": 100}
        alpha = 0.05
        average, _ = integrate.quad(
            lambda p: gpd_var(**fit, alpha=p), 0.0, alpha, epsabs=1e-13, epsrel=1e-13, limit=200
        )
        es = gpd_es(-0.4, xi, 0.7, gpd_var(**fit, alpha=alpha))
        assert es == pytest.approx(average / alpha, rel=1e-10, abs=1e-10)

    def test_exponential_limit(self):
        capital = gpd_es(u=-1.0, xi=0.0, beta=1.0, var_empirical=2.0)
        assert capital == pytest.approx(3.0, abs=1e-12)

    def test_infinite_mean_tail(self):
        with pytest.raises(InfiniteMeanTailError):
            gpd_es(u=-1.0, xi=1.0, beta=1.0, var_empirical=2.0)

    def test_increasing_in_beta(self):
        caps = [gpd_es(u=-1.0, xi=0.5, beta=b, var_empirical=2.0) for b in (0.5, 1.0, 2.0)]
        assert caps[0] < caps[1] < caps[2]

    def test_sample_route(self, gaussian_sample):
        est = estimate("gpd", gaussian_sample, 0.10, "es")
        u, xi, beta, _ = gpd_fit(gaussian_sample, 0.3)
        expected = gpd_es(u, xi, beta, estimate("empirical", gaussian_sample, 0.10))
        assert est == pytest.approx(expected, abs=1e-12)


class TestEsGaussianUnbiased:
    def test_formula_with_synthetic_entry(self, gaussian_sample):
        a_n = -1.81033
        b_n = -a_n * math.sqrt(50.0 / (49.0 * 51.0))
        table = CalibrationTable()
        table.add(CalibrationEntry(50, 0.10, b_n, a_n, 1_000_000, 0, 0.0))
        z = standardized(gaussian_sample)
        est = estimate("gaussian_unbiased", z, 0.10, "es", table=table)
        assert est == pytest.approx(1.81033, abs=1e-9)

    def test_paper_constant_from_solver(self, gaussian_sample):
        table = CalibrationTable()
        table.add(exact_unbiased_es_constant(50, 0.10))
        z = standardized(gaussian_sample)
        est = estimate("gaussian_unbiased", z, 0.10, "es", table=table)
        assert est == pytest.approx(1.8101034, abs=1e-6)

    def test_missing_entry(self, table_a50, gaussian_sample):
        # without a stored entry the exact constant is used, to the bit
        exact = CalibrationTable()
        exact.add(exact_unbiased_es_constant(50, 0.05))
        want = estimate("gaussian_unbiased", gaussian_sample, 0.05, "es", table=exact)
        stored = estimate("gaussian_unbiased", gaussian_sample, 0.05, "es", table=table_a50)
        assert stored == want
        assert estimate("gaussian_unbiased", gaussian_sample, 0.05, "es") == want
        ws = window_stats(gaussian_sample[None, :])
        assert batch_es_capitals("gaussian_unbiased", ws, 0.05)[0] == want
        # a stored entry wins over the exact constant
        stored = estimate("gaussian_unbiased", gaussian_sample, 0.10, "es", table=table_a50)
        assert stored != estimate("gaussian_unbiased", gaussian_sample, 0.10, "es")

    def test_dominates_plugin_at_n50(self, table_a50, gaussian_sample):
        assert (
            estimate("gaussian_unbiased", gaussian_sample, 0.10, "es", table=table_a50)
            > estimate("gaussian", gaussian_sample, 0.10, "es")
        )

    @pytest.mark.slow
    def test_large_n_limit_matches_plugin(self):
        from riskbench import solve_unbiased_es_constant

        table = CalibrationTable()
        table.add(solve_unbiased_es_constant(10_000, 0.10, 1_000_000, seed=9))
        x = standardized(draw_gaussian(SeededRng(8), 10_000, 0.0, 1.0))
        assert estimate("gaussian_unbiased", x, 0.10, "es", table=table) == pytest.approx(
            estimate("gaussian", x, 0.10, "es"), abs=0.005
        )


class TestMeanEstimator:
    def test_arithmetic(self):
        assert estimate("mean", [1.0, 2.0, 3.0], 0.5) == -2.0

    def test_constant(self):
        assert estimate("mean", [5.0] * 4, 0.5) == -5.0

    def test_empty(self):
        with pytest.raises(SizeError):
            estimate("mean", [], 0.5)

    @given(st.lists(grid_floats, min_size=1, max_size=30), grid_floats)
    @settings(max_examples=50, deadline=None)
    def test_translation(self, xs, d):
        assert estimate("mean", [x + d for x in xs], 0.5) == pytest.approx(
            estimate("mean", xs, 0.5) - d, abs=1e-10
        )


def _measures(tag):
    return ("var", "es") if METHODS[tag].es is not None else ("var",)


class TestSampleRule:
    """``estimate`` takes a finite 1-D sample and reshapes nothing."""

    def test_matrix_is_a_data_error_naming_its_shape(self):
        with pytest.raises(DataError, match=r"gaussian must be one-dimensional, got shape \(2, 2\)"):
            estimate("norm", [[1.0, 2.0], [3.0, 5.0]], 0.05)

    def test_scalar_is_a_data_error(self):
        with pytest.raises(DataError, match=r"mean must be one-dimensional, got shape \(\)"):
            estimate("mean", 3.0, 0.05)


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
        base = estimate(tag, x, 0.1, measure)
        for d in (-1.5, 0.37, 4.0):
            assert estimate(tag, x + d, 0.1, measure) == pytest.approx(base - d, abs=1e-10)

    @pytest.mark.parametrize("tag, measure", CASES)
    def test_positive_homogeneity_to_1e10(self, tag, measure):
        x = draw_gaussian(SeededRng(2025), 50, 0.0, 1.0)
        base = estimate(tag, x, 0.1, measure)
        for lam in (0.25, 2.0, 7.5):
            assert estimate(tag, lam * x, 0.1, measure) == pytest.approx(
                lam * base, rel=1e-10, abs=1e-10
            )

    @pytest.mark.parametrize("tag, measure", CASES)
    def test_constant_plus_rounding_noise_acts_as_constant(self, tag, measure):
        # the same exception as the exact constant, or its capital up to rounding
        noisy = constant_plus_rounding_noise()
        exact = np.full(noisy.size, noisy.min())

        def outcome(x):
            try:
                return estimate(tag, x, 0.1, measure)
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
        assert estimate(tag, np.full(n, value), 0.1, measure) == -value


class TestExactHomogeneity:
    """capital(2^k x) = 2^k capital(x) to the bit, for every kernel over the whole float range."""

    KS = (-900, -560, -500, -60, 60, 500, 900)
    X = np.random.default_rng(0).standard_normal(300)

    @pytest.mark.parametrize("tag, measure", TestCrossCuttingInvariants.CASES)
    def test_every_capital_scales_by_powers_of_two_exactly(self, tag, measure):
        base = estimate(tag, self.X, 0.05, measure)
        for k in self.KS:
            capital = estimate(tag, np.ldexp(self.X, k), 0.05, measure)
            assert capital.hex() == math.ldexp(base, k).hex(), k

    @pytest.mark.parametrize("tag, measure", TestCrossCuttingInvariants.CASES)
    def test_rows_at_different_exponents_equal_their_own_estimates(self, tag, measure):
        rows = np.random.default_rng(1).standard_normal((len(self.KS), 300))
        rows = np.ldexp(rows, np.array(self.KS)[:, None])
        batch = batch_var_capitals if measure == "var" else batch_es_capitals
        capitals = batch(tag, window_stats(rows), 0.05)
        for row, capital in zip(rows, capitals):
            assert capital.hex() == estimate(tag, row, 0.05, measure).hex()

    @pytest.mark.parametrize("measure", ["var", "es"])
    def test_gpd_threshold_quantile_scales_with_the_row(self, measure):
        for q in (0.1, 0.5):
            base = estimate("gpd", self.X, 0.05, measure, gpd_threshold_quantile=q)
            for k in self.KS:
                scaled = estimate("gpd", np.ldexp(self.X, k), 0.05, measure,
                                  gpd_threshold_quantile=q)
                assert scaled.hex() == math.ldexp(base, k).hex(), (q, k)

    def test_fits_return_data_units(self):
        t = fit_student_t(self.X)
        for k in self.KS:
            x = np.ldexp(self.X, k)
            assert fit_student_t(x) == StudentTParams(math.ldexp(t.mu, k), math.ldexp(t.sigma, k), t.nu)


def _constant(row):
    return np.full_like(row, 0.3)


class TestRowFaults:
    """Each kernel fault names the first batch row that causes it: planted at row 2 of 5 here."""

    # the other rows have no ties, so each has 15 points below its 0.3-quantile and 25 below
    # its 0.5-quantile; a planted row's ties pin its quantile and so its tail
    ROWS = draw_gaussian(SeededRng(17), 5 * 50, -1.0, 1.0).reshape(5, 50)
    CASES = {
        "gpd_tail_below_five": (
            "gpd", "var", 0.05, {},
            lambda row: np.r_[row[:4], np.full(46, 5.0)], InsufficientTailError,
        ),
        "gpd_degenerate_pwm": (  # the 0.5-quantile 0 makes every exceedance 1: b0 - 2*b1 = 0
            "gpd", "var", 0.05, {"gpd_threshold_quantile": 0.5},
            lambda row: np.repeat([-1.0, 1.0], 25), DegenerateFitError,
        ),
        "gpd_level_too_high": (  # alpha*n/k = 10/6, where the other rows give 10/15 < 1
            "gpd", "var", 0.2, {},
            lambda row: np.r_[-np.abs(row[:6]) - 5.0, np.full(44, 0.5)], LevelTooHighError,
        ),
        "gpd_infinite_mean": (  # b1 vanishes beside b0, so xi = 2 - b0/(b0 - 2*b1) rounds to 1
            "gpd", "es", 0.05, {},
            lambda row: np.r_[-1e20, -1e-20 * np.arange(1.0, 5.0), np.zeros(45)],
            InfiniteMeanTailError,
        ),
        "student_t_zero_spread": ("student_t", "var", 0.05, {}, _constant, DataError),
        "kde_zero_spread": ("kde", "var", 0.05, {}, _constant, DataError),
        "empirical_empty_tail": ("empirical", "es", 0.05, {}, _constant, EmptyTailError),
        "non_finite_capital": (  # sd ~ 1.7e308, so sd * 1.645 overflows
            "gaussian", "var", 0.05, {},
            lambda row: np.resize([-1.7e308, 1.7e308], 50), DataError,
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_fault_names_its_row(self, case):
        method, measure, alpha, options, plant, error = self.CASES[case]
        batch = batch_var_capitals if measure == "var" else batch_es_capitals
        rows = self.ROWS.copy()
        assert np.all(np.isfinite(batch(method, window_stats(rows), alpha, **options)))
        rows[2] = plant(rows[2])
        with pytest.raises(error) as raised, np.errstate(over="ignore"):
            batch(method, window_stats(rows), alpha, **options)
        assert str(raised.value).startswith("window 2: "), str(raised.value)


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
                capital = estimate(tag, row, self.ALPHA, measure, table=table)
                assert capital.hex() == float(capitals[i]).hex()

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

    @pytest.mark.parametrize("tag, option, value", [("kde", "kde_kernel", "gaussian"),
                                                    ("kde", "kde_bandwidth", 0.2),
                                                    ("gpd", "gpd_threshold", 0.0)])
    def test_removed_option_rejected(self, tag, option, value):
        # the KDE has one kernel and bandwidth and the GPD one threshold rule: no setting of
        # another is read as a no-op
        with pytest.raises(TypeError, match=f"{option}.*valid: gpd_threshold_quantile, table"):
            estimate(tag, self.ROWS[0], self.ALPHA, **{option: value})
        with pytest.raises(TypeError, match=option):
            batch_var_capitals(tag, window_stats(self.ROWS), self.ALPHA, **{option: value})
        assert estimators.OPTIONS == ("gpd_threshold_quantile", "table")

    def test_single_observation_where_defined(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate("empirical_simple", [3.0], 0.5) == -3.0
            assert estimate("mean", [2.0], 0.5) == -2.0
        with pytest.raises(SizeError):
            estimate("kde", [5.0], 0.05)


# run first in a child interpreter: from then on any import of scipy raises ImportError
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy.special
except ImportError:
    pass
else:
    raise SystemExit("scipy was not blocked")
"""
GAUSSIAN_FAMILY = ("gaussian", "gaussian_unbiased", "cornish_fisher", "empirical",
                   "empirical_simple", "gpd", "mean")


def run_child(code: str, cwd=None) -> str:
    """stdout of ``python -c code`` with this checkout's package on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(riskbench.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImports:
    def test_import_leaves_scipy_stats_and_optimize_unloaded(self):
        # the package imports no scipy at all: scipy.special alone took about 300 ms, more
        # than numpy's whole import, and scipy.stats and scipy.optimize cost more again
        code = ("import sys, riskbench; print(*(m in sys.modules for m in "
                "('scipy.stats', 'scipy.optimize', 'scipy.special', 'scipy')))")
        assert run_child(code).strip() == "False False False False"

    def test_gaussian_family_cli_runs_without_scipy(self, tmp_path):
        code = NO_SCIPY + f"""
from riskbench.cli import main
from riskbench.estimators import ES_METHODS

runs = [["calibrate", "--n", "50", "--alpha", "0.05", "--mc", "100000"],
        ["simulate", "--mu", "0", "--sigma", "1", "--length", "300", "--out", "r.csv"]]
runs += [["estimate", "--input", "r.csv", "--column", "ret", "--scale", "decimal",
          "--method", tag, "--measure", measure, "--alpha", "0.05"]
         for tag in {GAUSSIAN_FAMILY!r} for measure in ("var", "es")
         if measure == "var" or tag in ES_METHODS]
methods = ["--methods", "u,norm,emp,cf,gpd,mean", "--alpha", "0.05"]
runs += [["backtest", "--simulate", "--measure", "both", *methods],
         ["replicate", "--reps", "3", "--length", "300", "--measure", "both", *methods]]
for argv in runs:
    assert main(argv) == 0, argv
print(len(runs), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        assert run_child(code, cwd=tmp_path).splitlines()[-1] == "17 []"

    @pytest.mark.parametrize("tag", ["student_t", "kde"])
    def test_only_the_fitted_methods_load_scipy_special(self, tag):
        code = f"""
import sys
import numpy as np
from riskbench import estimate
from riskbench.estimators import ES_METHODS

x = np.random.default_rng(0).standard_normal(200)
for method in {GAUSSIAN_FAMILY!r}:
    estimate(method, x, 0.05)
    if method in ES_METHODS:
        estimate(method, x, 0.05, "es")
loaded = "scipy" in sys.modules
estimate({tag!r}, x, 0.05)
print(loaded, "scipy.special" in sys.modules)
"""
        assert run_child(code).strip() == "False True"


    def test_one_spelling_per_formula(self):
        # the scalar helpers that repeated a kernel or wrapped one scipy call are gone
        from riskbench import backtest, estimators, stats_core

        gone = ("gaussian_cdf", "gaussian_quantile", "student_t_quantile", "type7_quantile",
                "cornish_fisher_z", "CornishFisherAdjustment", "gpd_var_capital",
                "gpd_es_capital", "student_t_var_capital", "fit_gpd_pwm", "GpdFit",
                "exceedance_rate")
        for module in (riskbench, stats_core, estimators, backtest):
            assert not [name for name in gone if hasattr(module, name)], module.__name__


class TestWindowStats:
    def test_noisy_constant_row_sd_matches_scalar(self):
        x = constant_plus_rounding_noise()
        ws = window_stats(np.vstack([x, x[::-1], np.arange(12.0)]))
        sds = np.ldexp(ws.sds, ws.exponent)
        assert window_stats(x[None, :]).sds[0] == 0.0
        assert sds[0] == sds[1] == 0.0
        assert sds[2] == np.std(np.arange(12.0), ddof=1)

    def test_overflowing_rows_scaled_exactly(self):
        rows = draw_gaussian(SeededRng(530), 3 * 50, 0.3, 2.0).reshape(3, 50)
        big = rows * 2.0**530
        base = window_stats(rows, with_shape=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = window_stats(np.vstack([big, rows]), with_shape=True)
        base_means, base_sds = np.ldexp(base.means, base.exponent), np.ldexp(base.sds, base.exponent)
        means, sds = np.ldexp(scaled.means, scaled.exponent), np.ldexp(scaled.sds, scaled.exponent)
        assert np.array_equal(means, np.concatenate([base_means * 2.0**530, base_means]))
        assert np.array_equal(sds, np.concatenate([base_sds * 2.0**530, base_sds]))
        assert np.array_equal(scaled.skews, np.tile(base.skews, 2))
        assert np.array_equal(scaled.kurts, np.tile(base.kurts, 2))

    def test_moments_only_form_feeds_location_scale_kernels_to_the_bit(self):
        full = window_stats(draw_gaussian(SeededRng(8), 6 * 20, 0.3, 2.0).reshape(6, 20))
        moments = WindowStats(None, None, full.means, full.sds, 20, exponent=full.exponent)
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

    def test_sd_is_numpys_about_the_stored_mean(self):
        # enough rows that a rounding of the same sd in another order would show
        rows = np.vstack([
            draw_gaussian(SeededRng(81), 200 * 50, 0.3, 2.0).reshape(200, 50),
            np.round(draw_gaussian(SeededRng(82), 20 * 50, 0.0, 3.0)).reshape(20, 50),
            np.full((1, 50), 0.1),  # constant: an sd of exactly zero
        ])
        ws = window_stats(rows)
        scaled = np.ldexp(rows, -ws.exponent[:, None])
        assert np.array_equal(ws.windows, scaled)
        assert [s.hex() for s in ws.sds[:-1]] == [np.std(r, ddof=1).hex() for r in scaled[:-1]]
        assert ws.sds[-1] == 0.0 and ws.means[-1] == scaled[-1, 0]

    def test_strided_windows_read_as_their_rows(self):
        # the (G, K-1, n) estimation view of tiled series, as a replication chunk passes it
        tiled = draw_gaussian(SeededRng(83), 3 * 6 * 20, 0.1, 1.5).reshape(3, 6, 20)
        view = tiled[:, :-1]
        assert not view.flags.c_contiguous
        rows = window_stats(view.reshape(-1, 20), with_shape=True)
        # and a column-major copy of the rows, whose row sums must not run down the columns
        for other in (view, np.asfortranarray(view.reshape(-1, 20))):
            ws = window_stats(other, with_shape=True)
            for name in ("windows", "sorted_rows", "means", "sds", "exponent", "skews", "kurts"):
                assert getattr(ws, name).tobytes() == getattr(rows, name).tobytes(), name
            assert ws.windows.shape == (15, 20)
        with pytest.raises(SizeError):
            window_stats(np.zeros(5))


def full_count_below(srt, q, p=None):
    """#{x < q} per sorted row by the full comparison."""
    return (srt < q[:, None]).sum(axis=1)


class TestIndexTailCounts:
    """Tail counts read off a type-7 quantile's index against the full comparison."""

    ROWS = np.vstack([
        draw_gaussian(SeededRng(84), 6 * 21, 0.0, 1.0).reshape(6, 21),
        np.round(draw_gaussian(SeededRng(85), 30 * 21, 0.0, 1.5)).reshape(30, 21),  # ties
        np.full((2, 21), -0.25),
    ])

    # g = 0 where h = 20p + 1 is an integer: q is an order statistic
    @pytest.mark.parametrize("p, order_statistic", [(0.05, True), (0.12, False), (0.3, True),
                                                    (0.33, False), (0.5, True), (0.999, False)])
    def test_counts_equal_the_comparison(self, p, order_statistic):
        assert (_type7_index(21, p)[1] == 0.0) == order_statistic
        srt = np.sort(self.ROWS, axis=1)
        q = _type7_sorted_rows(srt, p)
        counts = estimators._count_below(srt, q, p)
        assert counts.dtype == full_count_below(srt, q).dtype
        assert counts.tolist() == full_count_below(srt, q).tolist()

    @pytest.mark.parametrize("options", [{}, {"gpd_threshold_quantile": 0.25},
                                         {"gpd_threshold_quantile": 0.5},
                                         {"gpd_threshold_quantile": 0.1},
                                         {"gpd_threshold_quantile": 0.75}])
    @pytest.mark.parametrize("alpha", [0.05, 0.25])
    def test_kernels_equal_the_comparison(self, options, alpha, monkeypatch):
        def capitals():
            out = []
            for kernel, tag in ((batch_es_capitals, "empirical"), (batch_var_capitals, "gpd"),
                                (batch_es_capitals, "gpd")):
                for rows in self.ROWS[:, None]:
                    try:
                        out.append(kernel(tag, window_stats(rows), alpha, **options)[0].hex())
                    except RiskbenchError as exc:
                        out.append(f"{type(exc).__name__}: {exc}")
            return out

        indexed = capitals()
        monkeypatch.setattr(estimators, "_count_below", full_count_below)
        assert indexed == capitals()
        assert sum(not c.startswith("0x") and not c.startswith("-0x") for c in indexed) > 0
