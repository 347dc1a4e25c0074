import functools
import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from riskbench import (
    BacktestConfig,
    CalibrationTable,
    ConfigError,
    DataError,
    DomainError,
    EmptyTailError,
    GaussianParams,
    SeededRng,
    SizeError,
    acerbi_z,
    bias_statistic,
    draw_gaussian,
    estimate,
    exact_unbiased_es_constant,
    mean_score,
    replication_study,
    rolling_backtest,
    split_windows,
)
from riskbench import backtest
from riskbench.backtest import _backtest_stats
from riskbench.estimators import window_stats

bounded_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestSplitWindows:
    def test_exact_tiling_2500(self):
        windows = split_windows(np.arange(2500.0), 50)
        assert windows.shape == (50, 50)
        assert windows[-1, -1] == 2499.0

    def test_floor_rule_drops_tail(self):
        windows = split_windows(np.arange(2549.0), 50)
        assert windows.shape == (50, 50)
        assert windows[-1, -1] == 2499.0

    def test_too_short(self):
        with pytest.raises(SizeError):
            split_windows(np.arange(99.0), 50)

    def test_windows_preserve_order(self):
        windows = split_windows(np.arange(200.0), 50)
        assert windows[0, 0] == 0.0
        assert windows[3, -1] == 199.0

    def test_matrix_is_a_data_error_naming_its_shape(self):
        # two columns are two series, not one interleaved series
        with pytest.raises(DataError, match=r"shape \(1000, 2\)"):
            split_windows(np.zeros((1000, 2)), 50)


def _exceedances(capitals, windows):
    """Per-outcome exceedances as the backtest counts them: each outcome a one-point group."""
    k, w = windows.shape
    caps = np.repeat(capitals, w)[:, None]
    stats = _backtest_stats(caps, None, windows.reshape(k * w, 1, 1), 0.05)
    return stats["count"].reshape(k, w) > 0


class TestExceedanceRate:
    """The exceedance indicator that the backtest counts: outcome + capital < 0."""

    def test_no_exceedances(self):
        windows = np.zeros((3, 4))
        assert not _exceedances(np.full(3, 1e9), windows).any()

    def test_all_exceed(self):
        windows = np.random.default_rng(0).normal(size=(3, 4))
        caps = -(windows.max(axis=1)) - 1.0
        assert _exceedances(caps, windows).all()

    def test_hand_count(self):
        window = np.zeros((1, 50))
        window[0, :3] = -1.0  # three losses below -capital
        rate = np.count_nonzero(_exceedances(np.array([0.5]), window)) / window.size
        assert rate == pytest.approx(0.06)

    def test_tie_is_no_exceedance(self):
        # an outcome that the capital exactly offsets leaves a secured position of zero
        hits = _exceedances(np.array([1.0, 0.0]), np.array([[-1.0, -1.5], [0.0, -0.0]]))
        assert hits.tolist() == [[False, True], [False, False]]

    @pytest.mark.parametrize("w", [1, 2, 50, 64])
    def test_lower_bound_count_equals_the_comparison(self, w):
        # each window's count against the elementwise one, with three methods' (M, G, K)
        # capitals at once: x1 on tied values, at each end, beyond them and NaN
        gen = np.random.default_rng(w)
        windows = gen.integers(-3, 4, (40, 3, w)).astype(float)
        x1 = np.stack([
            windows[..., 0],
            gen.choice([-4.0, -3.0, 0.0, 3.0, 3.5, np.nan], windows.shape[:-1]),
            gen.integers(-4, 5, windows.shape[:-1]) + gen.choice([0.0, 0.5, -0.0], windows.shape[:-1]),
        ])
        count = _backtest_stats(-x1, None, windows, 0.05)["count"]
        expected = np.count_nonzero(windows < x1[..., None], axis=(-2, -1))
        assert count.shape == (3, 40)
        assert count.tolist() == expected.tolist()
        for g in range(40):
            alone = _backtest_stats(-x1[:, g, :1], None, windows[g, :1], 0.05)["count"]
            assert alone.tolist() == np.count_nonzero(windows[g, 0] < x1[:, g, :1], axis=-1).tolist()


class TestBiasStatistic:
    def test_constant_secured_positions(self):
        x = np.zeros(30)
        caps = np.ones(30)
        assert bias_statistic(x, caps, 0.05, "var") == -1.0

    def test_type7_hand_value_i40(self):
        # sorted y = (-2, -1, 0...0), I=40: h = 0.05*39+1 = 2.95,
        # quantile = -1 + 0.95*(0 - (-1)) = -0.05 -> capital 0.05
        y = np.array([-2.0, -1.0] + [0.0] * 38)
        assert bias_statistic(y, np.zeros(40), 0.05, "var") == pytest.approx(0.05, abs=1e-12)

    def test_type7_hand_value_i20(self):
        # same tail at I=20: h = 0.05*19+1 = 1.95 -> -(-2 + 0.95) = 1.05
        y = np.array([-2.0, -1.0] + [0.0] * 18)
        assert bias_statistic(y, np.zeros(20), 0.05, "var") == pytest.approx(1.05, abs=1e-12)

    def test_es_form(self):
        y = np.array([-10.0, -5.0] + [0.0] * 18)
        assert bias_statistic(y, np.zeros(20), 0.10, "es") == pytest.approx(7.5)

    def test_es_form_empty_tail(self):
        with pytest.raises(EmptyTailError):
            bias_statistic(np.ones(20), np.zeros(20), 0.10, "es")

    def test_alignment(self):
        with pytest.raises(DomainError):
            bias_statistic(np.zeros(5), np.zeros(4), 0.1, "var")

    def test_unbiased_estimator_near_zero_on_simulation(self, table_a50):
        series = draw_gaussian(SeededRng(77), 4000, 0.0, 1.0)
        config = BacktestConfig(alpha=0.05, methods=("u",), window=50)
        report = rolling_backtest(series, config)
        assert abs(report.methods["gaussian_unbiased"].bias_statistic) < 0.05


class TestAcerbiZ:
    def test_no_exceedances_is_one(self):
        windows = np.ones((4, 50))
        z = acerbi_z(np.zeros(4), np.ones(4), windows, 0.1)
        assert z == 1.0

    def test_single_pair_hand_value(self):
        window = np.zeros((1, 50))
        window[0, 0] = -1.0
        z = acerbi_z(np.array([0.5]), np.array([2.0]), window, 0.1)
        assert z == pytest.approx(0.9, abs=1e-12)

    def test_decreasing_in_exceedance_magnitude(self):
        window = np.zeros((1, 50))
        window[0, 0] = -1.0
        base = acerbi_z(np.array([0.5]), np.array([2.0]), window, 0.1)
        window[0, 0] = -2.0
        worse = acerbi_z(np.array([0.5]), np.array([2.0]), window, 0.1)
        assert worse < base

    def test_non_positive_es_undefined(self):
        with pytest.raises(DomainError):
            acerbi_z(np.zeros(2), np.array([1.0, 0.0]), np.zeros((2, 5)), 0.1)


def var_score(forecast, outcome, alpha):
    """The VaR mean score of one forecast on a one-point window."""
    return mean_score(np.array([forecast]), np.array([[outcome]]), alpha)


def joint_score(var_forecast, es_forecast, outcome, alpha):
    """The joint mean score of one forecast pair on a one-point window."""
    return mean_score(np.array([var_forecast]), np.array([[outcome]]), alpha, "joint",
                      es_forecasts=np.array([es_forecast]))


class TestVarScore:
    """S = (1{x1 >= y} - alpha)(x1 - y) at a forecast x1 (minus the VaR capital) and outcome y."""

    def test_zero_gap(self):
        assert var_score(1.3, 1.3, 0.05) == 0.0

    def test_hand_values(self):
        assert var_score(0.0, 1.0, 0.05) == pytest.approx(0.05)
        assert var_score(1.0, 0.0, 0.05) == pytest.approx(0.95)

    @given(bounded_floats, bounded_floats, st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_weighted_penalty_identity(self, capital, outcome, alpha):
        # S(-rho, X) = alpha*(X+rho)^+ + (1-alpha)*(X+rho)^-
        secured = outcome + capital
        expected = alpha * max(secured, 0.0) + (1 - alpha) * max(-secured, 0.0)
        assert var_score(-capital, outcome, alpha) == pytest.approx(expected, abs=1e-12)

    def test_consistency_brute_force_small(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            atoms = np.sort(rng.uniform(-3, 3, size=rng.integers(2, 7)))
            probs = rng.dirichlet(np.ones(atoms.size))
            alpha = 0.1
            grid = np.arange(atoms[0] - 0.05, atoms[-1] + 0.05, 1e-3)
            # S(x, atom) for every (grid point, atom): one group of one one-point window each
            forecasts, outcomes = np.broadcast_arrays(grid[:, None], atoms)
            scores = mean_score(forecasts.reshape(-1, 1), outcomes.reshape(-1, 1, 1), alpha)
            mean_scores = scores.reshape(grid.size, atoms.size) @ probs
            minimisers = grid[mean_scores <= mean_scores.min() + 1e-12]
            cdf = np.cumsum(probs)
            lo = atoms[int(np.searchsorted(cdf, alpha - 1e-12))]
            hi = atoms[min(int(np.searchsorted(cdf, alpha + 1e-12)), atoms.size - 1)]
            assert minimisers.min() >= lo - 1.5e-3
            assert minimisers.max() <= hi + 1.5e-3


class TestJointScore:
    """S + sig*1{x1 >= y}*(x1 - y)/alpha + sig*(x2 - x1) - sig, with sig = expit(x2)."""

    def test_origin_value(self):
        assert joint_score(0.0, 0.0, 0.0, 0.3) == pytest.approx(-0.5)

    def test_miss_value(self):
        assert joint_score(0.0, 0.0, 1.0, 0.1) == pytest.approx(-0.4)

    def test_vanishing_logistic_weight(self):
        assert abs(joint_score(2.0, -60.0, 2.0, 0.1)) < 1e-8


class TestExpit:
    """The joint score's sigmoid, 1/(1 + exp(-x)) on numpy's exp."""

    def test_within_4_ulps_of_scipy(self):
        # numpy's SIMD exp: 2 ulps for |x| up to about 5, 4 out to |x| ~ 700
        rng = np.random.default_rng(23)
        x = np.concatenate([rng.normal(0.0, 5.0, 500_000), rng.uniform(-1000.0, 1000.0, 500_000)])
        mine, ref = backtest._expit(x), special.expit(x)
        normal = ref >= np.finfo(float).tiny
        assert np.all(np.abs(mine - ref)[normal] <= 4.0 * np.spacing(ref[normal]))
        assert np.all(np.abs(mine - ref)[~normal] <= np.finfo(float).tiny)

    def test_overflow_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backtest._expit(np.array([-800.0, 0.0, 800.0])).tolist() == [0.0, 0.5, 1.0]


class TestMeanScore:
    def test_all_zero(self):
        assert mean_score(np.zeros(3), np.zeros((3, 5)), 0.5) == 0.0

    def test_two_window_average(self):
        # w=1, alpha=0.5: scores are 0.5*(x-y) = 0.2 and 0.4 -> mean 0.3
        forecasts = np.array([0.4, 0.8])
        windows = np.zeros((2, 1))
        assert mean_score(forecasts, windows, 0.5) == pytest.approx(0.3)

    def test_joint_requires_es(self):
        with pytest.raises(ConfigError):
            mean_score(np.zeros(2), np.zeros((2, 3)), 0.1, score="joint")

    def test_misaligned_forecasts_are_domain_errors(self):
        # the same fault raises the same error as in acerbi_z and bias_statistic
        with pytest.raises(DomainError, match="not aligned"):
            mean_score(np.zeros(3), np.zeros((2, 5)), 0.1)
        with pytest.raises(DomainError, match="not aligned"):
            acerbi_z(np.zeros(3), np.ones(3), np.zeros((2, 5)), 0.1)

    def test_misaligned_es_forecasts_are_domain_errors(self):
        with pytest.raises(DomainError, match="not aligned"):
            mean_score(np.zeros(2), np.zeros((2, 5)), 0.1, "joint", es_forecasts=np.zeros(3))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 5)])
    def test_empty_windows_are_size_errors(self, shape):
        # as in bias_statistic: no observation is a size fault, not a NaN
        caps, windows = np.ones(shape[0]), np.zeros(shape)
        with pytest.raises(SizeError):
            mean_score(caps, windows, 0.1)
        with pytest.raises(SizeError):
            acerbi_z(caps, caps, windows, 0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_are_data_errors(self, bad):
        windows = np.zeros((2, 5))
        with pytest.raises(DataError):
            mean_score(np.array([1.0, bad]), windows, 0.1)
        windows[1, 3] = bad
        with pytest.raises(DataError):
            mean_score(np.ones(2), windows, 0.1)
        with pytest.raises(DataError):
            acerbi_z(np.ones(2), np.ones(2), windows, 0.1)
        # one-point windows, each argument of either score, and the bias statistic, whose
        # secured positions would carry it
        for args in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(DataError):
                var_score(*args, 0.05)
        for args in ((bad, 0.0, 1.0), (0.0, bad, 1.0), (0.0, 0.0, bad)):
            with pytest.raises(DataError):
                joint_score(*args, 0.1)
        for samples, measure in ((np.zeros(20), "var"), (np.linspace(-1.0, 1.0, 20), "es")):
            samples[3] = bad
            with pytest.raises(DataError):
                bias_statistic(samples, np.ones(20), 0.1, measure)
            with pytest.raises(DataError):
                bias_statistic(np.zeros(20), np.where(np.arange(20) == 3, bad, 1.0), 0.1, measure)


class TestNonFinitePositions:
    """The scoring entry points name the first non-finite position, as the sample rule does."""

    def test_bias_statistic_names_the_index(self):
        samples = np.zeros(20)
        samples[[3, 7]] = np.nan, np.inf
        with pytest.raises(DataError, match="their sums must be finite; position 3 is not$"):
            bias_statistic(samples, np.ones(20), 0.1)
        with pytest.raises(DataError, match="position 5 is not$"):
            bias_statistic(np.zeros(20), np.where(np.arange(20) == 5, -np.inf, 1.0), 0.1, "es")

    def test_scores_name_the_window_and_point(self):
        windows = np.zeros((3, 5))
        windows[1, 3] = windows[2, 0] = np.nan
        message = r"^evaluation windows must be finite; the value at \(1, 3\) is not$"
        with pytest.raises(DataError, match=message):
            mean_score(np.ones(3), windows, 0.1)
        with pytest.raises(DataError, match=r"^capitals must be finite; the value at 2 is not$"):
            acerbi_z(np.ones(3), np.array([1.0, 1.0, np.inf]), np.zeros((3, 5)), 0.1)
        forecasts = r"^forecasts must be finite; the value at 1 is not$"
        with pytest.raises(DataError, match=forecasts):
            mean_score([1.0, np.nan], np.ones((2, 3)), 0.1)
        with pytest.raises(DataError, match=forecasts):
            mean_score(np.ones(2), np.ones((2, 3)), 0.1, "joint", es_forecasts=[1.0, -np.inf])
        grouped = np.zeros((2, 3, 5))
        grouped[1, 2, 4] = np.inf
        with pytest.raises(DataError, match=r"the value at \(1, 2, 4\) is not$"):
            acerbi_z(np.ones((2, 3)), np.ones((2, 3)), grouped, 0.1)


class TestFusedScoringPass:
    """The backtest's four statistics from one pass, against the formulas written out here."""

    ALPHA = 0.05
    CONFIG = BacktestConfig(
        alpha=0.05, methods=("emp", "norm", "u", "cf", "gpd"), window=50, measure="both"
    )

    @staticmethod
    def oracle(var_caps, es_caps, windows, alpha):
        """Count, VaR mean score, Z and joint mean score, each by its own textbook expression."""
        y, c, e = windows, var_caps[..., None], es_caps[..., None]
        count = np.count_nonzero(y + c < 0.0, axis=(1, 2))
        x1, x2 = -c, -e
        var_values = ((x1 >= y).astype(float) - alpha) * (x1 - y)
        ind = (x1 >= y).astype(float)
        sig = special.expit(x2)
        d = x1 - y
        joint_values = (ind - alpha) * d + sig * ind * d / alpha + sig * (x2 - x1) - sig
        hits = y + c < 0.0
        scale = np.where(es_caps > 0.0, es_caps, np.nan)
        z = 1.0 + ((y * hits).sum(axis=-1) / (y.shape[-1] * alpha * scale)).mean(axis=-1)
        return {
            "count": count,
            "var_score": var_values.mean(axis=-1).mean(axis=-1),
            "es_z": z,
            "joint_score": joint_values.mean(axis=-1).mean(axis=-1),
        }

    # a score may be off its exact value by this many units of 2**-52 of the sum of the
    # magnitudes of its terms; both the elementwise form and the sorted form stay within it
    ULPS = 4

    @staticmethod
    def exact(var_caps, es_caps, windows, alpha):
        """Each group's VaR mean score, Z and joint mean score in exact rational arithmetic.

        The floats, alpha and sig = expit(x2) are read as the exact values they hold.
        Each statistic comes with the sum of the magnitudes of its terms: the formulas'
        elementwise summands, each weighted 1 / (K w), and Z's leading 1.
        """
        groups, rows, w = windows.shape
        a, n = Fraction(alpha), rows * w
        sig = special.expit(-es_caps)
        out = {key: ([], []) for key in ("var_score", "es_z", "joint_score")}
        for g in range(groups):
            sums = {"var_score": [0, 0], "es_z": [1, 1], "joint_score": [0, 0]}
            defined = bool(np.all(es_caps[g] > 0.0))
            for k in range(rows):
                x1, x2, s = Fraction(-var_caps[g, k]), Fraction(-es_caps[g, k]), Fraction(sig[g, k])
                es = Fraction(es_caps[g, k])
                for y in map(Fraction, windows[g, k]):
                    d = x1 - y
                    ind = 1 if d >= 0 else 0
                    terms = {
                        "var_score": ((ind - a) * d,),
                        "joint_score": ((ind - a) * d, s * ind * d / a, s * (x2 - x1), -s),
                        "es_z": (y / (a * es),) if defined and y < x1 else (),
                    }
                    for key, parts in terms.items():
                        sums[key][0] += sum(parts) / n
                        sums[key][1] += sum(map(abs, parts)) / n
            for key, (value, scale) in sums.items():
                defined_here = defined or key != "es_z"
                out[key][0].append(value if defined_here else None)
                out[key][1].append(scale)
        return out

    @classmethod
    def assert_near_exact(cls, values, exact, key):
        for value, (truth, scale) in zip(values, zip(*exact[key])):
            if truth is None:
                assert np.isnan(value), key
                continue
            error = abs(Fraction(float(value)) - truth)
            assert error <= cls.ULPS * Fraction(2) ** -52 * scale, (key, float(error / scale))

    @classmethod
    def planted(cls, mu):
        """A G = 3 block whose evaluation windows hold outcomes that exactly offset a capital."""
        data = draw_gaussian(SeededRng(91), 3 * 8 * 50, mu, 1.0).reshape(3, 8, 50)
        estimation, evaluation = data[:, :-1], data[:, 1:].copy()
        ws = window_stats(estimation.reshape(-1, 50))
        for j, method in enumerate(cls.CONFIG.methods):
            caps = backtest.batch_var_capitals(method, ws, cls.ALPHA).reshape(3, 7)
            evaluation[:, :, 2 * j] = -caps  # y == -c: a secured position of exactly zero
            evaluation[:, ::2, 2 * j + 1] = -caps[:, ::2] - 1e-3  # and a plain exceedance
        return estimation, evaluation

    @pytest.fixture(scope="class")
    def block(self):
        return self.planted(0.0)

    @staticmethod
    def hexed(values):
        return [float(v).hex() for v in values]

    def test_statistics_match_the_formulas_to_the_bit(self, block):
        estimation, evaluation = block
        ties = 0
        for method, failures, var_caps, es_caps, stats in backtest._backtest_groups(
            estimation, evaluation, self.CONFIG, None
        ):
            assert failures == [None] * 3
            secured = evaluation + var_caps[..., None]
            ties += np.count_nonzero(secured == 0.0)
            expected = self.oracle(var_caps, es_caps, evaluation, self.ALPHA)
            assert stats["count"].tolist() == expected["count"].tolist()
            # a tie is no exceedance
            assert stats["count"].tolist() == np.count_nonzero(secured < 0.0, axis=(1, 2)).tolist()
            exact = self.exact(var_caps, es_caps, evaluation, self.ALPHA)
            for key in ("var_score", "es_z", "joint_score"):
                # the elementwise formulas meet the bound that the backtest's pass is held to
                self.assert_near_exact(expected[key], exact, key)
                self.assert_near_exact(stats[key], exact, key)
            assert self.hexed(stats["er"]) == self.hexed(expected["count"] / evaluation[0].size)
            # and so do the elementwise formulas and the pass at each point alone, each point a
            # one-point window, ties included
            caps = [np.broadcast_to(c[..., None], evaluation.shape).reshape(-1, 1)
                    for c in (var_caps, es_caps)]
            points = evaluation.reshape(-1, 1, 1)
            exact_points = self.exact(*caps, points, self.ALPHA)
            pointwise = self.oracle(*caps, points, self.ALPHA)
            one_point = _backtest_stats(*caps, points, self.ALPHA)
            for key in ("var_score", "joint_score"):
                assert one_point[key].shape == (evaluation.size,)
                self.assert_near_exact(pointwise[key], exact_points, key)
                self.assert_near_exact(one_point[key], exact_points, key)
        assert ties >= 5 * 3 * 7

    @staticmethod
    def uncentred_var_score(var_caps, windows, alpha):
        """The VaR mean score from prefix sums of the raw sorted outcomes, with no centre."""
        y = np.sort(windows, axis=-1)
        sums = np.concatenate([np.zeros(y.shape[:-1] + (1,)), np.cumsum(y, axis=-1)], axis=-1)
        x1, w = -var_caps, y.shape[-1]
        k = np.count_nonzero(y < x1[..., None], axis=-1)
        below = np.take_along_axis(sums, k[..., None], axis=-1)[..., 0]
        var = k * x1 - below - alpha * (w * x1 - sums[..., w])
        return (var / w).mean(axis=-1)

    @pytest.mark.parametrize("mu", [1e8, 1e12, -1e12])
    def test_location_shifted_blocks_stay_near_the_exact_value(self, mu):
        # prefix sums of raw outcomes err by ulps of |mu|, far beyond the terms |x1 - y|
        estimation, evaluation = self.planted(mu)
        for method, failures, var_caps, es_caps, stats in backtest._backtest_groups(
            estimation, evaluation, self.CONFIG, None
        ):
            assert failures == [None] * 3
            expected = self.oracle(var_caps, es_caps, evaluation, self.ALPHA)
            assert stats["count"].tolist() == expected["count"].tolist()
            exact = self.exact(var_caps, es_caps, evaluation, self.ALPHA)
            for key in ("var_score", "es_z", "joint_score"):
                self.assert_near_exact(expected[key], exact, key)
                self.assert_near_exact(stats[key], exact, key)
            uncentred = self.uncentred_var_score(var_caps, evaluation, self.ALPHA)
            with pytest.raises(AssertionError):
                self.assert_near_exact(uncentred, exact, "var_score")

    def test_statistics_do_not_depend_on_the_order_within_a_window(self, block):
        estimation, evaluation = block
        shuffled = np.random.default_rng(5).permuted(evaluation, axis=-1)
        assert not np.array_equal(shuffled, evaluation)
        pairs = zip(
            backtest._backtest_groups(estimation, evaluation, self.CONFIG, None),
            backtest._backtest_groups(estimation, shuffled, self.CONFIG, None),
        )
        for (method, _, _, _, stats), (_, _, _, _, permuted) in pairs:
            for key in ("count", "er", "var_score", "es_z", "joint_score"):
                assert self.hexed(stats[key]) == self.hexed(permuted[key]), (method, key)

    def test_public_entry_points_equal_the_pass(self, block):
        # acerbi_z and mean_score sort their own (unsorted) windows
        estimation, evaluation = block
        alpha = self.ALPHA
        for method, _, var_caps, es_caps, stats in backtest._backtest_groups(
            estimation, evaluation, self.CONFIG, None
        ):
            public = {
                "es_z": lambda g: acerbi_z(var_caps[g], es_caps[g], evaluation[g], alpha),
                "var_score": lambda g: mean_score(-var_caps[g], evaluation[g], alpha),
                "joint_score": lambda g: mean_score(
                    -var_caps[g], evaluation[g], alpha, "joint", es_forecasts=-es_caps[g]
                ),
            }
            for key, statistic in public.items():
                assert self.hexed(statistic(slice(None))) == self.hexed(stats[key]), (method, key)
                assert self.hexed([statistic(g) for g in range(3)]) == self.hexed(stats[key])

    def test_a_tie_is_no_exceedance_but_scores_with_the_indicator_set(self):
        var_caps, es_caps = np.array([[1.5]]), np.array([[2.0]])
        windows = np.array([[[-1.5]]])
        stats = _backtest_stats(var_caps, es_caps, windows, 0.1)
        expected = self.oracle(var_caps, es_caps, windows, 0.1)
        assert stats["count"].tolist() == [0] and stats["es_z"].tolist() == [1.0]
        for key in ("var_score", "joint_score"):
            assert self.hexed(stats[key]) == self.hexed(expected[key])
        # d = 0 at a tie, so the indicator shows only in the sign of the score of the one point:
        # (1 - alpha) * 0 = +0.0, where an indicator of 0 gives (0 - alpha) * 0 = -0.0
        assert stats["var_score"][0].hex() == "0x0.0p+0"

    def test_one_point_windows_sort_to_themselves(self):
        # w = 1 takes the general path: the window is its own sort and centre, its prefix sums 0
        windows = np.array([[[-2.5], [0.0], [1e300]], [[1e-300], [-0.0], [7.0]]])
        y, r, prefix, start = backtest._sort_windows(windows)
        assert y.tobytes() == windows.tobytes()
        assert r.tobytes() == windows[..., 0].tobytes()
        assert prefix.shape == (2, 3, 2)
        assert not prefix.any()
        assert start.tolist() == [[0, 2, 4], [6, 8, 10]]

    def test_each_group_equals_its_own_backtest(self, block):
        estimation, evaluation = block
        grouped = list(backtest._backtest_groups(estimation, evaluation, self.CONFIG, None))
        for g in range(3):
            part = slice(g, g + 1)
            alone = backtest._backtest_groups(estimation[part], evaluation[part], self.CONFIG, None)
            for (_, _, _, _, stats), (_, _, _, _, single) in zip(grouped, alone):
                for key in ("count", "er", "var_score", "es_z", "joint_score"):
                    assert self.hexed(stats[key][part]) == self.hexed(single[key])


@pytest.fixture(scope="module")
def series():
    return draw_gaussian(SeededRng(2030), 500, 0.0, 1.0)


class TestRollingBacktest:

    def test_capitals_match_scalar_estimators(self, series):
        """Dual route: the vectorised engine must equal per-window scalar calls."""
        config = BacktestConfig(alpha=0.1, methods=("emp", "norm", "cf", "u"), window=50)
        report = rolling_backtest(series, config)
        windows = split_windows(series, 50)
        scalar_fns = {
            tag: functools.partial(estimate, tag)
            for tag in ("empirical", "gaussian", "cornish_fisher", "gaussian_unbiased")
        }
        for tag, fn in scalar_fns.items():
            count = 0
            for k in range(len(windows) - 1):
                cap = fn(windows[k], 0.1)
                count += int(np.count_nonzero(windows[k + 1] + cap < 0))
            assert report.methods[tag].exceedance_count == count

    def test_deterministic(self, series):
        config = BacktestConfig(alpha=0.05, methods=("emp", "u"), window=50)
        a = rolling_backtest(series, config).to_json()
        b = rolling_backtest(series, config).to_json()
        assert a == b

    def test_failure_isolated_per_method(self):
        # a constant window starves the GPD tail fit; other methods proceed
        series = np.concatenate([np.ones(50), draw_gaussian(SeededRng(4), 150, 0.0, 1.0)])
        config = BacktestConfig(alpha=0.1, methods=("gpd", "emp"), window=50)
        report = rolling_backtest(series, config)
        assert report.methods["gpd"].failed
        assert "InsufficientTail" in report.methods["gpd"].failure
        assert not report.methods["empirical"].failed

    def test_reasons_quote_plain_floats(self):
        # numbers in report text print as Python floats that parse back exactly
        series = draw_gaussian(SeededRng(5), 200, 1.0, 0.5)
        config = BacktestConfig(alpha=0.05, methods=("mean",), window=20, measure="both")
        reason = rolling_backtest(series, config).methods["mean"].es_z_reason
        row, quoted = re.fullmatch(
            r"window (\d+): non-positive ES capital (\S+); Z statistic undefined", reason
        ).groups()
        window = split_windows(series, 20)[int(row)]
        assert float(quoted) == estimate("mean", window, 0.05, "es")
        constant = np.concatenate([np.full(50, 0.1), draw_gaussian(SeededRng(4), 150, 0.0, 1.0)])
        config = BacktestConfig(alpha=0.1, methods=("gpd",), window=50)
        failure = rolling_backtest(constant, config).methods["gpd"].failure
        assert failure.endswith("strictly below threshold 0.1 (need 5)")
        assert "np." not in reason + failure

    def test_es_measure_fields(self, series, table_a50):
        config = BacktestConfig(alpha=0.10, methods=("norm", "u"), window=50, measure="both")
        report = rolling_backtest(series, config, table_a50)
        for tag in ("gaussian", "gaussian_unbiased"):
            r = report.methods[tag]
            assert r.es_z_statistic is not None
            assert r.joint_mean_score is not None

    def test_var_only_omits_es_fields(self, series):
        config = BacktestConfig(alpha=0.10, methods=("norm",), window=50)
        r = rolling_backtest(series, config).methods["gaussian"]
        assert r.es_z_statistic is None and r.joint_mean_score is None

    def test_unbiased_es_without_table_matches_exact_table(self, series):
        config = BacktestConfig(alpha=0.10, methods=("u", "norm"), window=50, measure="es")
        table = CalibrationTable()
        table.add(exact_unbiased_es_constant(50, 0.10))
        report = rolling_backtest(series, config)
        assert not report.methods["gaussian_unbiased"].failed
        assert report.to_json() == rolling_backtest(series, config, table).to_json()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_rejected(self, bad):
        values = np.random.default_rng(0).standard_normal(1000)
        values[500] = bad
        config = BacktestConfig(alpha=0.05, methods=("norm", "u", "emp"), window=50)
        with pytest.raises(DataError, match="position 500"):
            rolling_backtest(values, config)

    def test_matrix_series_is_a_data_error_naming_its_shape(self):
        values = np.random.default_rng(0).normal(size=(1000, 2)) * [1.0, 100.0]
        config = BacktestConfig(alpha=0.05, methods=("norm",), window=50)
        with pytest.raises(DataError, match=r"must be one-dimensional, got shape \(1000, 2\)"):
            rolling_backtest(values, config)

    def test_gpd_fit_holds_on_a_series_near_the_float_maximum(self):
        # exceedances ~1e200: the PWM product 2*b0*b1 reads row units and cannot overflow
        values = np.random.default_rng(0).standard_normal(1000)
        config = BacktestConfig(alpha=0.05, methods=("gpd",), window=50, measure="both")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = rolling_backtest(values * 1e200, config).methods["gpd"]
        assert not scaled.failed
        assert scaled.exceedance_count == rolling_backtest(values, config).methods["gpd"].exceedance_count

    def test_es_methods_validated_in_config(self):
        with pytest.raises(ConfigError):
            BacktestConfig(alpha=0.1, methods=("kde",), measure="es")

    def test_kde_window_below_ten_rejected_in_config(self):
        # the KDE's size rule is the registry's min_n, as every other method's is
        with pytest.raises(ConfigError, match="window 9 is below the 10 observations that kde needs"):
            BacktestConfig(alpha=0.1, methods=("kde",), window=9)
        assert BacktestConfig(alpha=0.1, methods=("kde",), window=10).window == 10

    def test_window_below_method_minimum_rejected_in_config(self):
        with pytest.raises(ConfigError, match="student_t needs") as exc:
            BacktestConfig(alpha=0.1, methods=("t", "norm"), window=5)
        assert "10 observations" in str(exc.value)
        assert BacktestConfig(alpha=0.1, methods=("t", "norm"), window=10).window == 10

    def test_report_json_round_trip(self, series, tmp_path):
        from riskbench import write_report

        config = BacktestConfig(alpha=0.05, methods=("emp", "norm"), window=50)
        report = rolling_backtest(series, config)
        path = tmp_path / "report.json"
        write_report(report, path, "json")
        parsed = json.loads(path.read_text())
        assert parsed == report.to_json_dict()
        # numbers survive exactly
        assert (
            parsed["methods"]["empirical"]["exceedance_rate"]
            == report.methods["empirical"].exceedance_rate
        )

    def test_report_csv_formats(self, series, tmp_path):
        config = BacktestConfig(alpha=0.05, methods=("emp", "norm"), window=50)
        report = rolling_backtest(series, config)
        wide = report.to_csv().splitlines()
        assert wide[0].startswith("method,exceedance_rate")
        assert len(wide) == 3
        assert float(wide[1].split(",")[1]) == report.methods["empirical"].exceedance_rate
        long = report.to_csv_long().splitlines()
        assert long[0] == "method,statistic,value"
        assert any(line.startswith("empirical,exceedance_rate,") for line in long)


    def test_csv_columns_are_the_numeric_record_fields(self, series):
        config = BacktestConfig(alpha=0.05, methods=("emp", "norm"), window=50)
        assert rolling_backtest(series, config).to_csv().splitlines()[0] == (
            "method,exceedance_rate,exceedance_count,bias_statistic,es_z_statistic,"
            "var_mean_score,joint_mean_score"
        )
        summary = replication_study(config, GaussianParams(0.0, 1.0), 300, 3, 5)
        assert summary.to_csv().splitlines()[0] == (
            "method,er_mean,er_sd,rd_mean,rd_sd,or_rate,rd_excluded,es_z_mean,es_z_sd,"
            "es_z_or_rate,es_z_undefined,var_score_mean,joint_score_mean,failures"
        )
        long = summary.to_csv_long().splitlines()
        assert "empirical,rd_excluded,0" in long and "gaussian,failures,0" in long


class TestReplicationStudy:
    CONFIG = BacktestConfig(alpha=0.05, methods=("emp", "u"), window=50)

    def test_deterministic_and_chunk_invariant(self, monkeypatch):
        kwargs = dict(
            config=self.CONFIG,
            generator=GaussianParams(0.0, 1.0),
            series_length=300,
            replications=6,
            seed=91,
        )
        serial = replication_study(**kwargs)
        again = replication_study(**kwargs)
        assert serial.to_json() == again.to_json()
        # 250 estimation-window cells per replication: one, then all six, per chunk
        for cells in (250, 6 * 250):
            monkeypatch.setattr(backtest, "_CHUNK_CELLS", cells)
            assert replication_study(**kwargs).to_json() == serial.to_json()

    def test_er_and_or_sanity(self):
        summary = replication_study(
            self.CONFIG, GaussianParams(0.0, 1.0), 2500, 60, seed=17
        )
        emp = summary.methods["empirical"]
        ref = summary.methods["gaussian_unbiased"]
        assert ref.er_mean == pytest.approx(0.05, abs=0.01)
        assert emp.er_mean > ref.er_mean
        assert emp.or_rate > 0.9
        assert ref.rd_mean is None and ref.or_rate is None

    def test_rd_exclusions_counted(self):
        # alpha=0.01 on a two-window series: reference ER is often zero
        config = BacktestConfig(alpha=0.01, methods=("emp", "u"), window=50)
        summary = replication_study(config, GaussianParams(0.0, 1.0), 100, 40, seed=3)
        emp = summary.methods["empirical"]
        assert emp.rd_excluded > 0

    def test_reference_absent(self):
        config = BacktestConfig(alpha=0.05, methods=("emp", "norm"), window=50)
        summary = replication_study(
            config, GaussianParams(0.0, 1.0), 300, 5, seed=1, reference="gaussian_unbiased"
        )
        assert summary.reference is None
        assert summary.methods["empirical"].rd_mean is None

    def test_keep_samples(self):
        summary = replication_study(
            self.CONFIG, GaussianParams(0.0, 1.0), 300, 5, seed=2, keep_samples=True
        )
        assert summary.samples is not None
        assert summary.samples["empirical"]["er"].shape == (5,)

    @pytest.mark.parametrize("seed", [5, 29])
    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (0.3, 2.5)])
    def test_empirical_exceedance_matches_order_statistic_oracle(self, mu, sigma, seed):
        # for any continuous law the next draw falls below the k-th of n order statistics
        # with probability exactly k/(n+1): k = 3 for empirical_simple at n = 50, alpha = .05,
        # and type-7 interpolates between the 3rd and 4th order statistics
        config = BacktestConfig(alpha=0.05, methods=("emp_simple", "emp"), window=50)
        summary = replication_study(config, GaussianParams(mu, sigma), 2500, 400, seed=seed)
        simple, type7 = summary.methods["empirical_simple"], summary.methods["empirical"]
        se_simple, se_type7 = simple.er_sd / math.sqrt(400), type7.er_sd / math.sqrt(400)
        assert abs(simple.er_mean - 3 / 51) < 4 * se_simple
        assert 3 / 51 - 4 * se_type7 <= type7.er_mean <= 4 / 51 + 4 * se_type7

    def test_replication_floor(self):
        with pytest.raises(DomainError):
            replication_study(self.CONFIG, GaussianParams(0.0, 1.0), 300, 1, seed=0)


def _sample_row(summary, method, i):
    return [summary.samples[method][key][i] for key in ("er", "es_z", "var_score", "joint_score")]


def _report_row(r):
    values = (r.exceedance_rate, r.es_z_statistic, r.var_mean_score, r.joint_mean_score)
    return [np.nan if v is None else v for v in values]


class TestReplicationEngine:
    """The chunked engine against one rolling backtest per replication."""

    ES_METHODS = ("gaussian_unbiased", "gaussian", "empirical", "cornish_fisher", "gpd", "mean")

    @pytest.fixture(scope="class")
    def table(self):
        table = CalibrationTable()
        table.add(exact_unbiased_es_constant(50, 0.05))
        return table

    @pytest.mark.parametrize("measure", ["var", "es", "both"])
    def test_samples_equal_per_series_backtests(self, measure, table, monkeypatch):
        methods = self.ES_METHODS + (("empirical_simple",) if measure == "var" else ())
        config = BacktestConfig(alpha=0.05, methods=methods, window=50, measure=measure)
        # 370 = 7 windows and 20 dropped; three replications of 6x50 cells per chunk, the last partial
        monkeypatch.setattr(backtest, "_CHUNK_CELLS", 3 * 300)
        # mu < 0: the mean method's ES capital is sometimes non-positive, so Z is undefined
        generator = GaussianParams(-0.15, 1.0)
        summary = replication_study(config, generator, 370, 8, 13, table=table, keep_samples=True)
        undefined = 0
        for i in range(8):
            values = draw_gaussian(SeededRng(13, stream_id=i), 370, -0.15, 1.0)
            report = rolling_backtest(values, config, table)
            for method, r in report.methods.items():
                assert not r.failed
                assert np.array_equal(_sample_row(summary, method, i), _report_row(r), equal_nan=True)
            undefined += report.methods["mean"].es_z_reason is not None
        if measure != "var":
            assert 0 < undefined < 8
            assert summary.methods["mean"].es_z_undefined == undefined

    def test_failures_charged_per_replication(self):
        # values within a few ulps of 1.0 tie often: a tied minimum empties the
        # empirical ES tail and ties at the threshold starve the GPD tail, in some
        # replications but not all
        config = BacktestConfig(alpha=0.05, methods=("emp", "gpd", "norm"), window=20, measure="both")
        summary = replication_study(config, GaussianParams(1.0, 8e-16), 100, 16, 4, keep_samples=True)
        reports = [
            rolling_backtest(draw_gaussian(SeededRng(4, stream_id=i), 100, 1.0, 8e-16), config)
            for i in range(16)
        ]
        for method, stats in summary.methods.items():
            failed = [r.methods[method].failed for r in reports]
            undefined = sum(
                not r.methods[method].failed and r.methods[method].es_z_reason is not None
                for r in reports
            )
            assert stats.failures == sum(failed)
            assert stats.es_z_undefined == undefined
            assert summary.samples[method]["failed"].tolist() == failed
            for i, r in enumerate(reports):
                assert np.array_equal(
                    _sample_row(summary, method, i), _report_row(r.methods[method]), equal_nan=True
                )
        assert 0 < summary.methods["empirical"].failures < 16
        assert 0 < summary.methods["gpd"].failures < 16
        assert summary.methods["gaussian"].failures == 0

    def test_constant_replication_fails_alone_inside_its_chunk(self, monkeypatch):
        # replication 2 of 5 is a constant series: GPD finds no tail below its threshold and
        # empirical ES none below its VaR, while the chunk's other replications score as usual
        config = BacktestConfig(alpha=0.05, methods=("u", "norm", "emp", "cf", "gpd"), window=50,
                                measure="both")
        monkeypatch.setattr(backtest, "_CHUNK_CELLS", 4 * 300)  # four replications a chunk
        draw, drawn = backtest.draw_gaussian, []

        def constant_third(rng, count, mu, sigma, out=None):
            out = draw(rng, count, mu, sigma, out)
            if len(drawn) == 2:
                out[:] = 0.75
            drawn.append(out.copy())
            return out

        monkeypatch.setattr(backtest, "draw_gaussian", constant_third)
        summary = replication_study(config, GaussianParams(0.0, 1.0), 350, 5, 21, keep_samples=True)
        assert len(drawn) == 5 and np.all(drawn[2] == 0.75)
        for i, values in enumerate(drawn):
            report = rolling_backtest(values, config)
            for method, r in report.methods.items():
                assert summary.samples[method]["failed"][i] == r.failed == (
                    i == 2 and method in ("empirical", "gpd"))
                assert np.array_equal(_sample_row(summary, method, i), _report_row(r), equal_nan=True)
        assert summary.methods["gpd"].failures == summary.methods["empirical"].failures == 1

    @pytest.mark.parametrize("k", [-560, 660])
    def test_power_of_two_scales_read_the_same_and_do_not_warn(self, k):
        config = BacktestConfig(alpha=0.05, methods=("emp", "u", "norm", "cf", "gpd"), window=50,
                                measure="both")
        unit = replication_study(config, GaussianParams(0.0, 1.0), 500, 5, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled = replication_study(config, GaussianParams(0.0, 2.0**k), 500, 5, 0)
        for method, stats in unit.methods.items():
            other = scaled.methods[method]
            for name in ("er_mean", "er_sd", "rd_mean", "rd_sd", "or_rate", "es_z_mean", "es_z_sd",
                         "es_z_or_rate", "failures"):
                assert getattr(other, name) == getattr(stats, name), (method, name)
            assert other.var_score_mean == math.ldexp(stats.var_score_mean, k)

    def test_golden_summary(self):
        # values recorded from the per-replication engine this one replaced
        config = BacktestConfig(
            alpha=0.05, methods=("u", "norm", "emp", "gpd", "mean"), window=50, measure="both"
        )
        table = CalibrationTable()
        table.add(exact_unbiased_es_constant(50, 0.05))
        summary = replication_study(config, GaussianParams(0.1, 2.0), 500, 12, 7, table=table)
        golden = Path(__file__).parent / "data" / "replication_summary_golden.json"
        assert summary.to_json() == golden.read_text()

    def test_golden_summary_without_table(self):
        config = BacktestConfig(
            alpha=0.05, methods=("u", "norm", "emp", "gpd", "mean"), window=50, measure="both"
        )
        summary = replication_study(config, GaussianParams(0.1, 2.0), 500, 12, 7)
        golden = Path(__file__).parent / "data" / "replication_summary_golden.json"
        assert summary.to_json() == golden.read_text()
