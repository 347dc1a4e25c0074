import math
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbench import (
    DataError,
    DomainError,
    SeededRng,
    SizeError,
    draw_gaussian,
    draw_pivotal_pairs,
    estimate,
)
from riskbench import stats_core
from riskbench.estimators import WindowStats, batch_var_capitals, window_stats
from riskbench.stats_core import _type7_sorted_rows, as_sample, ndtr, ndtri

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
# values on a 1e-6 grid keep translation/scaling arithmetic well-conditioned
grid_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False).map(
    lambda v: round(v, 6)
)


def standard_var(method, p, n=2):
    """VaR capital of a moments-only window with mean 0 and sd 1."""
    ws = WindowStats(None, None, np.zeros(1), np.ones(1), n)
    return float(batch_var_capitals(method, ws, p)[0])


def gaussian_quantile(p):
    """Phi^{-1}(p): minus the Gaussian plug-in capital of a standard window."""
    return -standard_var("gaussian", p)


def student_t_quantile(p, df):
    """t_df^{-1}(p): the unbiased capital of a standard window of n = df + 1, over sqrt((n+1)/n)."""
    n = df + 1
    return -standard_var("gaussian_unbiased", p, n) / math.sqrt((n + 1) / n)


class TestKdeQuantile:
    """The Gaussian KDE's VaR kernel: the root q of its mixture CDF F(q) = p, read in mpmath.

    F(q) = mean(Phi((q - x_i) / h)) at Silverman's bandwidth h = 1.06*sd*n^(-1/5).
    """

    SAMPLE = draw_gaussian(SeededRng(12), 12, 0.0, 1.0)

    def quantile(self, p):
        return -estimate("kde", self.SAMPLE, p)

    def mixture_cdf(self, q):
        h = mp.mpf(1.06 * np.std(self.SAMPLE, ddof=1) * self.SAMPLE.size ** (-0.2))
        terms = (mp.ncdf((mp.mpf(q) - mp.mpf(float(x))) / h) for x in self.SAMPLE)
        return mp.fsum(terms) / self.SAMPLE.size

    def test_absolute_error_below_1e12_vs_mpmath(self):
        mp.mp.dps = 30
        for z in np.linspace(-8.0, 8.0, 33):
            p = float(mp.ncdf(mp.mpf(float(z))))
            assert abs(float(self.mixture_cdf(self.quantile(p))) - p) <= 1e-12

    def test_strictly_increasing(self):
        levels = [float(mp.ncdf(mp.mpf(float(z)))) for z in np.linspace(-6, 6, 101)]
        values = [self.quantile(p) for p in levels]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                self.quantile(bad)

    def test_symmetry_at_zero(self):
        # a sample symmetric about 0 has F(0) = 1/2, so its median is 0
        x = np.r_[self.SAMPLE, -self.SAMPLE]
        assert abs(estimate("kde", x, 0.5)) <= 1e-12

    def test_table_values(self):
        # the quantile is mpmath's own root of F(q) = p at three levels
        mp.mp.dps = 30
        for p in (0.01, 0.05, 0.95):
            root = mp.findroot(lambda q: self.mixture_cdf(q) - p, self.quantile(p))
            assert self.quantile(p) == pytest.approx(float(root), abs=1e-12)


class TestGaussianQuantile:
    """Phi^{-1}, as the Gaussian plug-in VaR kernel reads it."""

    def test_median(self):
        assert gaussian_quantile(0.5) == 0.0

    def test_table_values(self):
        assert gaussian_quantile(0.05) == pytest.approx(-1.6448536, abs=1e-6)
        assert gaussian_quantile(0.975) == pytest.approx(1.9599640, abs=1e-6)

    def test_round_trip_on_99_point_grid(self):
        for p in np.linspace(0.01, 0.99, 99):
            assert float(mp.ncdf(mp.mpf(gaussian_quantile(float(p))))) == pytest.approx(
                float(p), abs=1e-10
            )

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            gaussian_quantile(p)


class TestStudentTQuantile:
    """The t_{n-1} quantile inside the unbiased VaR -(mean + sd * sqrt((n+1)/n) * t^{-1}(alpha))."""

    def test_median_is_zero(self):
        for df in (1, 5, 49, 1000):
            assert student_t_quantile(0.5, df) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_high_precision_values(self):
        # inverted via mpmath quadrature of the t-density
        assert student_t_quantile(0.05, 49) == pytest.approx(-1.6765508926168539, rel=1e-15, abs=0)
        assert student_t_quantile(0.05, 5) == pytest.approx(-2.0150483733330242, rel=1e-15, abs=0)

    def test_antisymmetry(self):
        for p in (0.01, 0.1, 0.3):
            for df in (3, 30, 300):
                assert student_t_quantile(p, df) == pytest.approx(
                    -student_t_quantile(1 - p, df), abs=1e-9
                )

    def test_gaussian_limit(self):
        for p in np.linspace(0.01, 0.99, 99):
            assert student_t_quantile(float(p), 10**6) == pytest.approx(
                gaussian_quantile(float(p)), abs=1e-3
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_quantile(0.0, 5)
        # df = n - 1 >= 1: the unbiased VaR needs two observations
        with pytest.raises(SizeError):
            student_t_quantile(0.5, 0)
        with pytest.raises(SizeError):
            student_t_quantile(0.5, -1)


def row_moments(xs):
    """Mean, sd, skewness and excess kurtosis of ``xs`` as one row of :func:`window_stats`,
    the mean and sd read from the row's units through its exponent."""
    ws = window_stats(np.asarray([xs], dtype=float), with_shape=True)
    mean, sd = (float(np.ldexp(v[0], ws.exponent[0])) for v in (ws.means, ws.sds))
    return mean, sd, float(ws.skews[0]), float(ws.kurts[0])


class TestWindowStatsRow:
    """The moments of one row of :func:`window_stats`: sd with divisor n-1, population shape."""

    def test_constant_sample(self):
        assert row_moments([3.5] * 7) == (3.5, 0.0, 0.0, 0.0)

    def test_two_points(self):
        mean, sd, _, _ = row_moments([0.0, 2.0])
        assert mean == 1.0
        assert sd == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_symmetric_sample_zero_skew(self):
        assert row_moments([-1.0, 0.0, 1.0])[2] == pytest.approx(0.0, abs=1e-15)

    def test_rounding_noise_is_zero_spread(self):
        # 12 copies of one value; their computed mean is off by an ulp
        assert row_moments([5.582031 + 0.007812] * 12)[1:] == (0.0, 0.0, 0.0)

    def test_tiny_but_real_spread_kept(self):
        _, sd, skew, _ = row_moments([1.0, 1.0 + 1e-9, 1.0 - 1e-9])
        assert sd > 0.0
        assert skew == pytest.approx(0.0, abs=1e-6)

    def test_overflowing_sample_scaled_exactly(self):
        x = draw_gaussian(SeededRng(530), 50, 0.3, 2.0)
        mean, sd, skew, kurt = row_moments(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = row_moments(x * 2.0**530)
            near_max = row_moments(x * 1e307)
        assert big == (mean * 2.0**530, sd * 2.0**530, skew, kurt)
        assert near_max[0] == pytest.approx(mean * 1e307, rel=1e-13)
        assert near_max[1] == pytest.approx(sd * 1e307, rel=1e-13)

    @given(st.lists(grid_floats, min_size=2, max_size=30), grid_floats)
    @example(xs=[5.582031] * 3, d=0.007812)  # shifted mean rounds: m2 ~ 1e-32
    @settings(max_examples=100, deadline=None)
    def test_translation(self, xs, d):
        mean, sd, skew, kurt = row_moments(xs)
        shifted = row_moments([x + d for x in xs])
        assert shifted[0] == pytest.approx(mean + d, abs=1e-10)
        assert shifted[1] == pytest.approx(sd, abs=1e-10)
        assert shifted[2] == pytest.approx(skew, abs=1e-6)
        assert shifted[3] == pytest.approx(kurt, abs=1e-6)

    @given(
        st.lists(grid_floats, min_size=2, max_size=30),
        st.floats(min_value=0.1, max_value=10.0).map(lambda v: round(v, 3)),
    )
    @example(xs=[3.191318] * 3, lam=3.0)  # scaled mean rounds: m2 ~ 1e-32
    @settings(max_examples=100, deadline=None)
    def test_positive_scaling(self, xs, lam):
        mean, sd, skew, kurt = row_moments(xs)
        scaled = row_moments([lam * x for x in xs])
        assert scaled[0] == pytest.approx(lam * mean, rel=1e-12, abs=1e-12)
        assert scaled[1] == pytest.approx(lam * sd, rel=1e-12, abs=1e-12)
        assert scaled[2] == pytest.approx(skew, abs=1e-6)
        assert scaled[3] == pytest.approx(kurt, abs=1e-6)


class TestNdtri:
    """The Cephes port of Phi^{-1} returns scipy.special.ndtri's bits."""

    def test_bit_equal_to_scipy_on_both_tails(self):
        rng = np.random.default_rng(20)
        tail = 10.0 ** rng.uniform(-12.0, math.log10(0.5), 50_000)
        p = np.concatenate([tail, 1.0 - tail, rng.uniform(1e-12, 1.0 - 1e-12, 20_000),
                            [1e-12, 1.0 - 1e-12, 0.5, math.exp(-2.0), 1.0 - math.exp(-2.0),
                             np.nextafter(math.exp(-2.0), 1.0)]])  # the centre's edges
        assert p.size >= 100_000 and p.min() >= 1e-12 and p.max() <= 1.0 - 1e-12
        mine = np.array([ndtri(x) for x in p.tolist()])
        assert mine.tobytes() == sc.ndtri(p).tobytes()

    def test_bit_equal_to_scipy_below_exp_minus_32(self):
        # the third rational approximation, for sqrt(-2 log p) >= 8
        p = np.concatenate([10.0 ** np.random.default_rng(22).uniform(-300.0, -14.0, 2000),
                            [math.exp(-32.0), np.nextafter(math.exp(-32.0), 0.0), 5e-324]])
        mine = np.array([ndtri(x) for x in p.tolist()])
        assert mine.tobytes() == sc.ndtri(p).tobytes()

    def test_median_and_symmetry(self):
        assert ndtri(0.5) == 0.0
        for p in (0.01, 0.2, 0.4):  # 1 - p rounds, by at most 6e-17 here
            assert ndtri(1.0 - p) == pytest.approx(-ndtri(p), rel=1e-14, abs=0)


class TestNdtr:
    """Phi on quadrature-node vectors, from libm's erfc."""

    def test_within_argument_rounding_of_scipy(self):
        # both round u/sqrt(2), which moves Phi by about u^2 ulps, and Cephes takes erfc
        # below 1 as 1 - erf, a few ulps off (10 near u = -1.3): the bound is (8 + u^2) eps
        rng = np.random.default_rng(21)
        u = np.concatenate([rng.uniform(-37.0, 9.0, 200_000), rng.normal(0.0, 3.0, 100_000)])
        u = u[u >= -37.0]
        mine, ref = ndtr(u), sc.ndtr(u)
        assert np.all(np.abs(mine - ref) <= (8.0 + u * u) * np.finfo(float).eps * ref)

    def test_far_left_tail_underflows_like_scipy(self):
        # below u = -37.5 Phi leaves the normal range; scipy flushes it to zero sooner
        u = np.array([-37.5, -38.0, -40.0, -1e3, -1e300])
        assert np.all(np.abs(ndtr(u) - sc.ndtr(u)) <= 1e-307)
        assert ndtr(u)[-1] == 0.0

    def test_centred_keeps_relative_accuracy_at_zero(self):
        mp.mp.dps = 30
        for u in (1e-12, -3e-9, 1e-4, -0.01, 0.3, -1.5):
            exact = float(mp.ncdf(mp.mpf(u)) - mp.mpf(0.5))
            assert ndtr(np.array([u]), centred=True)[0] == pytest.approx(exact, rel=4e-16, abs=0)


class TestAsSample:
    """The one sample rule: a finite 1-D float array of at least min_n points, or an error."""

    @pytest.mark.parametrize("x, shape", [(3.0, r"\(\)"), ([[1.0, 2.0]], r"\(1, 2\)"),
                                          (np.zeros((4, 1)), r"\(4, 1\)")])
    def test_not_one_dimensional_is_a_data_error_naming_its_shape(self, x, shape):
        with pytest.raises(DataError, match=f"^sample must be one-dimensional, got shape {shape}$"):
            as_sample(x, 0)

    def test_first_non_finite_position_and_size(self):
        with pytest.raises(DataError, match="position 1$"):
            as_sample([0.0, np.inf, np.nan], 0)
        with pytest.raises(SizeError, match="needs at least 3 observations, got 2"):
            as_sample([1.0, 2.0], 3)

    def test_float64_array_is_returned_uncopied(self):
        x = np.arange(5.0)
        assert as_sample(x, 5) is x
        assert as_sample([1, 2], 2).dtype == np.float64


class TestType7Quantile:
    """The type-7 quantile, read as minus the empirical VaR capital."""

    def test_exact_median(self):
        assert estimate("empirical", [1, 2, 3, 4, 5], 0.5) == -3.0

    def test_interpolated_tail(self):
        # h = 0.05*4 + 1 = 1.2 -> x_(1) + 0.2*(x_(2)-x_(1))
        capital = estimate("empirical", [1, 2, 3, 4, 5], 0.05)
        assert -capital == pytest.approx(1.2, abs=1e-12)

    def test_single_point(self):
        # a one-column row takes the h >= n branch of the sorted-row kernel
        for p in (0.01, 0.5, 0.99):
            assert _type7_sorted_rows(np.array([[7.0]]), p)[0] == 7.0

    def test_empty_sample(self):
        with pytest.raises(SizeError):
            estimate("empirical", [], 0.5)

    @given(st.lists(finite_floats, min_size=2, max_size=40), st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_linear_method(self, xs, p):
        # numpy's default 'linear' interpolation is the same type-7 definition
        assert -estimate("empirical", xs, p) == pytest.approx(
            float(np.quantile(np.array(xs), p, method="linear")), rel=1e-12, abs=1e-12
        )

    @given(st.lists(finite_floats, min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_p(self, xs):
        ps = np.linspace(0.01, 0.99, 25)
        qs = [-estimate("empirical", xs, float(p)) for p in ps]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))


class TestSeededRng:
    def test_determinism(self):
        a = draw_gaussian(SeededRng(7, 3), 100, 0.0, 1.0)
        b = draw_gaussian(SeededRng(7, 3), 100, 0.0, 1.0)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = draw_gaussian(SeededRng(7, 0), 100, 0.0, 1.0)
        b = draw_gaussian(SeededRng(7, 1), 100, 0.0, 1.0)
        assert not np.array_equal(a, b)

    def test_seed_bounds(self):
        with pytest.raises(DomainError):
            SeededRng(-1)
        with pytest.raises(DomainError):
            SeededRng(2**64)
        SeededRng(2**64 - 1, 2**64 - 1)  # boundary accepted

    def test_reused_generator_draws_the_fresh_streams_bits(self):
        # one generator re-keyed from stream to stream, left mid-buffer each time
        # (an odd count of normals, a buffered 32-bit half), draws what a fresh one does
        reused = SeededRng(0).generator()
        for seed in (0, 2**64 - 1):
            for stream_id in (0, 1, 2**64 - 1):
                rng = SeededRng(seed, stream_id)
                fresh = rng.generator()
                gen = rng.generator(reused)
                assert gen is reused
                for draw in (lambda g: g.standard_normal(1001),
                             lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                             lambda g: g.random(5)):
                    assert draw(gen).tobytes() == draw(fresh).tobytes()
                expected = draw_gaussian(rng, 2500, 0.5, 2.0)
                got = draw_gaussian(rng.generator(reused), 2500, 0.5, 2.0)
                assert got.tobytes() == expected.tobytes()


class TestDrawGaussian:
    def test_degenerate_sigma(self):
        out = draw_gaussian(SeededRng(1), 50, 2.5, 0.0)
        assert np.all(out == 2.5)

    def test_negative_sigma(self):
        with pytest.raises(DomainError):
            draw_gaussian(SeededRng(1), 10, 0.0, -1.0)

    def test_clt_mean_bound(self):
        out = draw_gaussian(SeededRng(99), 1_000_000, 0.0, 1.0)
        assert abs(out.mean()) <= 0.005  # 3 MC standard errors

    @pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (-0.15, 8e-16), (3.7, 0.0), (-2e300, 1e-300),
                                           (1.5, 1e150)])
    def test_generator_normal_bit_for_bit(self, mu, sigma):
        expected = SeededRng(12, 4).generator().normal(mu, sigma, 1000)
        assert draw_gaussian(SeededRng(12, 4), 1000, mu, sigma).tobytes() == expected.tobytes()
        block = np.zeros((3, 1000))
        row = draw_gaussian(SeededRng(12, 4), 1000, mu, sigma, block[1])
        assert row.base is block and block[1].tobytes() == expected.tobytes()
        assert not block[0].any() and not block[2].any()

    def test_out_of_another_size_rejected(self):
        with pytest.raises(ValueError):
            draw_gaussian(SeededRng(1), 5, 0.0, 1.0, np.empty(4))


class TestPivotalPairs:
    def test_chi_square_mean(self):
        n = 50
        _, v = draw_pivotal_pairs(SeededRng(5), n, 1_000_000)
        assert np.mean(v**2) == pytest.approx(n - 1, rel=0.01)

    def test_z_mean(self):
        z, _ = draw_pivotal_pairs(SeededRng(5), 50, 1_000_000)
        assert abs(z.mean()) <= 0.005

    def test_independence(self):
        z, v = draw_pivotal_pairs(SeededRng(5), 50, 1_000_000)
        assert abs(np.corrcoef(z, v)[0, 1]) <= 0.005

    def test_window_size_validated(self):
        with pytest.raises(SizeError):
            draw_pivotal_pairs(SeededRng(1), 1, 1)

    def test_stream_id_other_than_zero_rejected(self):
        # the chunks draw from streams 3c and 3c+1 of the seed, so no stream is the caller's
        with pytest.raises(DomainError, match="got stream_id 1$"):
            draw_pivotal_pairs(SeededRng(1, 1), 50, 10)


class TestPivotalChunks:
    """draw_pivotal_pairs draws chunk c of 2^20 trials from streams (seed, 3c) and (seed, 3c+1)."""

    CHUNK = 1 << 20

    @staticmethod
    def draw_with(monkeypatch, workers, *args):
        monkeypatch.setattr(stats_core, "_usable_cpus", lambda: workers)
        return draw_pivotal_pairs(*args)

    def test_any_worker_count_gives_the_same_bits(self, monkeypatch):
        args = SeededRng(6), 9, 3 * self.CHUNK + 5  # four chunks, the last of 5 trials
        z, v = self.draw_with(monkeypatch, 1, *args)
        for workers in (2, 3):
            z_w, v_w = self.draw_with(monkeypatch, workers, *args)
            assert z_w.tobytes() == z.tobytes() and v_w.tobytes() == v.tobytes(), workers

    def test_shorter_draw_is_a_prefix_of_a_longer_one(self):
        count = self.CHUNK + 12_345
        z, v = draw_pivotal_pairs(SeededRng(2), 50, count)
        z_long, v_long = draw_pivotal_pairs(SeededRng(2), 50, 2 * self.CHUNK + 7)
        assert z.tobytes() == z_long[:count].tobytes() and v.tobytes() == v_long[:count].tobytes()

    @pytest.mark.parametrize("n", [2, 50])
    def test_chunk_is_its_streams_direct_draws(self, n):
        z, v = draw_pivotal_pairs(SeededRng(3), n, self.CHUNK + 1000)
        for chunk, rows in ((0, slice(0, self.CHUNK)), (1, slice(self.CHUNK, None))):
            size = z[rows].size
            expected_z = SeededRng(3, 3 * chunk).generator().standard_normal(size)
            expected_v = np.sqrt(SeededRng(3, 3 * chunk + 1).generator().chisquare(n - 1, size))
            assert z[rows].tobytes() == expected_z.tobytes()
            assert v[rows].tobytes() == expected_v.tobytes()

    def test_chunk_writes_its_own_slices_only(self):
        z, v = np.zeros(30), np.zeros(30)
        stats_core.draw_pivotal_chunk(4, 2, 10, z[10:20], v[10:20])
        assert not z[:10].any() and not z[20:].any() and not v[:10].any() and not v[20:].any()
        assert z[10:20].tobytes() == SeededRng(4, 6).generator().standard_normal(10).tobytes()

    @pytest.mark.parametrize("df", [1, 2, 9, 49, 999])
    def test_chisquare_is_twice_standard_gamma(self, df):
        # the identity the chunk's V relies on: numpy draws chisquare(df) as 2*standard_gamma(df/2)
        chi2 = SeededRng(8, df).generator().chisquare(df, 200_000)
        gamma = SeededRng(8, df).generator().standard_gamma(df / 2, 200_000)
        assert chi2.tobytes() == (2.0 * gamma).tobytes()
