import json
import math
import tracemalloc
import types

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc, gammainccinv, gammaincinv, gammaln, ndtr, ndtri, stdtr, stdtrit

from riskbench import (
    CalibrationEntry,
    CalibrationFailureError,
    CalibrationTable,
    ConfigError,
    DataError,
    DomainError,
    GaussianParams,
    OutputError,
    SeededRng,
    SizeError,
    draw_pivotal_pairs,
    empirical_es,
    exact_unbiased_es_constant,
    pivotality_check,
    secured_position_es,
    solve_unbiased_es_constant,
)
from riskbench import calibration
from riskbench.calibration import (
    TABLE_FORMAT_VERSION,
    _CHUNK_TRIALS,
    _secured_chunks,
    _tail_count,
)
from riskbench.estimators import _log_chi_range, _log_chi_rule, _pivot_es, _t_quantile, estimate

PLUGIN_ES_CONST_10 = 1.7549833193248680  # phi(Phi^{-1}(0.10)) / 0.10
# sd of the 200k-draw MC solve of a_50 at alpha = 0.10, measured over 40 seeds
MC_SD_A50_AT_2E5 = 0.0046
GRID_N = (2, 5, 10, 50, 250)
GRID_ALPHA = (0.01, 0.05, 0.10)
LOCATION_SCALE = ("gaussian", "gaussian_unbiased", "mean")


def es_by_conditioning_on_z(n, alpha, b):
    """ES_alpha(Z + b V_n) by adaptive quadrature over Z.

    Given Z = z, the event Y < q is V < c = (q - z)/b, with probability
    F_k(c) and E[V 1{V < c}] = mu_k F_{k+1}(c), where F_k is the chi_k CDF and
    mu_k the chi_k mean. This integrates over Z, not V as the solver does.
    """
    k = n - 1
    mu_k = math.sqrt(2.0) * math.exp(gammaln((k + 1) / 2) - gammaln(k / 2))

    def chi_cdf(dof, c):
        return gammainc(dof / 2, c * c / 2) if c > 0 else 0.0

    def integral(f, q):  # the integrand vanishes for z > q and below z = -40
        def integrand(z):
            return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * f(z, (q - z) / b)

        return quad(integrand, -40.0, min(q, 40.0), epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    z_alpha = float(ndtri(alpha))
    q = brentq(
        lambda q: integral(lambda z, c: chi_cdf(k, c), q) - alpha,
        z_alpha - 1.0, z_alpha + 1.0 + b * (math.sqrt(k) + 20.0), xtol=1e-14,
    )
    tail = integral(lambda z, c: z * chi_cdf(k, c) + b * mu_k * chi_cdf(k + 1, c), q)
    return -tail / alpha


def pivot_secured_es(n, alpha, b):
    """Exact ES of the secured position sqrt((n+1)/n) * (Z + b V), and the sd of (q - Y)+.

    At sigma = 1, X_out - mean is N(0, (n+1)/n) and the sd is V/sqrt(n-1) with
    V ~ chi_{n-1}, so an ES capital -mean + sd * c gives that position with
    b = c / sqrt((n-1)(n+1)/n). The sd of (q - Y)+ over the quantile q sizes the
    MC error of an empirical ES: sd / (alpha sqrt(N)).
    """
    z = float(ndtri(alpha))
    scale = math.sqrt((n + 1) / n)
    v, w = _log_chi_rule(n - 1, 256)
    q = brentq(lambda q: w @ ndtr(q - b * v) - alpha, z + b * v[0] - 1.0, z + b * v[-1] + 1.0,
               xtol=1e-14)
    u = q - b * v
    phi = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    m1 = w @ (u * ndtr(u) + phi)  # E[(q - Y)+] given V, averaged over V
    m2 = w @ ((u * u + 1.0) * ndtr(u) + u * phi)  # E[((q - Y)+)^2]
    return scale * _pivot_es(b, alpha, v, w)[0], scale * math.sqrt(m2 - m1 * m1)


def plugin_secured_es(n, alpha):
    """:func:`pivot_secured_es` of plug-in Gaussian ES, whose c is phi(z_alpha)/alpha."""
    z = float(ndtri(alpha))
    c = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / alpha
    return pivot_secured_es(n, alpha, c / math.sqrt((n - 1) * (n + 1) / n))


def plain_bisection(n, alpha, mc_samples, seed):
    """The bisection the solver once ran, every g read on the full sample: |g| <= 1e-4 at its b_n."""
    z, v = draw_pivotal_pairs(SeededRng(seed), n, mc_samples)

    def g(b):
        return empirical_es(z + b * v, alpha)

    if g(0.0) <= 0.0:
        raise CalibrationFailureError("no positive root")
    hi = 1.0
    for _ in range(60):
        if g(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise CalibrationFailureError("no bracket")
    lo = 0.0
    while hi - lo > 1e-8:
        b = 0.5 * (lo + hi)
        gb = g(b)
        if abs(gb) <= 1e-4:
            break
        if gb < 0.0:
            hi = b
        else:
            lo = b
    return b


def tail_rows(z, v, b, tail):
    """The ``tail`` rows with the smallest z + b*v, ties to the earlier row, in row order."""
    return np.sort(np.argsort(z + b * v, kind="stable")[:tail])


def newton_reference(n, alpha, mc_samples, seed, draw=draw_pivotal_pairs):
    """Newton's steps from b = 0 on the full sample, tails by a stable sort: the solver's bits."""
    z, v = draw(SeededRng(seed), n, mc_samples)
    tail = _tail_count(alpha, mc_samples)
    b, rising = 0.0, False
    while True:
        rows = tail_rows(z, v, b, tail)
        sum_z, sum_v = float(z[rows].sum()), float(v[rows].sum())
        root = -sum_z / sum_v
        if rising and root <= b:
            break
        b, rising = root, True
    if root <= 0.0:
        raise CalibrationFailureError("no positive root")
    a_n = -root * math.sqrt((n - 1) * (n + 1) / n)
    return CalibrationEntry(n=n, alpha=float(alpha), b_n=root, a_n=a_n, mc_samples=mc_samples,
                            seed=seed, residual=abs(sum_z + root * sum_v) / tail)


def entry_bits(entry):
    return entry.n, entry.alpha, entry.b_n.hex(), entry.a_n.hex(), entry.mc_samples, entry.seed, \
        entry.residual.hex(), entry.source


def spy_newton(monkeypatch):
    """Record each Newton run of the solver: the rows it read, and whether it reached the root."""
    runs = []
    sample_root = calibration._sample_root

    def spy(tail, z, *args):
        found = sample_root(tail, z, *args)
        runs.append((z.size, found is not None))
        return found

    monkeypatch.setattr(calibration, "_sample_root", spy)
    return runs


class TestEmpiricalEs:
    def test_half_tail(self):
        assert empirical_es([-4.0, -2.0, 0.0, 2.0], 0.5) == 3.0

    def test_constant(self):
        assert empirical_es([5.5] * 9, 0.3) == -5.5

    def test_integer_boundary(self):
        # ceil(0.05 * 100) = 5 -> mean of 1..5
        assert empirical_es(list(range(1, 101)), 0.05) == -3.0

    def test_empty(self):
        with pytest.raises(SizeError, match="^empirical_es needs at least 1 observation, got 0$"):
            empirical_es([], 0.5)

    def test_tie_rule_takes_exact_count(self):
        # ceil(0.5 * 5) = 3 smallest, ties included deterministically
        assert empirical_es([0.0, 0.0, 0.0, 1.0, 2.0], 0.5) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_a_data_error_naming_its_position(self, bad):
        with pytest.raises(DataError, match="empirical_es contains a non-finite value at position 2$"):
            empirical_es([1.0, 2.0, bad, 3.0], 0.5)

    def test_matrix_is_a_data_error(self):
        with pytest.raises(DataError, match=r"shape \(2, 2\)"):
            empirical_es([[5.0, 1.0], [2.0, 3.0]], 0.5)

    def test_input_array_keeps_its_order(self):
        # an array passes the sample rule uncopied, so the partition works on a copy
        values = np.array([3.0, -1.0, 2.0, -4.0, 0.0])
        assert empirical_es(values, 0.4) == 2.5
        np.testing.assert_array_equal(values, [3.0, -1.0, 2.0, -4.0, 0.0])


class TestSolver:
    def test_entry_invariants(self):
        e = solve_unbiased_es_constant(50, 0.10, 200_000, seed=1)
        assert e.b_n > 0.0 and e.a_n < 0.0
        assert abs(e.a_n * math.sqrt(50 / (49 * 51)) + e.b_n) <= 1e-12
        assert e.residual <= 1e-12  # the exact root of the sample, up to rounding

    def test_bit_identical_determinism(self):
        a = solve_unbiased_es_constant(50, 0.10, 200_000, seed=7)
        b = solve_unbiased_es_constant(50, 0.10, 200_000, seed=7)
        assert a == b

    def test_paper_value_at_1e6(self, table_a50):
        assert table_a50.lookup(50, 0.10).a_n == pytest.approx(-1.81033, abs=0.005)

    def test_objective_monotone_on_fixed_sample(self):
        z, v = draw_pivotal_pairs(SeededRng(11), 50, 200_000)
        values = [empirical_es(z + b * v, 0.10) for b in np.linspace(0.0, 0.5, 11)]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(values, values[1:]))

    def test_alpha_near_one_collapses_root(self):
        # at alpha -> 1 the condition degenerates to -E[Z] - b E[V] = 0, so the
        # root collapses to 0. Whether a (tiny) positive root exists on the
        # fixed MC sample depends on the sign of its sample mean: seed 3 has a
        # negative mean (root exists), positive-mean samples fail gracefully.
        e = solve_unbiased_es_constant(50, 0.999999, 1_000_000, seed=3)
        assert abs(e.b_n) < 0.01
        from riskbench import CalibrationFailureError

        with pytest.raises(CalibrationFailureError):
            solve_unbiased_es_constant(50, 0.999999, 1_000_000, seed=2)

    def test_whole_sample_tail_is_the_mean_condition(self):
        # ceil(0.999999 * 1e5) = 1e5: every draw is in the tail, so b_n = -sum z / sum v
        z, v = draw_pivotal_pairs(SeededRng(0), 50, 100_000)
        e = solve_unbiased_es_constant(50, 0.999999, 100_000, seed=0)
        assert e.b_n == -float(z.sum()) / float(v.sum())

    def test_root_not_positive_is_calibration_failure(self):
        # seed 2's sample mean of Z is positive, so the whole-sample root is negative
        with pytest.raises(CalibrationFailureError, match="no positive root exists"):
            solve_unbiased_es_constant(50, 0.999999, 100_000, seed=2)

    def test_a_n_increases_toward_plugin_constant(self):
        values = [
            solve_unbiased_es_constant(n, 0.10, 400_000, seed=4).a_n
            for n in (10, 50, 200, 10_000)
        ]
        assert values[0] < values[1] < values[2] < values[3] < -1.70
        assert values[-1] == pytest.approx(-PLUGIN_ES_CONST_10, abs=0.01)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            solve_unbiased_es_constant(50, 0.10, 50_000, seed=0)
        with pytest.raises(SizeError):
            solve_unbiased_es_constant(1, 0.10, 200_000, seed=0)


class TestSolverBits:
    """The solver returns the sample's exact root: Newton's fixed point on the full sample."""

    # (n, alpha, samples, seed) -> float.hex of b_n, a_n and residual, from newton_reference
    PINS = [
        ((50, 0.05, 1_000_000, 0), "0x1.36beb4f2b82f1p-2", "-0x1.129b7dbead46ep+1", "0x0.0p+0"),
        ((2, 0.05, 1_000_000, 0), "0x1.e200144f2b58cp+3", "-0x1.2729e87d9d7a6p+4", "0x0.0p+0"),
        ((5, 0.01, 1_000_000, 0), "0x1.3e6b7910b8d83p+1", "-0x1.5ccfba025cf90p+2", "0x0.0p+0"),
        ((10_000, 0.10, 400_000, 0), "0x1.20214424c2308p-6", "-0x1.c233fa53ab626p+0", "0x0.0p+0"),
        ((50, 0.999999, 1_000_000, 3), "0x1.47786c7de4574p-12", "-0x1.216345e8f192fp-9",
         "0x0.0p+0"),
        # tail == m: the ES is the mean of every draw, and seed 0's sample mean of Z is negative
        ((50, 0.999999, 100_000, 0), "0x1.c03c8048ab3aep-12", "-0x1.8c1c0466ab4d9p-9",
         "0x0.0p+0"),
    ]

    @pytest.mark.parametrize("case, b_n, a_n, residual", PINS)
    def test_pinned_bits(self, case, b_n, a_n, residual):
        n, alpha, samples, seed = case
        e = solve_unbiased_es_constant(n, alpha, samples, seed=seed)
        assert (e.b_n.hex(), e.a_n.hex(), e.residual.hex()) == (b_n, a_n, residual)
        assert entry_bits(e) == entry_bits(newton_reference(*case))

    def test_tail_count(self):
        assert _tail_count(0.999999, 100_000) == 100_000
        assert _tail_count(0.05, 100) == 5 and _tail_count(1e-9, 100) == 1

    def test_is_the_sample_root_on_random_cases(self):
        rng = np.random.default_rng(1603)
        for seed in range(20):
            n = int(round(math.exp(rng.uniform(math.log(2), math.log(10_000)))))
            alpha = float(math.exp(rng.uniform(math.log(0.002), math.log(0.6))))
            try:
                b_bisect = plain_bisection(n, alpha, 200_000, seed)
            except CalibrationFailureError:
                with pytest.raises(CalibrationFailureError):
                    solve_unbiased_es_constant(n, alpha, 200_000, seed=seed)
                continue
            b = solve_unbiased_es_constant(n, alpha, 200_000, seed=seed).b_n
            z, v = draw_pivotal_pairs(SeededRng(seed), n, 200_000)
            # the root: empirical ES changes sign over b * (1 -+ 1e-10)
            assert empirical_es(z + b * (1.0 - 1e-10) * v, alpha) > 0.0, (n, alpha, seed)
            assert empirical_es(z + b * (1.0 + 1e-10) * v, alpha) < 0.0, (n, alpha, seed)
            # the bisection stopped at |g| <= 1e-4, and g falls with slope mean(v) over the tail
            slope = v[tail_rows(z, v, b, _tail_count(alpha, 200_000))].mean()
            assert abs(b - b_bisect) * slope <= 1e-4, (n, alpha, seed)

    @pytest.mark.parametrize("case", [c for c, *_ in PINS if 4 * _tail_count(c[1], c[2]) <= c[2]])
    def test_bracket_path_reads_candidates(self, monkeypatch, case):
        # the pinned bits are test_pinned_bits'; here only the path that gives them:
        # from the quadrature guess, one Newton run on the candidate rows reaches the root
        runs = spy_newton(monkeypatch)
        solve_unbiased_es_constant(case[0], case[1], case[2], seed=case[3])
        assert [(size < case[2], found) for size, found in runs] == [(True, True)]

    # per guess, each Newton run as (read candidate rows only, reached the root)
    PATHS = {
        "quadrature": [(True, True)],
        "far_low": [(True, False), (False, True)],
        "far_high": [(True, False), (False, True)],
        "below_root": [(True, True)],  # b_h below the root, but c is wide enough
        "above_root": [(True, False), (False, True)],  # the first step lands below b_l
        "raises": [(False, True)],
    }

    @pytest.mark.parametrize("guess", sorted(PATHS))
    def test_every_path_gives_the_full_sample_bits(self, monkeypatch, guess):
        n, alpha, samples, seed = case = (50, 0.05, 200_000, 0)
        expected = newton_reference(*case)
        root = expected.b_n
        width = 8.0 / math.sqrt(_tail_count(alpha, samples))  # the bracket's half-width over b
        b_n = {"quadrature": exact_unbiased_es_constant(n, alpha).b_n,
               "far_low": 0.01 * root, "far_high": 100.0 * root,
               "below_root": root * 0.999 / (1.0 + width),  # b_h just below the root
               "above_root": root * 1.001 / (1.0 - width)}.get(guess)  # b_l just above it

        def exact(n, alpha):
            if b_n is None:
                raise CalibrationFailureError("the quadrature broke down")
            return types.SimpleNamespace(b_n=b_n)

        monkeypatch.setattr(calibration, "exact_unbiased_es_constant", exact)
        runs = spy_newton(monkeypatch)
        entry = solve_unbiased_es_constant(n, alpha, samples, seed=seed)
        assert [(size < samples, found) for size, found in runs] == self.PATHS[guess]
        assert entry_bits(entry) == entry_bits(expected)

    def test_ties_at_the_tail_edge_go_to_the_earlier_rows(self, monkeypatch):
        # draws rounded to 0.1 tie at every tail edge, yet each tail holds exactly ``tail`` rows
        z, v = (np.round(a, 1) for a in draw_pivotal_pairs(SeededRng(4), 50, 200_000))

        def draw(rng, n, count):
            return z.copy(), v.copy()

        monkeypatch.setattr(calibration, "draw_pivotal_pairs", draw)
        entry = solve_unbiased_es_constant(50, 0.05, 200_000, seed=4)
        assert entry_bits(entry) == entry_bits(newton_reference(50, 0.05, 200_000, 4, draw))

    def test_peak_memory_below_three_samples(self):
        exact_unbiased_es_constant(50, 0.05)  # the guess is cached, as calibrate has it
        tracemalloc.start()
        try:
            solve_unbiased_es_constant(50, 0.05, 1_000_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * 1_000_000  # z and v, and less than one more float64 sample


class TestExactSolver:
    @pytest.mark.parametrize(
        "n, alpha", [(2, 0.10), (5, 0.40), (50, 0.10), (250, 0.025), (1000, 0.01)]
    )
    def test_root_checked_by_independent_quadrature(self, n, alpha):
        entry = exact_unbiased_es_constant(n, alpha)
        assert abs(es_by_conditioning_on_z(n, alpha, entry.b_n)) <= 1e-8

    def test_paper_value_and_provenance(self):
        entry = exact_unbiased_es_constant(50, 0.10)
        assert entry.a_n == pytest.approx(-1.8101034083, abs=1e-9)
        assert entry.source == "quadrature"
        assert entry.mc_samples is None and entry.seed is None
        assert entry.residual <= 1e-12

    def test_mc_table_within_three_standard_errors(self, table_a50):
        mc = table_a50.lookup(50, 0.10)
        se = MC_SD_A50_AT_2E5 * math.sqrt(200_000 / mc.mc_samples)
        assert abs(mc.a_n - exact_unbiased_es_constant(50, 0.10).a_n) <= 3.0 * se

    def test_large_root_at_small_n_and_level(self):
        # b_2 ~ 7.6e5 at alpha = 1e-6: the root sits where V ~ 1e-6
        entry = exact_unbiased_es_constant(2, 1e-6)
        assert entry.b_n > 1e5
        assert entry.residual <= 1e-12 * entry.b_n

    def test_increases_toward_plugin_constant(self):
        values = [exact_unbiased_es_constant(n, 0.10).a_n for n in (2, 10, 50, 200, 10**6)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(-PLUGIN_ES_CONST_10, abs=1e-5)

    def test_cached(self):
        assert exact_unbiased_es_constant(40, 0.05) is exact_unbiased_es_constant(40, 0.05)

    def test_preconditions(self):
        with pytest.raises(SizeError):
            exact_unbiased_es_constant(1, 0.10)
        with pytest.raises(DomainError):
            exact_unbiased_es_constant(50, 1.0)

    def test_breakdown_is_calibration_failure(self):
        with pytest.raises(CalibrationFailureError):
            exact_unbiased_es_constant(2, 1e-300)

    @pytest.mark.parametrize("k", [1, 2, 3, 9, 49, 999, 10**6])
    def test_chernoff_range_contains_the_exact_range(self, k):
        # the rule's log-chi range, from Chernoff's bound, holds the exact 1e-18 quantiles
        lo, hi = _log_chi_range(k)
        exact_lo = 0.5 * math.log(2.0 * gammaincinv(0.5 * k, 1e-18))
        exact_hi = 0.5 * math.log(2.0 * gammainccinv(0.5 * k, 1e-18))
        assert exact_lo - 1.0 < lo <= exact_lo and exact_hi <= hi < exact_hi + 0.1


def t_quantile_by_mpmath(k, alpha):
    """t_k^{-1}(alpha) for alpha < 1/2, from the regularised incomplete beta at 40 digits."""
    with mp.workdps(40):
        kk, a = mp.mpf(k), mp.mpf(alpha)

        def excess(t):
            return mp.betainc(kk / 2, 0.5, 0, kk / (kk + t * t), regularized=True) / 2 - a

        return -abs(float(mp.findroot(excess, mp.mpf(float(stdtrit(k, alpha))))))  # excess is even


class TestPivotTQuantile:
    """t_k^{-1}(alpha) of the unbiased VaR, as the alpha-quantile of Z / (V / sqrt(k))."""

    KS = sorted({1, 2, 3, 4, 6, 9, 999, 1000, *np.geomspace(1, 1000, 24).astype(int).tolist()})

    @pytest.mark.parametrize("alphas, bound", [
        ((1e-3, 0.01, 0.05, 0.1, 0.25, 0.2500001, 0.4, 0.45), 2e-14),
        ((1e-12, 1e-9, 1e-6, 1e-5, 1e-4, 9.9e-4), 1e-13),
    ])
    def test_within_bounds_of_stdtrit(self, alphas, bound):
        for k in self.KS:
            for alpha in alphas:
                reference = stdtrit(k, alpha)
                assert abs(_t_quantile(k, alpha) - reference) <= bound * abs(reference), (k, alpha)

    @pytest.mark.parametrize("k, alpha", [(49, 0.05), (5, 0.05), (1, 0.05), (1000, 1e-3)])
    def test_against_mpmath(self, k, alpha):
        exact = t_quantile_by_mpmath(k, alpha)
        assert _t_quantile(k, alpha) == pytest.approx(exact, rel=4e-15, abs=0)

    @pytest.mark.parametrize("k", [1, 4, 49])
    def test_relative_accuracy_kept_near_the_median(self, k):
        # stdtrit itself errs by 1.8e-11 at (4, 0.499), so mpmath is the oracle here
        for alpha in (0.499, 0.49999, 0.5 - 1e-9):
            exact = t_quantile_by_mpmath(k, alpha)
            assert _t_quantile(k, alpha) == pytest.approx(exact, rel=2e-14, abs=0), alpha

    def test_median_and_antisymmetry_exact(self):
        for k in (1, 7, 300):
            assert _t_quantile(k, 0.5) == 0.0
            for alpha in (0.95, 0.7, 0.5000001):
                assert _t_quantile(k, alpha) == -_t_quantile(k, 1.0 - alpha)

    def test_cached_per_window_size_and_level(self):
        _t_quantile.cache_clear()
        x = np.linspace(-1.0, 1.0, 37)
        first = estimate("gaussian_unbiased", x, 0.05)
        assert _t_quantile.cache_info().currsize == 1
        assert estimate("gaussian_unbiased", x * 2.0, 0.05) == 2.0 * first
        assert _t_quantile.cache_info().hits == 1
        estimate("gaussian_unbiased", x, 0.01)
        assert _t_quantile.cache_info().currsize == 2


class TestCalibrationTable:
    def test_round_trip_exact(self, tmp_path, table_a50):
        path = tmp_path / "table.json"
        table_a50.save(path)
        reloaded = CalibrationTable.load(path)
        assert reloaded.entries == table_a50.entries

    def test_resave_byte_identical(self, tmp_path, table_a50):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        table_a50.save(p1)
        CalibrationTable.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lookup_missing(self, table_a50):
        # a key the table does not hold gives the exact constant, which is not stored
        for n, alpha in [(51, 0.10), (50, 0.05)]:
            assert table_a50.lookup(n, alpha) is exact_unbiased_es_constant(n, alpha)
        assert list(table_a50.entries) == [CalibrationTable.key(50, 0.10)]

    def test_entry_answers_for_its_own_alpha_only(self, table_a50):
        # a_50 at 4e-7 is -5.99 and at 1e-7 -6.38: a level within 1e-6 of a stored one,
        # or one ulp off it, reads its own exact constant
        table = CalibrationTable()
        table.add(exact_unbiased_es_constant(50, 4e-7))
        for held, alpha in ((table, 1e-7), (table_a50, 0.10 + 1e-9),
                            (table_a50, math.nextafter(0.10, 1.0)), (table_a50, 0.1001)):
            assert held.lookup(50, alpha) is exact_unbiased_es_constant(50, alpha)
        assert table.lookup(50, 4e-7).a_n != table.lookup(50, 1e-7).a_n
        assert table_a50.lookup(50, 0.10).source == "monte_carlo"

    def test_alphas_a_rounding_would_merge_round_trip_apart(self, tmp_path):
        # 1e-7 and 4e-7 round to the same 1e-6 step; saved and reloaded, each keeps its own entry
        table = CalibrationTable()
        for alpha in (1e-7, 4e-7, 0.05, 0.0500004):
            table.add(exact_unbiased_es_constant(50, alpha))
        path = tmp_path / "table.json"
        table.save(path)
        reloaded = CalibrationTable.load(path)
        assert list(reloaded.entries) == sorted(table.entries)
        for alpha in (1e-7, 4e-7, 0.05, 0.0500004):
            entry = reloaded.lookup(50, alpha)
            assert (entry.alpha, entry.a_n) == (alpha, exact_unbiased_es_constant(50, alpha).a_n)

    def test_key_holds_alpha_to_the_bit(self):
        key = CalibrationTable.key(np.int64(50), np.float64(0.1))
        assert key == (50, 0.1) and type(key[0]) is int and type(key[1]) is float
        assert CalibrationTable.key(50, math.nextafter(0.1, 0.0)) != key

    def test_saved_version_is_the_format_version(self, tmp_path, table_a50):
        path = tmp_path / "table.json"
        table_a50.save(path)
        assert json.loads(path.read_text())["version"] == TABLE_FORMAT_VERSION == 2

    def test_quadrature_entry_round_trip(self, tmp_path):
        table = CalibrationTable()
        table.add(exact_unbiased_es_constant(50, 0.10))
        path = tmp_path / "exact.json"
        table.save(path)
        assert CalibrationTable.load(path).entries == table.entries

    def test_version1_file_loads_as_monte_carlo(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(
            '{"entries": [{"a_n": -1.8122901, "alpha": 0.1, "b_n": %r, '
            '"mc_samples": 1000000, "n": 50, "residual": 1e-05, "seed": 7}], '
            '"version": 1}' % (1.8122901 * math.sqrt(50 / (49 * 51)))
        )
        entry = CalibrationTable.load(path).lookup(50, 0.10)
        assert entry.source == "monte_carlo"
        assert (entry.mc_samples, entry.seed) == (1_000_000, 7)

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(DataError):
            CalibrationTable.load(path)

    @pytest.mark.parametrize("text", [
        '{"version": 2, "entries": [',
        '{"version": 2, "entries": [{"n": 50, "alpha": 0.1}]}',
        '{"version": 2}',
        '[1, 2]',
        '{"version": 2, "entries": ["n"]}',
    ])
    def test_malformed_file_is_data_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(DataError, match="bad.json"):
            CalibrationTable.load(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="typo.json"):
            CalibrationTable.load(tmp_path / "typo.json")

    def test_unwritable_path_is_output_error(self, tmp_path, table_a50):
        with pytest.raises(OutputError, match="nodir"):
            table_a50.save(tmp_path / "nodir" / "t.json")

    def test_entry_validation(self):
        with pytest.raises(DomainError):
            CalibrationEntry(50, 0.1, b_n=-0.1, a_n=-1.0, mc_samples=1, seed=0, residual=0.0)
        with pytest.raises(DataError):
            CalibrationEntry(50, 0.1, b_n=0.5, a_n=-1.0, mc_samples=1, seed=0, residual=0.0)
        b_n = 1.0 * math.sqrt(50 / (49 * 51))
        with pytest.raises(DataError):
            CalibrationEntry(50, 0.1, b_n, a_n=-1.0, mc_samples=1, seed=0, residual=0.0,
                             source="guess")

    def test_entry_needs_two_observations_and_real_constants(self):
        with pytest.raises(SizeError):
            CalibrationEntry(1, 0.1, b_n=1.0, a_n=-1.0, mc_samples=1, seed=0, residual=0.0)
        for b_n, a_n in ((math.nan, -1.0), (1.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(DomainError):
                CalibrationEntry(50, 0.1, b_n, a_n, mc_samples=1, seed=0, residual=0.0)


class TestPivotalityCheck:
    def test_unbiased_hits_alpha(self):
        res = pivotality_check("u", 50, 0.05, 250_000, seed=31)
        assert abs(res.frequency - 0.05) <= 3.0 * res.standard_error
        assert res.method == "gaussian_unbiased"

    def test_plugin_exceeds_alpha(self):
        res = pivotality_check("norm", 50, 0.05, 250_000, seed=31)
        assert res.frequency - 0.05 > 3.0 * res.standard_error

    def test_ten_million_trials_counted_per_chunk(self):
        # the count runs chunk by chunk, over ten chunks of 2^20 trials and a partial one
        res = pivotality_check("u", 50, 0.05, 10**7, seed=1)
        assert (res.exceedances, res.frequency, res.trials) == (499_750, 0.049975, 10**7)

    def test_parameter_free_exactly_under_shared_seed(self):
        base = pivotality_check("u", 50, 0.05, 50_000 // 5 * 5 + 10_000, seed=8)
        moved = pivotality_check(
            "u", 50, 0.05, base.trials, seed=8, params=GaussianParams(5.0, 10.0)
        )
        # same underlying standard draws + exact scale equivariance
        assert moved.frequency == base.frequency

    @pytest.mark.parametrize("n", GRID_N)
    def test_unbiased_exceedance_is_alpha_on_the_grid(self, n):
        # the paper's VaR property: unbiased VaR is exceeded with probability exactly alpha
        for alpha in GRID_ALPHA:
            trials = 200_000
            res = pivotality_check("u", n, alpha, trials, seed=1000 * n + int(100 * alpha))
            assert abs(res.frequency - alpha) <= 4.0 * math.sqrt(alpha * (1 - alpha) / trials)

    @pytest.mark.parametrize("n", GRID_N)
    def test_plugin_exceedance_matches_exact(self, n):
        # plug-in VaR (ddof = 1) is exceeded with probability F_{t,n-1}(z_alpha sqrt(n/(n+1)))
        for alpha in GRID_ALPHA:
            exact = stdtr(n - 1, ndtri(alpha) * math.sqrt(n / (n + 1)))
            res = pivotality_check("gaussian", n, alpha, 100_000, seed=100 * n + int(100 * alpha))
            assert abs(res.frequency - exact) <= 4.0 * res.standard_error

    def test_plugin_exceedance_exactly_above_alpha_and_falling_in_n(self):
        for alpha in (0.01, 0.05, 0.10):
            exact = [stdtr(n - 1, ndtri(alpha) * math.sqrt(n / (n + 1))) for n in (2, 5, 10, 50, 250)]
            assert all(p > alpha for p in exact)
            assert all(a > b for a, b in zip(exact, exact[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            pivotality_check("nope", 50, 0.05, 10_000, seed=0)
        with pytest.raises(DomainError):
            pivotality_check("u", 50, 0.05, 5_000, seed=0)

    @pytest.mark.parametrize("method", ["empirical", "kde", "cornish_fisher"])
    def test_window_reading_method_is_config_error(self, method):
        # the check simulates only each window's mean and sd
        with pytest.raises(ConfigError) as info:
            pivotality_check(method, 50, 0.05, 10_000, seed=0)
        assert all(tag in str(info.value) for tag in LOCATION_SCALE)


class TestSimulatedPositions:
    @pytest.mark.parametrize("measure", ["var", "es"])
    def test_shorter_run_is_prefix_of_longer(self, measure):
        # a trial's draws depend only on the seed and its index, across chunk boundaries too
        def run(trials):
            params = GaussianParams(0.3, 2.0)
            chunks = _secured_chunks("u", 10, 0.05, trials, 4, params, measure, None)
            return np.concatenate([chunk for _, chunk in chunks])

        longest = run(_CHUNK_TRIALS + 20_000)
        for trials in (10_000, _CHUNK_TRIALS + 10_000):
            assert np.array_equal(run(trials), longest[:trials])
        assert not np.any(longest[_CHUNK_TRIALS:] == longest[:20_000])  # chunks draw their own values

    def test_checks_keep_their_bits(self):
        # pinned over two chunks: Z and V from the pivotal chunk draw, W from each chunk's third stream
        params = GaussianParams(0.3, 1.7)
        res = pivotality_check("u", 50, 0.05, _CHUNK_TRIALS + 20_000, 9, params)
        assert (res.exceedances, res.frequency.hex()) == (53_385, "0x1.9943a3ba8b249p-5")
        value = secured_position_es("u", 50, 0.05, _CHUNK_TRIALS + 20_000, 9, params)
        assert value.hex() == "-0x1.4e4a6e4129d09p-8"
        assert secured_position_es("norm", 7, 0.01, 30_000, 4).hex() == "0x1.a4dfd2c202989p-1"


class TestSecuredPositionEs:
    def test_unbiased_es_near_zero(self, table_a50):
        value = secured_position_es("u", 50, 0.10, 200_000, seed=13, table=table_a50)
        assert abs(value) <= 0.02

    def test_unbiased_es_without_table_matches_exact_table(self):
        table = CalibrationTable()
        table.add(exact_unbiased_es_constant(50, 0.10))
        without = secured_position_es("u", 50, 0.10, 20_000, seed=13)
        assert without == secured_position_es("u", 50, 0.10, 20_000, seed=13, table=table)

    def test_plugin_es_positive(self):
        value = secured_position_es("norm", 50, 0.10, 200_000, seed=13)
        assert value > 0.02

    @pytest.mark.parametrize("n", GRID_N)
    def test_unbiased_es_is_zero_on_the_grid(self, n):
        # the paper's ES property: the secured position of unbiased ES has ES zero
        for alpha in GRID_ALPHA:
            b_n = exact_unbiased_es_constant(n, alpha).b_n
            exact, sd = pivot_secured_es(n, alpha, b_n)
            assert abs(exact) <= 1e-9
            trials = 200_000
            value = secured_position_es("u", n, alpha, trials, seed=1000 * n + int(100 * alpha))
            assert abs(value) <= 4.0 * sd / (alpha * math.sqrt(trials))

    @pytest.mark.parametrize("n", GRID_N)
    def test_plugin_es_matches_exact(self, n):
        for alpha in GRID_ALPHA:
            exact, sd = plugin_secured_es(n, alpha)
            trials = 200_000
            value = secured_position_es("gaussian", n, alpha, trials, seed=10 * n + int(100 * alpha))
            assert abs(value - exact) <= 4.0 * sd / (alpha * math.sqrt(trials))

    def test_plugin_es_exactly_positive_and_falling_in_n(self):
        for alpha in (0.01, 0.05, 0.10):
            exact = [plugin_secured_es(n, alpha)[0] for n in (2, 5, 10, 50, 250)]
            assert all(e > 0.0 for e in exact)
            assert all(a > b for a, b in zip(exact, exact[1:]))

    def test_mean_estimator_alpha_near_one(self):
        value = secured_position_es("mean", 50, 0.999, 200_000, seed=14)
        assert abs(value) <= 0.01

    @pytest.mark.parametrize("method", ["empirical", "kde", "cornish_fisher"])
    def test_window_reading_method_is_config_error(self, method):
        with pytest.raises(ConfigError) as info:
            secured_position_es(method, 50, 0.05, 10_000, seed=0)
        assert all(tag in str(info.value) for tag in LOCATION_SCALE)
