import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc, gammaln, ndtr, ndtri, stdtr

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
from riskbench.calibration import _CHUNK_TRIALS, _simulated_secured_positions
from riskbench.estimators import _log_chi_rule, _pivot_es

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
    return scale * _pivot_es(b, alpha, v, w), scale * math.sqrt(m2 - m1 * m1)


def plugin_secured_es(n, alpha):
    """:func:`pivot_secured_es` of plug-in Gaussian ES, whose c is phi(z_alpha)/alpha."""
    z = float(ndtri(alpha))
    c = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / alpha
    return pivot_secured_es(n, alpha, c / math.sqrt((n - 1) * (n + 1) / n))


class TestEmpiricalEs:
    def test_half_tail(self):
        assert empirical_es([-4.0, -2.0, 0.0, 2.0], 0.5) == 3.0

    def test_constant(self):
        assert empirical_es([5.5] * 9, 0.3) == -5.5

    def test_integer_boundary(self):
        # ceil(0.05 * 100) = 5 -> mean of 1..5
        assert empirical_es(list(range(1, 101)), 0.05) == -3.0

    def test_empty(self):
        with pytest.raises(SizeError):
            empirical_es([], 0.5)

    def test_tie_rule_takes_exact_count(self):
        # ceil(0.5 * 5) = 3 smallest, ties included deterministically
        assert empirical_es([0.0, 0.0, 0.0, 1.0, 2.0], 0.5) == 0.0


class TestSolver:
    def test_entry_invariants(self):
        e = solve_unbiased_es_constant(50, 0.10, 200_000, seed=1)
        assert e.b_n > 0.0 and e.a_n < 0.0
        assert abs(e.a_n * math.sqrt(50 / (49 * 51)) + e.b_n) <= 1e-12
        assert e.residual <= 1e-4 or e.residual <= 1e-3  # tolerance or tiny bracket

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
        with pytest.raises(DomainError):
            solve_unbiased_es_constant(50, 0.10, 200_000, seed=0, tolerance=0.0)


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

    def test_alpha_quantised_at_1e6(self, table_a50):
        entry = table_a50.lookup(50, 0.10)
        assert table_a50.lookup(50, 0.10 + 1e-9) is entry
        assert table_a50.lookup(50, 0.1001) is exact_unbiased_es_constant(50, 0.1001)

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


class TestPivotalityCheck:
    def test_unbiased_hits_alpha(self):
        res = pivotality_check("u", 50, 0.05, 250_000, seed=31)
        assert abs(res.frequency - 0.05) <= 3.0 * res.standard_error
        assert res.method == "gaussian_unbiased"

    def test_plugin_exceeds_alpha(self):
        res = pivotality_check("norm", 50, 0.05, 250_000, seed=31)
        assert res.frequency - 0.05 > 3.0 * res.standard_error

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
            return _simulated_secured_positions("u", 10, 0.05, trials, 4, params, measure, None)

        longest = run(_CHUNK_TRIALS + 20_000)
        for trials in (10_000, _CHUNK_TRIALS + 10_000):
            assert np.array_equal(run(trials), longest[:trials])
        assert not np.any(longest[_CHUNK_TRIALS:] == longest[:20_000])  # chunks draw their own values


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
