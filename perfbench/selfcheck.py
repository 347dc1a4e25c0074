"""Tests of the benchmark's reference computations, on small inputs.

Each test shows that a reference accepts a correct output and rejects a
perturbed one. The file name keeps it out of the repository's own test run;
run it with

    python3 -m pytest -q perfbench/selfcheck.py
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, special, stats

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refs  # noqa: E402
from refs import CheckFailed  # noqa: E402

ALPHA = 0.1


def _loop_result(capitals, evaluation, alpha):
    """A backtest result dict computed by explicit loops over the definitions."""
    count, score = 0, 0.0
    for cap, row in zip(capitals, evaluation):
        for y in row:
            count += y + cap < 0.0
            x = -cap
            score += ((x >= y) - alpha) * (x - y)
    points = evaluation.size
    return {"failed": False, "failure": None, "exceedance_count": count,
            "exceedance_rate": count / points, "var_mean_score": score / points}


@pytest.fixture
def windows():
    return np.random.default_rng(5).standard_t(4.0, (12, 10))


def test_csv_parse_and_tile(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("date,a,b\n19260701,0.1000,-1.2500\n19260702,2.0000,0.0300\n"
                    "19260703,-0.5000,1.0000\n19260706,0.2500,-0.0100\n")
    parsed = refs.parse_csv_columns(path, 2)
    assert parsed.tolist() == [[0.1, -1.25], [2.0, 0.03], [-0.5, 1.0], [0.25, -0.01]]
    assert refs.tile(parsed[:, 0], 3).tolist() == [[0.1, 2.0, -0.5]]
    assert not np.array_equal(parsed[:, 1] / 100, [-1.25 / 100, 0.03 / 100, 1.0 / 100, -0.011 / 100])


def test_capitals_by_hand():
    w = np.array([[-3.0, -1.0, 0.0, 2.0, 7.0]])
    mean, sd = 1.0, math.sqrt(np.var(w, ddof=1))
    assert refs.gaussian_var(w, ALPHA)[0] == pytest.approx(-(mean + sd * special.ndtri(ALPHA)))
    t_factor = math.sqrt(6 / 5) * stats.t.ppf(ALPHA, 4)
    assert refs.unbiased_var(w, ALPHA)[0] == pytest.approx(-(mean + sd * t_factor))
    # type 7: h = 0.1 * 4 + 1 = 1.4, between -3 and -1
    assert refs.empirical_var(w, ALPHA)[0] == pytest.approx(-(-3.0 + 0.4 * 2.0))
    assert refs.empirical_simple_var(w, ALPHA)[0] == 3.0  # floor(0.5) + 1 = 1st smallest
    symmetric = np.array([[-2.0, -1.0, 0.0, 1.0, 2.0]])
    # zero skew; the kurtosis term alone moves the quantile
    k = stats.kurtosis(symmetric[0], bias=True)
    z = special.ndtri(ALPHA)
    expected = -(np.std(symmetric, ddof=1) * (z + (z**3 - 3 * z) * k / 24))
    assert refs.cornish_fisher_var(symmetric, ALPHA)[0] == pytest.approx(expected)


def test_method_result_accepts_loop_values_and_rejects_perturbed(windows):
    est, ev = windows[:-1], windows[1:]
    caps = refs.gaussian_var(est, ALPHA)
    good = _loop_result(caps, ev, ALPHA)
    refs.check_method_result(good, caps, ev, ALPHA, "loop")
    for key, bad_value in (("exceedance_count", good["exceedance_count"] + 1),
                           ("var_mean_score", good["var_mean_score"] * (1 + 1e-6))):
        with pytest.raises(CheckFailed):
            refs.check_method_result({**good, key: bad_value}, caps, ev, ALPHA, "perturbed")
    with pytest.raises(CheckFailed):
        refs.check_method_result({**good, "failed": True, "failure": "x"}, caps, ev, ALPHA, "failed")


def test_exceedance_ties_may_go_either_way():
    ev = np.array([[-1.0, 0.5, 2.0]])
    caps = np.array([1.0])  # -1 + 1 == 0 is a tie
    refs.check_exceedance_count(0, caps, ev, "strict")
    refs.check_exceedance_count(1, caps, ev, "tie counted")
    with pytest.raises(CheckFailed):
        refs.check_exceedance_count(2, caps, ev, "one too many")


def test_kde_capital_is_the_mixture_quantile(windows):
    row = windows[0]
    cap = refs.kde_gaussian_capital(row, ALPHA)
    h = 1.06 * row.std(ddof=1) * row.size ** -0.2
    assert special.ndtr((-cap - row) / h).mean() == pytest.approx(ALPHA, abs=1e-13)
    refs.check_close(cap, refs.kde_gaussian_capital(row, ALPHA), "same", rtol=1e-9, atol=1e-11)
    with pytest.raises(CheckFailed):
        refs.check_close(cap + 1e-8, refs.kde_gaussian_capital(row, ALPHA), "moved",
                         rtol=1e-9, atol=1e-11)


def test_student_t_fit_check(windows):
    row = np.concatenate(windows[:5])
    res = optimize.minimize_scalar(lambda nu: -refs.student_t_profile_loglik(row, nu),
                                   bounds=(2 + 1e-6, 200), method="bounded",
                                   options={"xatol": 1e-8})
    nu = float(res.x)
    cap = -(row.mean() + row.std(ddof=1) * math.sqrt((nu - 2) / nu) * stats.t.ppf(ALPHA, nu))
    refs.check_student_t_fit(row, nu, cap, ALPHA, "optimum")
    with pytest.raises(CheckFailed):
        refs.check_student_t_fit(row, nu * 1.5, cap, ALPHA, "worse nu")
    with pytest.raises(CheckFailed):
        refs.check_student_t_fit(row, nu, cap * (1 + 1e-6), ALPHA, "moved capital")


def test_profile_loglik_matches_scipy(windows):
    row = windows[1]
    nu = 5.0
    scale = row.std(ddof=1) * math.sqrt((nu - 2) / nu)
    expected = stats.t.logpdf(row, nu, loc=row.mean(), scale=scale).sum()
    assert float(refs.student_t_profile_loglik(row, nu)) == pytest.approx(expected, rel=1e-12)


def test_replication_er_by_loop():
    count, ties, points = refs.replication_unbiased_er(3, 7, 200, 0.5, 2.0, 20, 0.05)
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 7], dtype=np.uint64)))
    x = gen.normal(0.5, 2.0, 200).reshape(10, 20)
    factor = math.sqrt(21 / 20) * stats.t.ppf(0.05, 19)
    loop = sum(int(y < x[k].mean() + x[k].std(ddof=1) * factor)
               for k in range(9) for y in x[k + 1])
    assert (count, ties, points) == (loop, 0, 180)


def test_exact_constant_check():
    # a_50(0.10) = -1.8101034083 to ten digits
    n, alpha = 50, 0.10
    scale = math.sqrt(49 * 51 / 50)
    b = optimize.brentq(lambda b: refs.pivot_tail(b, n, alpha)["es"], 0.2, 0.3, xtol=1e-15)
    assert -b * scale == pytest.approx(-1.8101034083, abs=1e-9)
    refs.check_exact_constant(n, alpha, -b * scale, b, "root")
    with pytest.raises(CheckFailed):
        refs.check_exact_constant(n, alpha, -b * (1 + 1e-6) * scale, b * (1 + 1e-6), "moved root")
    with pytest.raises(CheckFailed):
        refs.check_exact_constant(n, alpha, -b * scale * (1 + 1e-6), b, "inconsistent a_n")


def test_pivot_reduces_to_gaussian_es_for_small_b():
    es = refs.pivot_tail(1e-9, 20, ALPHA)["es"]
    assert es == pytest.approx(stats.norm.pdf(special.ndtri(ALPHA)) / ALPHA, rel=1e-7)


def test_mc_constant_standard_error_matches_measured_spread():
    # the sd of the 2e5-draw MC solve of a_50(0.10), measured over 40 seeds, is 0.0046
    b = 1.8101034083 / math.sqrt(49 * 51 / 50)
    se = refs.mc_constant_standard_error(50, 0.10, b, 200_000)
    assert 0.0046 / 1.3 < se < 0.0046 * 1.3


def test_secured_es_standard_error_matches_simulation():
    n, trials, reps = 10, 4000, 300
    a = -stats.norm.pdf(special.ndtri(ALPHA)) / ALPHA  # the Gaussian plug-in ES
    gen = np.random.default_rng(11)
    values = []
    for _ in range(reps):
        x = gen.normal(0.0, 2.0, (trials, n + 1))
        y = x[:, n] - x[:, :n].mean(axis=1) - x[:, :n].std(axis=1, ddof=1) * a
        tail = np.sort(y)[: math.ceil(ALPHA * trials)]
        values.append(-tail.mean())
    se = refs.secured_es_standard_error(n, ALPHA, a, 2.0, trials)
    assert np.std(values, ddof=1) == pytest.approx(se, rel=0.2)
