"""The benchmark's four workloads.

Each workload makes its inputs from the seed with numpy alone, then runs
rounds: every round makes the same program calls on the same inputs, so the
outputs of every round must agree with references computed once per run.
Calls into the program go through the module objects of ``prep.import_program``,
looked up at call time, so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy import stats

import refs
from prep import ALPHA, ES_METHODS, VAR_METHODS, WINDOW
from refs import check_close, require


class Ops:
    """Counts the operations a run attempts and those that fail, and times them by label."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.round_times = defaultdict(float)

    def run(self, label, fn, *args, failed=None, **kwargs):
        """Call ``fn``; an exception or ``failed(result)`` counts the operation as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # the run continues; the failure is counted and shown
            self.failed += 1
            traceback.print_exc(file=sys.__stderr__)  # shown even while the program is quieted
            return None
        finally:
            self.round_times[label] += time.perf_counter() - start
        if failed is not None and failed(result):
            self.failed += 1
            return None
        return result


def _quiet():
    """Redirect the program's stdout and stderr into buffers."""
    out, err = io.StringIO(), io.StringIO()
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(out))
    stack.enter_context(contextlib.redirect_stderr(err))
    return stack, out


class Workload:
    name = ""
    why = ""
    item = ""  # what items_per_s counts
    items_per_round = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def make_inputs(self):
        """Generate this run's inputs from the seed; no program code runs."""

    def reference(self, rb, state):
        """Once per run and untimed: compute references and check per-run outputs."""

    def before_round(self):
        """Untimed: remove what the previous round wrote."""

    def run_round(self, rb, state, ops: Ops):
        raise NotImplementedError

    def check_round(self, out):
        raise NotImplementedError

    def summary(self, round_s: float, op_s: dict) -> dict:
        """The workload's own figures, named as in the README, from median times."""
        return {}


def _report_failed(report):
    return any(r.failed for r in report.methods.values())


class BacktestCsv(Workload):
    name = "backtest_csv"
    why = ("how users backtest real data: riskbench backtest per column of a 100k-row "
           "percent CSV; ingestion dominates, so kernel changes should not move it")
    item = "CSV observations"
    ROWS = 100_000
    COLUMNS = 4
    SCALES = (0.6, 0.9, 1.3, 1.8)
    CHECKED = ("gaussian", "gaussian_unbiased", "empirical")
    items_per_round = ROWS * COLUMNS

    def make_inputs(self):
        self.csv_path = self.workdir / "returns.csv"
        self.columns = [f"r{j + 1}" for j in range(self.COLUMNS)]
        # heavy-tailed daily returns in percent, four decimals, one scale per column;
        # the scales are fixed, so the file's size and its parsing cost do not depend on the seed
        values = self.rng.standard_t(4.0, (self.ROWS, self.COLUMNS)) * self.SCALES
        values = np.clip(values + 0.02, -50.0, 50.0)
        days = np.datetime64("1750-01-01") + np.arange(self.ROWS)
        dates = np.char.replace(days.astype(str), "-", "")
        cells = [dates] + [np.char.mod("%.4f", values[:, j]) for j in range(self.COLUMNS)]
        with open(self.csv_path, "w", encoding="utf-8") as fh:
            fh.write("date," + ",".join(self.columns) + "\n")
            fh.write("\n".join(",".join(row) for row in zip(*cells)) + "\n")

    def reference(self, rb, state):
        decimals = refs.parse_csv_columns(self.csv_path, self.COLUMNS) / 100.0
        self.expected = {}
        for j, column in enumerate(self.columns):
            series = rb.data_io.load_returns_csv(self.csv_path, column, "percent")
            require(np.array_equal(series.values, decimals[:, j]),
                    f"{column}: parsed values differ from the CSV divided by 100")
            require(series.dates is not None and len(series.dates) == self.ROWS,
                    f"{column}: the YYYYMMDD dates were not recognised")
            windows = refs.tile(decimals[:, j], WINDOW)
            est, ev = windows[:-1], windows[1:]
            caps = {m: refs.VAR_REFERENCES[m](est, ALPHA) for m in self.CHECKED}
            self.expected[column] = (caps, ev, windows.shape[0])
        self.reports = {c: self.workdir / f"report_{c}.json" for c in self.columns}
        self.argv = {
            c: ["backtest", "--input", str(self.csv_path), "--column", c, "--scale", "percent",
                "--alpha", repr(ALPHA), "--window", str(WINDOW), "--methods", ",".join(ES_METHODS),
                "--measure", "both", "--table", str(state["table_path"]),
                "--out", str(self.reports[c]), "--format", "json"]
            for c in self.columns
        }

    def before_round(self):
        for path in self.reports.values():
            path.unlink(missing_ok=True)

    def run_round(self, rb, state, ops):
        quiet, _ = _quiet()
        with quiet:
            codes = {c: ops.run("backtest", rb.cli.main, self.argv[c], failed=bool)
                     for c in self.columns}
        return codes

    def check_round(self, codes):
        for column in self.columns:
            if codes[column] is None:
                continue
            with open(self.reports[column], encoding="utf-8") as fh:
                report = json.load(fh)
            caps, ev, window_count = self.expected[column]
            require(report["window_count"] == window_count and report["evaluated_points"] == ev.size,
                    f"{column}: report covers {report['window_count']} windows, "
                    f"{report['evaluated_points']} points")
            methods = report["methods"]
            for m in ES_METHODS:
                require(not methods[m]["failed"], f"{column} {m}: failed: {methods[m]['failure']}")
            for m in self.CHECKED:
                refs.check_method_result(methods[m], caps[m], ev, ALPHA, f"{column} {m}")
            # for alpha < 0.5 the unbiased capital is the larger in every window
            require(methods["gaussian"]["exceedance_count"]
                    >= methods["gaussian_unbiased"]["exceedance_count"],
                    f"{column}: gaussian has fewer exceedances than gaussian_unbiased")

    def summary(self, round_s, op_s):
        return {"csv_obs_per_s": self.items_per_round / round_s,
                "cli_backtest_s": op_s["backtest"] / self.COLUMNS}


class BacktestFitted(Workload):
    name = "backtest_fitted"
    why = ("the one workload the per-window student_t and kde fits dominate: "
           "rolling_backtest with all nine VaR methods on heavy-tailed series")
    item = "estimation windows"
    TAILS = (3.0, 6.0)  # Student-t degrees of freedom of the two series
    WINDOWS = 301
    KDE_CHECKS = 12
    T_CHECKS = 4
    items_per_round = len(TAILS) * (WINDOWS - 1)

    def make_inputs(self):
        length = WINDOW * self.WINDOWS
        self.series = [0.01 * self.rng.standard_t(nu, length) + 2e-4 for nu in self.TAILS]

    def reference(self, rb, state):
        self.expected = []
        for s, values in enumerate(self.series):
            windows = refs.tile(values, WINDOW)
            est, ev = windows[:-1], windows[1:]
            ws = rb.estimators.window_stats(est, with_shape=True)
            caps = {m: rb.estimators.batch_var_capitals(m, ws, ALPHA) for m in VAR_METHODS}
            for m, reference in refs.VAR_REFERENCES.items():
                check_close(caps[m], reference(est, ALPHA), f"series {s} {m}: capitals")
            for i in self.rng.choice(est.shape[0], self.KDE_CHECKS, replace=False):
                check_close(caps["kde"][i], refs.kde_gaussian_capital(est[i], ALPHA),
                            f"series {s} window {i}: kde capital", rtol=1e-9, atol=1e-11)
            for i in self.rng.choice(est.shape[0], self.T_CHECKS, replace=False):
                nu = rb.estimators.fit_student_t(est[i]).nu
                refs.check_student_t_fit(est[i], nu, caps["student_t"][i], ALPHA,
                                         f"series {s} window {i}: student_t")
            self.expected.append((caps, ev))

    def run_round(self, rb, state, ops):
        return [ops.run("rolling_backtest", rb.backtest.rolling_backtest, values, state["config"],
                        failed=_report_failed)
                for values in self.series]

    def check_round(self, reports):
        for s, report in enumerate(reports):
            if report is None:
                continue
            caps, ev = self.expected[s]
            require(report.evaluated_points == ev.size, f"series {s}: evaluated points")
            for m in VAR_METHODS:
                refs.check_method_result(vars(report.methods[m]), caps[m], ev, ALPHA,
                                         f"series {s} {m}")

    def summary(self, round_s, op_s):
        return {"fitted_windows_per_s": self.items_per_round / round_s}


class Replicate(Workload):
    name = "replicate"
    why = ("the paper's replication study: a thousand small rolling backtests per round, so "
           "per-call overhead, shape moments and CF ES dominate")
    item = "replications"
    REPLICATIONS = 1000
    LENGTH = 2500
    METHODS = ("gaussian_unbiased", "gaussian", "empirical", "cornish_fisher", "gpd")
    items_per_round = REPLICATIONS

    def reference(self, rb, state):
        self.generator = rb.estimators.GaussianParams(0.0, 1.0)
        picks = {0, 1, self.REPLICATIONS - 1}
        picks.update(int(i) for i in self.rng.choice(self.REPLICATIONS, 3, replace=False))
        self.er_checks = {
            i: refs.replication_unbiased_er(self.seed, i, self.LENGTH, 0.0, 1.0, WINDOW, ALPHA)
            for i in sorted(picks)
        }
        self.first = None

    def run_round(self, rb, state, ops):
        return ops.run(
            "replication_study", rb.backtest.replication_study, state["config"], self.generator,
            self.LENGTH, self.REPLICATIONS, self.seed, reference="gaussian_unbiased",
            table=state["table"], keep_samples=True,
            failed=lambda s: any(m.failures for m in s.methods.values()),
        )

    def check_round(self, summary):
        if summary is None:
            return
        require(summary.replications == self.REPLICATIONS, "replication count")
        stats = summary.methods
        ref = stats["gaussian_unbiased"]
        se = ref.er_sd / math.sqrt(self.REPLICATIONS)
        require(abs(ref.er_mean - ALPHA) <= 4 * se,
                f"gaussian_unbiased er_mean {ref.er_mean!r} is not within 4 se ({se:.2e}) of {ALPHA}")
        for m in ("gaussian", "empirical"):
            se_m = stats[m].er_sd / math.sqrt(self.REPLICATIONS)
            require(stats[m].er_mean > ALPHA + 4 * se_m,
                    f"{m} er_mean {stats[m].er_mean!r} is not above {ALPHA} by 4 se ({se_m:.2e})")
        er = summary.samples["gaussian_unbiased"]["er"]
        for i, (count, ties, points) in self.er_checks.items():
            require(abs(er[i] * points - count) <= ties + 1e-6,
                    f"replication {i}: ER {er[i]!r}, reference {count}/{points}")
        # seeded results are bit-identical from round to round
        rates = {m: summary.samples[m]["er"] for m in self.METHODS}
        if self.first is None:
            self.first = rates
        for m in self.METHODS:
            require(np.array_equal(rates[m], self.first[m], equal_nan=True),
                    f"{m}: exceedance rates changed between rounds")

    def summary(self, round_s, op_s):
        return {"replications_per_s": self.items_per_round / round_s}


def _clear_constant_cache(rb):
    """Empty the in-process caches of the a_n solver, as a fresh process starts."""
    for value in vars(rb.calibration).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


class UnbiasednessMc(Workload):
    name = "unbiasedness_mc"
    why = ("the paper's defining checks: MC exceedance and secured-position ES, uncached "
           "exact a_n solves and calibrate at its defaults")
    item = "simulated estimation windows"
    N = WINDOW
    TRIALS = 200_000
    METHODS = ("gaussian_unbiased", "gaussian")
    SOLVES = ((2, 0.05), (5, 0.01), (10, 0.10), (50, 0.05), (100, 0.025), (250, 0.025), (1000, 0.01))
    items_per_round = 3 * len(METHODS) * TRIALS  # two pivotality checks and one ES check each

    def make_inputs(self):
        mu, sigma = self.rng.uniform(-2.0, 2.0), self.rng.uniform(0.25, 4.0)
        self.params = ((0.0, 1.0), (float(mu), float(sigma)))
        self.mc_seeds = [int(s) for s in self.rng.integers(0, 2**32, 6)]

    def reference(self, rb, state):
        self.gauss = [rb.estimators.GaussianParams(*p) for p in self.params]
        self.table_path = state["table_path"]
        self.argv = ["calibrate", "--n", str(self.N), "--alpha", repr(ALPHA),
                     "--table", str(self.table_path)]
        self.verified = {}  # (n, alpha) -> the a_n verified by quadrature
        exact = state["table"].lookup(self.N, ALPHA)
        self._verify_constant(self.N, ALPHA, exact.a_n, exact.b_n)
        sigma = self.params[1][1]
        plugin_a = -stats.norm.pdf(stats.norm.ppf(ALPHA)) / ALPHA  # plug-in ES: -mean + sd*phi(z)/alpha
        self.es_se = {
            "gaussian_unbiased": refs.secured_es_standard_error(self.N, ALPHA, exact.a_n, sigma, self.TRIALS),
            "gaussian": refs.secured_es_standard_error(self.N, ALPHA, plugin_a, sigma, self.TRIALS),
        }
        self.calibrate_se = None

    def _verify_constant(self, n, alpha, a_n, b_n):
        if (n, alpha) not in self.verified:
            refs.check_exact_constant(n, alpha, a_n, b_n, f"a_{n}({alpha})")
            self.verified[(n, alpha)] = a_n
        require(a_n == self.verified[(n, alpha)], f"a_{n}({alpha}) changed between solves: {a_n!r}")

    def run_round(self, rb, state, ops):
        out = {}
        seeds = iter(self.mc_seeds)
        for method in self.METHODS:
            for p, params in enumerate(self.gauss):
                out["pivotality", method, p] = ops.run(
                    "mc", rb.calibration.pivotality_check, method, self.N, ALPHA, self.TRIALS,
                    next(seeds), params)
        for method in self.METHODS:
            out["secured_es", method] = ops.run(
                "mc", rb.calibration.secured_position_es, method, self.N, ALPHA, self.TRIALS,
                next(seeds), self.gauss[1], state["table"])
        for n, alpha in self.SOLVES:
            _clear_constant_cache(rb)
            out["solve", n, alpha] = ops.run("solve", rb.calibration.exact_unbiased_es_constant, n, alpha)
        _clear_constant_cache(rb)
        quiet, stdout = _quiet()
        with quiet:
            code = ops.run("calibrate", rb.cli.main, self.argv, failed=bool)
        out["calibrate"] = None if code is None else stdout.getvalue()
        return out

    def check_round(self, out):
        se = math.sqrt(ALPHA * (1 - ALPHA) / self.TRIALS)
        for p in range(len(self.params)):
            check = out["pivotality", "gaussian_unbiased", p]
            if check is not None:
                require(abs(check.frequency - ALPHA) <= 4 * se,
                        f"gaussian_unbiased at {self.params[p]}: exceedance frequency "
                        f"{check.frequency!r} is not within 4 se ({se:.2e}) of {ALPHA}")
            check = out["pivotality", "gaussian", p]
            if check is not None:
                se_g = math.sqrt(check.frequency * (1 - check.frequency) / self.TRIALS)
                require(check.frequency > ALPHA + 4 * se_g,
                        f"gaussian at {self.params[p]}: exceedance frequency {check.frequency!r} "
                        f"is not above {ALPHA} by 4 se ({se_g:.2e})")
        unbiased, plugin = out["secured_es", "gaussian_unbiased"], out["secured_es", "gaussian"]
        if unbiased is not None:
            require(abs(unbiased) <= 4 * self.es_se["gaussian_unbiased"],
                    f"secured-position ES of unbiased ES {unbiased!r} is not within 4 se "
                    f"({self.es_se['gaussian_unbiased']:.2e}) of 0")
        if plugin is not None:
            require(plugin > 4 * self.es_se["gaussian"],
                    f"secured-position ES of plug-in ES {plugin!r} is not positive by 4 se")
        for n, alpha in self.SOLVES:
            entry = out["solve", n, alpha]
            if entry is not None:
                self._verify_constant(n, alpha, entry.a_n, entry.b_n)
        if out["calibrate"] is not None:
            self._check_calibrate(out["calibrate"])

    def _check_calibrate(self, stdout):
        lines = stdout.splitlines()
        require(len(lines) == 2 and lines[1].startswith("mc_check "),
                f"calibrate printed {stdout!r}")
        printed = dict(kv.split("=", 1) for kv in lines[0].split())
        mc = dict(kv.split("=", 1) for kv in lines[1].split()[1:])
        a_n, b_n = float(printed["a_n"]), float(printed["b_n"])
        self._verify_constant(self.N, ALPHA, a_n, b_n)
        with open(self.table_path, encoding="utf-8") as fh:
            stored = [e for e in json.load(fh)["entries"]
                      if e["n"] == self.N and e["alpha"] == ALPHA]
        require(len(stored) == 1 and stored[0]["a_n"] == a_n,
                f"calibrate stored {stored!r}, printed a_n={a_n!r}")
        samples = int(mc["samples"])
        if self.calibrate_se is None:
            self.calibrate_se = refs.mc_constant_standard_error(self.N, ALPHA, b_n, samples)
        diff = float(mc["a_n"]) - a_n
        require(abs(diff) <= 4 * self.calibrate_se,
                f"calibrate MC cross-check is {diff:+.3e} from a_n, beyond 4 se "
                f"({self.calibrate_se:.2e})")

    def summary(self, round_s, op_s):
        return {"mc_trials_per_s": self.items_per_round / op_s["mc"],
                "an_solves_per_s": len(self.SOLVES) / op_s["solve"],
                "calibrate_s": op_s["calibrate"]}


WORKLOADS = {w.name: w for w in (BacktestCsv, BacktestFitted, Replicate, UnbiasednessMc)}
