"""Span recorder for the traced run.

The tracer rebinds, for the length of a traced round, the names through which
one module of ``riskbench`` calls another (``riskbench.backtest.window_stats``,
``riskbench.cli.load_returns_csv``, ...) to wrappers that record a span per
call. Spans are kept in memory as ``(id, parent, round, name, start, end)`` and
written out when the run ends. A span's self time is its duration minus the
durations of the spans directly beneath it, so the self times of one round add
up to the round's root span.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _method(args, kwargs):
    return _arg(args, kwargs, 0, "method")


def _failed_methods(report):
    return sum(1 for r in report.methods.values() if r.failed)


def _failed_replications(summary):
    return sum(s.failures for s in summary.methods.values())


# (module, attribute, span name, span-name suffix from the arguments, counts from the call)
# A module appears once per caller: the wrapper sits on the name the caller looks up.
_BACKTEST = ("backtest.rolling_backtest", None,
             lambda a, k, r: {"backtest.rolling_backtest.calls": 1,
                              "estimators.method_failures": _failed_methods(r)})
_REPLICATE = ("backtest.replication_study", None,
              lambda a, k, r: {"estimators.method_failures": _failed_replications(r)})
_WINDOW_STATS = ("estimators.window_stats", None,
                 lambda a, k, r: {"estimators.window_stats.rows": r.windows.shape[0]})
_EXACT = ("calibration.exact_unbiased_es_constant", None,
          lambda a, k, r: {"calibration.exact_unbiased_es_constant.calls": 1})
PATCHES = (
    ("cli", "main", "cli.main", None, None),
    ("cli", "load_returns_csv", "data_io.load_returns_csv", None,
     lambda a, k, r: {"data_io.load_returns_csv.rows": len(r)}),
    ("cli", "write_report", "data_io.write_report", None,
     lambda a, k, r: {"data_io.write_report.bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("cli", "rolling_backtest", *_BACKTEST),
    ("cli", "replication_study", *_REPLICATE),
    ("cli", "exact_unbiased_es_constant", *_EXACT),
    ("cli", "solve_unbiased_es_constant", "calibration.solve_unbiased_es_constant", None,
     lambda a, k, r: {"calibration.solve_unbiased_es_constant.samples": r.mc_samples}),
    ("backtest", "rolling_backtest", *_BACKTEST),
    ("backtest", "replication_study", *_REPLICATE),
    ("backtest", "window_stats", *_WINDOW_STATS),
    ("backtest", "batch_var_capitals", "estimators.batch_var_capitals", _method, None),
    ("backtest", "batch_es_capitals", "estimators.batch_es_capitals", _method, None),
    ("backtest", "bias_statistic", "backtest.bias_statistic", None, None),
    ("backtest", "acerbi_z", "backtest.acerbi_z", None, None),
    ("backtest", "mean_score", "backtest.mean_score", None, None),
    ("backtest", "draw_gaussian", "stats_core.draw_gaussian", None,
     lambda a, k, r: {"stats_core.draw_gaussian.draws": r.size}),
    ("estimators", "fit_student_t", "estimators.fit_student_t", None,
     lambda a, k, r: {"estimators.fit_student_t.calls": 1}),
    ("calibration", "window_stats", *_WINDOW_STATS),
    ("calibration", "batch_var_capitals", "estimators.batch_var_capitals", _method, None),
    ("calibration", "batch_es_capitals", "estimators.batch_es_capitals", _method, None),
    ("calibration", "draw_pivotal_pairs", "stats_core.draw_pivotal_pairs", None,
     lambda a, k, r: {"stats_core.draw_pivotal_pairs.draws": r[0].size}),
    ("calibration", "exact_unbiased_es_constant", *_EXACT),
    ("calibration", "pivotality_check", "calibration.pivotality_check", None,
     lambda a, k, r: {"calibration.trials": r.trials}),
    ("calibration", "secured_position_es", "calibration.secured_position_es", None,
     lambda a, k, r: {"calibration.trials": _arg(a, k, 3, "trials")}),
)
# classmethods are rebound on the class, which every module shares
CLASS_PATCHES = (("calibration", "CalibrationTable", "load", "calibration.CalibrationTable.load"),)


class Tracer:
    """Records spans and counts while installed on the program's modules."""

    def __init__(self, rb):
        self._rb = rb
        self._saved: list = []
        self._stack: list = []  # [span id, name, start, time covered by children]
        self._next_id = 0
        self.round = -1
        self.spans: list = []
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        span_id, name, start, children = self._stack.pop()
        duration = end - start
        self.busy[name] += duration
        self.self_time[name] += duration - children
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.round, name, start, end))

    @contextlib.contextmanager
    def root(self, name):
        """A round's root span."""
        self.round += 1
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _wrap(self, fn, name, suffix, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name if suffix is None else f"{name}.{suffix(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self):
        for module, attr, name, suffix, counts in PATCHES:
            owner = getattr(self._rb, module)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, suffix, counts))
        for module, cls_name, attr, name in CLASS_PATCHES:
            cls = getattr(getattr(self._rb, module), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._wrap(original.__func__, name, None, None)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path):
        """Write every span: id, parent, round, name, start and end in seconds."""
        fields = ("id", "parent", "round", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
