"""Program-side preparation of each workload: the work counted as set-up time.

Set-up is the import of ``riskbench`` plus what the program must compute before
the first timed operation, such as the exact a_n entries and the calibration
table file. The benchmark's own input generation is not part of it.

This module imports only the standard library, so a fresh interpreter can
import it before its set-up clock starts: the clock then covers the import of
``riskbench`` together with numpy and scipy, as a user's command pays them.
"""
from __future__ import annotations

import importlib
import types
from pathlib import Path

WINDOW = 50
ALPHA = 0.05
# every VaR method, and the six that have an ES form
VAR_METHODS = (
    "empirical", "empirical_simple", "gaussian", "cornish_fisher", "student_t",
    "gpd", "kde", "gaussian_unbiased", "mean",
)
ES_METHODS = ("gaussian", "gaussian_unbiased", "empirical", "cornish_fisher", "gpd", "mean")
# the paper's replication design: the unbiased reference and four competitors
REPLICATE_METHODS = ("gaussian_unbiased", "gaussian", "empirical", "cornish_fisher", "gpd")
MODULES = ("cli", "data_io", "estimators", "backtest", "calibration", "stats_core")


def import_program() -> types.SimpleNamespace:
    """Import ``riskbench`` and return its modules by short name.

    Workloads call the program through these module objects, so a traced run
    that rebinds a module attribute sees every call made through that name.
    """
    importlib.import_module("riskbench")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"riskbench.{name}") for name in MODULES}
    )


def _exact_table(rb):
    table = rb.calibration.CalibrationTable()
    table.add(rb.calibration.exact_unbiased_es_constant(WINDOW, ALPHA))
    return table


def prepare(workload: str, rb, workdir: Path) -> dict:
    """Build the program-side state a workload's rounds use."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "backtest_csv":
        table_path = workdir / "table.json"
        _exact_table(rb).save(table_path)
        return {"table_path": table_path}
    if workload == "backtest_fitted":
        config = rb.backtest.BacktestConfig(alpha=ALPHA, methods=VAR_METHODS, window=WINDOW)
        return {"config": config}
    if workload == "replicate":
        config = rb.backtest.BacktestConfig(
            alpha=ALPHA, methods=REPLICATE_METHODS, window=WINDOW, measure="both"
        )
        return {"config": config, "table": _exact_table(rb)}
    if workload == "unbiasedness_mc":
        table = _exact_table(rb)
        table_path = workdir / "calibrate_table.json"
        table.save(table_path)
        return {"table": table, "table_path": table_path}
    raise ValueError(f"unknown workload {workload!r}")
