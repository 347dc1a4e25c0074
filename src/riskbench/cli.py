"""Command-line front-end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric/calibration
error. Results go to stdout, diagnostics to stderr. Unbiased ES reads the
exact a_n, so no command needs a calibration table; ``--table`` names a table
whose stored entries take precedence. Only ``calibrate`` creates a table file
that does not exist; the other commands fail on a missing one (exit 2).

``backtest`` and ``replicate`` share one set of options and build their
:class:`BacktestConfig` the same way. Reports are rendered by
``data_io.REPORT_FORMATS`` for stdout and ``--out`` alike, and every file a
command writes goes through ``data_io.write_text``, so a path that cannot be
written ends in one ``error:`` line and exit 2.
"""
from __future__ import annotations

import argparse
import sys

from . import estimators
from .backtest import BacktestConfig, replication_study, rolling_backtest
from .calibration import (
    DEFAULT_MC_SAMPLES,
    CalibrationTable,
    exact_unbiased_es_constant,
    solve_unbiased_es_constant,
)
from .data_io import (
    REPORT_FORMATS,
    SCALES,
    load_returns_csv,
    simulate_series,
    write_report,
    write_text,
)
from .errors import ConfigError, DataError, IngestionError, OutputError, RiskbenchError, SizeError
from .estimators import GaussianParams, canonical_method

# the first matching entry gives the exit code; numeric and calibration errors exit 3
_EXIT_CODES = (
    (ConfigError, 1),
    ((IngestionError, DataError, SizeError, OutputError), 2),
    (RiskbenchError, 3),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbench",
        description="Value-at-Risk / Expected Shortfall estimation, calibration and backtesting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    cal = sub.add_parser(
        "calibrate", formatter_class=fmt,
        help="compute the exact unbiased ES constant and cross-check it by Monte Carlo",
        description="Compute the unbiased ES constant a_n exactly by quadrature, store it, "
                    "and print a Monte Carlo solve of the same condition as a cross-check.",
    )
    cal.add_argument("--n", type=int, required=True, help="estimation window length")
    cal.add_argument("--alpha", type=float, required=True, help="risk level in (0,1)")
    cal.add_argument("--mc", type=int, default=DEFAULT_MC_SAMPLES, metavar="SAMPLES",
                     help="sample size of the Monte Carlo cross-check (the stored a_n is exact)")
    cal.add_argument("--seed", type=int, default=0, help="seed of the Monte Carlo cross-check")
    cal.add_argument("--table", help="calibration table path to update with the exact a_n")

    est = sub.add_parser("estimate", formatter_class=fmt, help="estimate VaR/ES on a CSV column")
    est.add_argument("--input", required=True, help="CSV file with a header row")
    est.add_argument("--column", required=True, help="column to read")
    est.add_argument("--scale", choices=SCALES, required=True, help="unit of the input returns")
    est.add_argument("--method", required=True, help="comma-separated method tags")
    est.add_argument("--measure", choices=("var", "es"), required=True, help="risk measure")
    est.add_argument("--alpha", type=float, required=True, help="risk level in (0,1)")
    est.add_argument("--table", help="calibration table whose entries replace the exact a_n")
    est.add_argument("--gpd-q", type=float, default=0.3, help="GPD threshold quantile on returns")

    # the options backtest and replicate share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mu", type=float, default=0.0, help="simulation mean")
    common.add_argument("--sigma", type=float, default=1.0, help="simulation sd")
    common.add_argument("--seed", type=int, default=0, help="simulation seed")
    common.add_argument("--window", type=int, default=50, help="window length")
    common.add_argument("--alpha", type=float, required=True, help="risk level in (0,1)")
    common.add_argument("--methods", required=True, help="comma-separated method tags")
    common.add_argument("--measure", choices=("var", "es", "both"), default="var",
                        help="risk measure")
    common.add_argument("--gpd-q", type=float, default=0.3, help="GPD threshold quantile on returns")
    common.add_argument("--table", help="calibration table whose entries replace the exact a_n")
    common.add_argument("--out", help="write the report to this path")
    common.add_argument("--format", choices=REPORT_FORMATS, default="table",
                        help="output format")

    bt = sub.add_parser("backtest", parents=[common], formatter_class=fmt,
                        help="rolling-window backtest")
    src = bt.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV file with a header row")
    src.add_argument("--simulate", action="store_true", help="backtest a simulated Gaussian series")
    bt.add_argument("--column", help="column to read (with --input)")
    bt.add_argument("--scale", choices=SCALES, help="unit of the input returns (with --input)")
    bt.add_argument("--length", type=int, default=4000, help="simulated series length")

    sim = sub.add_parser("simulate", formatter_class=fmt, help="write a simulated Gaussian series")
    sim.add_argument("--mu", type=float, required=True, help="mean")
    sim.add_argument("--sigma", type=float, required=True, help="standard deviation")
    sim.add_argument("--length", type=int, required=True, help="series length")
    sim.add_argument("--seed", type=int, default=0, help="random seed")
    sim.add_argument("--out", help="CSV output path (stdout when omitted)")

    rep = sub.add_parser("replicate", parents=[common], formatter_class=fmt,
                         help="simulated backtests; replication i draws stream i of --seed")
    rep.add_argument("--reps", type=int, required=True, help="number of replications")
    rep.add_argument("--length", type=int, required=True, help="series length per replication")
    rep.add_argument("--reference", default="gaussian_unbiased", help="RD/OR reference method")
    return parser


def _split_methods(raw: str) -> tuple:
    tags = [t for t in (part.strip() for part in raw.split(",")) if t]
    if not tags:
        raise ConfigError("at least one method tag is required")
    return tuple(canonical_method(t) for t in tags)


def _cmd_calibrate(args) -> int:
    table = CalibrationTable.load_or_new(args.table) if args.table else None
    entry = exact_unbiased_es_constant(args.n, args.alpha)
    check = solve_unbiased_es_constant(args.n, args.alpha, args.mc, args.seed)
    if table is not None:
        table.add(entry)
        table.save(args.table)
        print(f"saved entry to {args.table}", file=sys.stderr)
    print(
        f"n={entry.n} alpha={entry.alpha:g} a_n={entry.a_n!r} b_n={entry.b_n!r} "
        f"source={entry.source} residual={entry.residual:.3e}"
    )
    print(
        f"mc_check a_n={check.a_n!r} diff={check.a_n - entry.a_n:+.3e} "
        f"samples={check.mc_samples} seed={check.seed} residual={check.residual:.3e}"
    )
    return 0


def _cmd_estimate(args) -> int:
    methods = _split_methods(args.method)
    series = load_returns_csv(args.input, args.column, args.scale)
    table = CalibrationTable.load(args.table) if args.table else None
    print(f"series={series.name} n={len(series)} measure={args.measure} alpha={args.alpha:g}")
    for method in methods:
        capital = estimators.estimate(
            method, series.values, args.alpha, args.measure,
            gpd_threshold_quantile=args.gpd_q, table=table,
        )
        print(f"{method:18s} {args.measure:3s} capital={capital!r}")
    return 0


def _config(args) -> BacktestConfig:
    return BacktestConfig(
        alpha=args.alpha,
        methods=_split_methods(args.methods),
        window=args.window,
        measure=args.measure,
        gpd_threshold_quantile=args.gpd_q,
    )


def _emit(obj, args) -> None:
    if args.out:  # a file written in the table format holds JSON
        write_report(obj, args.out, "json" if args.format == "table" else args.format)
        print(f"wrote {args.out}", file=sys.stderr)
    else:  # stdout ends every format with one newline
        print(getattr(obj, REPORT_FORMATS[args.format])().rstrip("\n"))


def _cmd_backtest(args) -> int:
    config = _config(args)
    if args.input:
        if not args.column or not args.scale:
            raise ConfigError("--input requires --column and --scale")
        series = load_returns_csv(args.input, args.column, args.scale)
    else:
        series = simulate_series(GaussianParams(args.mu, args.sigma), args.length, args.seed)
    table = CalibrationTable.load(args.table) if args.table else None
    _emit(rolling_backtest(series, config, table), args)
    return 0


def _cmd_simulate(args) -> int:
    series = simulate_series(GaussianParams(args.mu, args.sigma), args.length, args.seed)
    lines = ["ret"] + [repr(float(v)) for v in series.values]
    text = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, text, "series")
        print(f"wrote {args.out} ({series.name})", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_replicate(args) -> int:
    summary = replication_study(
        _config(args),
        GaussianParams(args.mu, args.sigma),
        args.length,
        args.reps,
        args.seed,
        reference=canonical_method(args.reference) if args.reference else None,
        table=CalibrationTable.load(args.table) if args.table else None,
    )
    _emit(summary, args)
    return 0


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "estimate": _cmd_estimate,
    "backtest": _cmd_backtest,
    "simulate": _cmd_simulate,
    "replicate": _cmd_replicate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return 0 if not exc.code else 1
    try:
        return _COMMANDS[args.command](args)
    except RiskbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
