"""riskbench's benchmark: one seeded workload per call, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. It imports ``riskbench`` from ``src/``,
makes the workload's inputs from the seed, measures set-up in fresh
interpreters, runs whole rounds of the workload for ``--seconds`` seconds and
checks every round's outputs. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` rounds alternate between untraced and traced, and the metrics are
the per-layer ones, per traced round, with the tracing overhead.
Generated files go to ``perfbench/_work/``.
"""
from __future__ import annotations

import os

# one process with no extra threads, set before numpy loads its libraries
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import prep  # noqa: E402  (standard library only)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_ROUNDS = 3

SETUP_CHILD = """\
import sys, time
sys.path[:0] = {paths!r}
import prep
start = time.perf_counter()
rb = prep.import_program()
prep.prepare({workload!r}, rb, {workdir!r})
print(repr(time.perf_counter() - start))
"""

# per-layer metrics: <module>.<function>.<quantity>, per traced round
PER_LAYER = (
    "data_io.load_returns_csv.s", "data_io.load_returns_csv.rows",
    "data_io.write_report.s", "data_io.write_report.bytes",
    "cli.main.self_s",
    "estimators.window_stats.s", "estimators.window_stats.rows",
    *(f"estimators.batch_var_capitals.{m}.s" for m in prep.VAR_METHODS),
    *(f"estimators.batch_es_capitals.{m}.s" for m in prep.ES_METHODS),
    "estimators.fit_student_t.s", "estimators.fit_student_t.calls", "estimators.method_failures",
    "backtest.rolling_backtest.s", "backtest.rolling_backtest.self_s",
    "backtest.rolling_backtest.calls", "backtest.bias_statistic.s", "backtest.acerbi_z.s",
    "backtest.mean_score.s", "backtest.replication_study.self_s",
    "calibration.exact_unbiased_es_constant.s", "calibration.exact_unbiased_es_constant.calls",
    "calibration.solve_unbiased_es_constant.s", "calibration.solve_unbiased_es_constant.samples",
    "calibration.CalibrationTable.load.s",
    "calibration.pivotality_check.self_s", "calibration.secured_position_es.self_s",
    "calibration.trials",
    "stats_core.draw_gaussian.s", "stats_core.draw_gaussian.draws",
    "stats_core.draw_pivotal_pairs.s", "stats_core.draw_pivotal_pairs.draws",
    "bench.round.self_s",
)
# the traced round's wall time, the sum of all self times, and traced against untraced time
TRACE_TOTALS = ("trace.wall_s", "trace.self_sum_s", "trace.overhead_pct")
ROOT_SPAN = "bench.round"


def per_layer_unit(name: str) -> str:
    if name == "trace.overhead_pct":
        return "%"
    if name.endswith("_s") or name.endswith(".s"):
        return "s/round"
    if name.endswith(".bytes"):
        return "B/round"
    return "count/round"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, workdir: Path) -> list:
    """Set-up time of ``SETUP_REPEATS`` fresh interpreters, one after the other."""
    env = dict(os.environ)
    times = []
    for i in range(SETUP_REPEATS):
        # a directory of its own: each set-up writes a new table file, none overwrites one
        code = SETUP_CHILD.format(paths=[str(SRC), str(HERE)], workload=workload,
                                  workdir=str(workdir / "setup" / str(i)))
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def per_layer_metrics(tracer, rounds: int, traced_s: list, plain_s: list) -> dict:
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            total = tracer.self_time[name[: -len(".self_s")]]
        elif name.endswith(".s"):
            total = tracer.busy[name[: -len(".s")]]
        else:
            total = tracer.counts[name]
        values[name] = total / rounds
    values["trace.wall_s"] = tracer.busy[ROOT_SPAN] / rounds
    values["trace.self_sum_s"] = sum(tracer.self_time.values()) / rounds
    plain = statistics.median(plain_s)
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) - plain) / plain
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "riskbench" / "__init__.py").is_file():
        print(f"error: no riskbench package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from refs import CheckFailed
    from tracer import Tracer
    from workloads import WORKLOADS, Ops

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = HERE / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    rb = prep.import_program()
    loaded = Path(rb.cli.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"error: riskbench was imported from {loaded}, not from {SRC}", file=sys.stderr)
        return 2
    # before the inputs are made, so that work cannot overlap the set-up clock
    setup_s = measure_setup(args.workload, workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.make_inputs()
    state = prep.prepare(args.workload, rb, workdir / "program")

    failures = []

    def checked(step, *step_args) -> bool:
        try:
            step(*step_args)
        except CheckFailed as exc:
            failures.append(str(exc))
            print(f"check failed: {exc}", file=sys.stderr)
            return False
        return True

    # round checks compare against the references, so they need all of them
    references_ok = checked(workload.reference, rb, state)
    ops = Ops()
    tracer = Tracer(rb) if args.trace else None
    plain_s, traced_s, op_rounds = [], [], []

    def one_round(traced: bool, timed: bool = True):
        workload.before_round()
        ops.round_times.clear()
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                with tracer.root(ROOT_SPAN):
                    out = workload.run_round(rb, state, ops)
            else:
                out = workload.run_round(rb, state, ops)
            elapsed = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        if timed:
            (traced_s if traced else plain_s).append(elapsed)
            if not traced:
                op_rounds.append(dict(ops.round_times))
        if references_ok:
            checked(workload.check_round, out)

    one_round(traced=False, timed=False)  # warm-up: checked and counted, not timed
    deadline = time.perf_counter() + args.seconds
    while True:
        one_round(traced=bool(args.trace) and len(plain_s) > len(traced_s))
        if (time.perf_counter() >= deadline and len(plain_s) >= MIN_ROUNDS
                and (not args.trace or len(traced_s) >= MIN_ROUNDS)):
            break

    round_s = statistics.median(plain_s)
    op_s = {label: statistics.median(r[label] for r in op_rounds) for label in op_rounds[0]}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics = per_layer_metrics(tracer, len(traced_s), traced_s, plain_s)
        units = {name: per_layer_unit(name) for name in metrics}
        tracer.dump(workdir / "spans.json")
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "items_per_s": workload.items_per_round / round_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

    figures = workload.summary(round_s, op_s)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "item": workload.item, "items_per_round": workload.items_per_round,
        "setup_s": setup_s, "plain_round_s": plain_s, "traced_round_s": traced_s,
        "op_median_s": op_s, "figures": figures, "peak_rss_mb": peak_rss_mb,
        "check_failures": failures[:20], "attempted": ops.attempted, "failed": ops.failed,
        "metrics": metrics,
    }
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for path in workdir.glob("*.csv"):
        path.unlink()

    print(f"# {args.workload} seed={args.seed}: {len(plain_s)} untraced and {len(traced_s)} "
          f"traced rounds, median round {round_s:.4f} s, {workload.items_per_round} "
          f"{workload.item} per round")
    print("# " + " ".join(f"{k}={v:.6g}" for k, v in figures.items()))
    print(json.dumps({
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
