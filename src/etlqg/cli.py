"""Experiment runner CLI.

Subcommands:
  run <config>          analytic sweep + Monte Carlo validation, artifacts on disk
  analyze-only <config> analytic sweep only (fast path)
  validate <config>     parse config, build model, print the validation report

Artifacts (under the output directory, written atomically):
  tradeoff.csv          one row per lambda: analytic and empirical rate/cost
  analysis_<lam>.json   per-lambda chain analysis and cost breakdown (repr(lam))
  manifest.json         full config echo (re-ingestable as a config) + tool info
  plot.gp               optional gnuplot script (emit_plot_data / --plot-script)
  trace_*.csv           optional per-run step traces (simulation.record_trace)

Exit codes: 0 success, 1 invalid config, 2 model validation failure,
3 numerical non-convergence or divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ExperimentConfig, config_from_dict, config_to_dict,
                     default_config_path, load_config)
from .control import control_steady_state, cost_tradeoff_curve
from .errors import (ConfigError, ConvergenceError, DivergenceError, EtlqgError,
                     ModelError, NumericalError, ValidationFailure)
from .estimation import kf_steady_state
from .analysis import analysis_record
from .model import SchedulerParams, validate_model
# run_closed_loop is not called here, but bench/traced_cli.py wraps it
# under this module's name
from .simulation import (SimConfig, TraceBlock, aggregate_runs,  # noqa: F401
                         lambda_groups, run_closed_loop, run_closed_loop_grid)

TRADEOFF_HEADER = ("lambda,analytic_rate,empirical_rate,rate_stderr,"
                   "analytic_cost,empirical_cost,cost_stderr")
# A sweep splits an untraced group's runs across worker processes only when
# that saves more than a worker's start: a spawn round trip (start, import
# numpy and etlqg, return) took 0.40-0.46 s on a 2-vCPU host, where the
# bundled-model sweep broke even near 8e6 lambda-run-steps (13 x 32 x 20000:
# 2.9 s either way; 13 x 64 x 20000: 4.8 s -> 3.8 s). The tier-1 CLI tests
# and the small CI smoke run stay in-process.
_SPLIT_MIN_RUN_STEPS = 8_000_000


def _fmt(value) -> str:
    """17-significant-digit cell; empty for missing values."""
    if value is None:
        return ""
    return f"{float(value):.17g}"


@contextlib.contextmanager
def _replacing(paths):
    """Yield a fresh .part file name beside each of paths.

    When the block ends, each .part file replaces its path; on any error
    they are all removed. tempfile names them, so a stale .part file or one
    of a concurrent run is never written, and given open()'s mode.
    """
    umask = os.umask(0o022)
    os.umask(umask)
    parts = []
    try:
        for path in paths:
            fd, part = tempfile.mkstemp(dir=path.parent,
                                        prefix=path.name + ".", suffix=".part")
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp's is owner-only
            os.close(fd)
            parts.append(part)
        yield parts
        for part, path in zip(parts, paths):
            os.replace(part, path)
    except BaseException:
        for part in parts:
            with contextlib.suppress(OSError):
                os.unlink(part)
        raise


def _write_atomic(path: Path, *parts: str):
    """Write the concatenated parts to path atomically."""
    with _replacing([path]) as (part,), open(part, "w", newline="") as fh:
        fh.writelines(parts)


def _trace_csv(trace, n: int, m: int, start: int = 0) -> str:
    """Trace CSV rows of steps start, start + 1, ... of one run.

    trace holds sigma, tau, x, u and e_filt indexed by step - start: a
    SimulationTrace, or one run of a TraceBlock. The header comes first
    when start is 0. k, sigma and tau are '%d' cells and the rest '%.17g'
    cells, the bytes of _fmt (see csvtext). The CLI passes one block of
    rows at a time, which bounds the memory of the formatting.
    """
    # imported here, so that runs without traces do not load the formatter
    from .csvtext import format_rows

    rows = trace.sigma.shape[0]
    header = ""
    if start == 0:
        cols = (["k", "sigma", "tau"] + [f"x{i + 1}" for i in range(n)]
                + [f"u{i + 1}" for i in range(m)] + [f"e{i + 1}" for i in range(n)])
        header = ",".join(cols) + "\n"
    ints = np.column_stack([np.arange(start, start + rows), trace.sigma,
                            trace.tau])
    floats = np.column_stack([trace.x, trace.u, trace.e_filt])
    return header + format_rows(ints, floats)


def _format_block(block: TraceBlock, n: int, m: int):
    """The trace CSV text of block's steps for each run, lambda-major.

    A generator: one run's text is formatted at a time.
    """
    _, group, runs = block.sigma.shape
    return (_trace_csv(TraceBlock(block.start, block.sigma[:, g, r],
                                  block.tau[:, g, r], block.x[:, g, r],
                                  block.u[:, g, r], block.e_filt[:, g, r]),
                       n, m, block.start)
            for g in range(group) for r in range(runs))


def _processes(sim_cfg: SimConfig, lams: int) -> int:
    """Processes that share the runs of an untraced group of lams lambdas.

    One per core, if the group reaches _SPLIT_MIN_RUN_STEPS and a spawned
    worker can start. numpy rounds a one-row matmul on another kernel than
    the full grid's, so every slice keeps at least 2 runs; then the joined
    slices equal the unsplit grid bitwise.
    """
    runs = sim_cfg.runs
    if lams * runs * sim_cfg.horizon < _SPLIT_MIN_RUN_STEPS:
        return 1
    # spawn starts each worker by running __main__'s file again, unless it
    # ran as a module; a script read from stdin ('<stdin>') has no file
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if (getattr(main, "__spec__", None) is None and path is not None
            and not os.path.isfile(path)):
        return 1
    cores = len(os.sched_getaffinity(0))
    return max(1, min(cores, runs // 2))


def _run_slices(sim_cfg: SimConfig, lams: int) -> list[range]:
    """Contiguous slices of range(runs), one per process simulating a group."""
    runs = sim_cfg.runs
    k = _processes(sim_cfg, lams)
    return [range(i * runs // k, (i + 1) * runs // k) for i in range(k)]


def _worker_pool(workers: int):
    # imported here, so that analyze-only and unsplit runs load no pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawn, not fork: this process holds BLAS threads
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("spawn"))


def _simulate_slice(sim_cfg: SimConfig, filt, ctrl, group, runs: range):
    """Rates and costs of one slice of an untraced group's runs.

    This is the work a sweep gives each process, in-process or in a spawned
    worker.
    """
    return run_closed_loop_grid(sim_cfg, filt, ctrl, group, runs)[:2]


def _simulate_group(pool, sim_cfg: SimConfig, filt, ctrl, group,
                    slices: list[range]):
    """Simulate slices[0] here and the other slices in pool; join in run order.

    Returns the (rates, costs) of the whole untraced group. If slices
    diverge, raises the error the unsplit grid raises: the earliest step,
    then the largest |x|, then the first lambda, then the first run.
    """
    futures = [pool.submit(_simulate_slice, sim_cfg, filt, ctrl, group, runs)
               for runs in slices[1:]]
    parts, errors = [], []
    for job in ([lambda: _simulate_slice(sim_cfg, filt, ctrl, group, slices[0])]
                + [future.result for future in futures]):
        try:
            parts.append(job())
        except DivergenceError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda e: (e.step, -e.value, group.index(e.lam),
                                         e.run))
    return (np.concatenate([part[0] for part in parts], axis=1),
            np.concatenate([part[1] for part in parts], axis=1))


def _simulate_traced(sim_cfg: SimConfig, filt, ctrl, group, paths):
    """Simulate a traced group here, writing each run's trace CSV to its path.

    paths are the trace files of the group's runs, lambda-major. Each
    TraceBlock is formatted one run at a time once simulated, and each run's
    text is appended to that run's .part file, so this process holds one
    block and one run's text. Every file is replaced when the group ends;
    on any error, as on a divergence, none is (see _replacing).
    Returns the group's (rates, costs).
    """
    n, m, _ = sim_cfg.model.dims
    with _replacing(paths) as parts:
        def on_block(block):
            for part, text in zip(parts, _format_block(block, n, m)):
                with open(part, "a", newline="") as fh:
                    fh.write(text)

        rates, costs, _ = run_closed_loop_grid(sim_cfg, filt, ctrl, group,
                                               on_block=on_block)
    return rates, costs


def _plot_script() -> str:
    return """set datafile separator ','
set logscale x
set key left top
set terminal pngcairo size 900,400
set output 'tradeoff.png'
set multiplot layout 1,2
set xlabel 'lambda'
set ylabel 'transmission rate'
plot 'tradeoff.csv' using 1:2 with linespoints title 'analytic rate', \\
     'tradeoff.csv' using 1:3:4 with yerrorbars title 'empirical rate'
set ylabel 'average cost'
plot 'tradeoff.csv' using 1:5 with linespoints title 'analytic cost', \\
     'tradeoff.csv' using 1:6:7 with yerrorbars title 'empirical cost'
unset multiplot
"""


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Flags replace their config fields and pass the same checks."""
    doc = config_to_dict(cfg)
    for block, field, flag in (("simulation", "seed", "seed"),
                               ("simulation", "runs", "runs"),
                               ("simulation", "horizon", "horizon"),
                               ("output", "directory", "out_dir")):
        if getattr(args, flag, None) is not None:
            doc[block][field] = getattr(args, flag)
    if getattr(args, "plot_script", False):
        doc["output"]["emit_plot_data"] = True
    return config_from_dict(doc)


def _write_manifest(cfg: ExperimentConfig, out_dir: Path):
    manifest = config_to_dict(cfg)
    manifest["generated_by"] = "etlqg"
    manifest["tool_version"] = __version__
    _write_atomic(out_dir / "manifest.json",
                  json.dumps(manifest, indent=2) + "\n")


def _run_sweep(cfg: ExperimentConfig, with_simulation: bool) -> int:
    validate_and_report(cfg)
    model = cfg.model
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)
    points = cost_tradeoff_curve(model, cfg.lambda_grid, cfg.timeout,
                                 ss=filt, cs=ctrl)
    # made only now, so that a sweep failing in analysis leaves nothing
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []

    def emit(point, rates=None, costs=None):
        emp_rate = rate_se = emp_cost = cost_se = None
        if rates is not None:
            emp_rate, rate_se = aggregate_runs(rates)
            emp_cost, cost_se = aggregate_runs(costs)
        rows.append((point.lam, point.rate, emp_rate, rate_se,
                     point.cost, emp_cost, cost_se))

        if "json" in cfg.formats:
            record = analysis_record(point.markov)
            record["cost"] = dataclasses.asdict(point.breakdown)
            _write_atomic(out_dir / f"analysis_{point.lam!r}.json",
                          json.dumps(record, indent=2) + "\n")

        line = f"lambda={point.lam:g} rate={point.rate:.6f} cost={point.cost:.6f}"
        if emp_rate is not None:
            line += f" emp_rate={emp_rate:.6f} emp_cost={emp_cost:.6f}"
        print(line)

    if with_simulation and cfg.runs > 0:
        # one lockstep simulation per group of lambdas, in grid order; the
        # cores split an untraced group's runs
        sim_cfg = SimConfig(model=model,
                            params=SchedulerParams(points[0].lam, cfg.timeout),
                            horizon=cfg.horizon, runs=cfg.runs, seed=cfg.seed,
                            record_trace=cfg.record_trace, burn_in=cfg.burn_in)
        start = 0
        for group in lambda_groups(sim_cfg, [pt.lam for pt in points]):
            if sim_cfg.record_trace:
                rates, costs = _simulate_traced(
                    sim_cfg, filt, ctrl, group,
                    [out_dir / f"trace_lam{pt.lam!r}_run{r:04d}.csv"
                     for pt in points[start:start + len(group)]
                     for r in range(cfg.runs)])
            else:
                slices = _run_slices(sim_cfg, len(group))
                with (_worker_pool(len(slices) - 1) if len(slices) > 1
                      else contextlib.nullcontext()) as pool:
                    rates, costs = _simulate_group(pool, sim_cfg, filt, ctrl,
                                                   group, slices)
            for g in range(len(group)):
                emit(points[start + g], rates[g], costs[g])
            start += len(group)
    else:
        for point in points:
            emit(point)

    if "csv" in cfg.formats:
        csv_lines = [TRADEOFF_HEADER]
        for row in rows:
            csv_lines.append(",".join(_fmt(cell) for cell in row))
        _write_atomic(out_dir / "tradeoff.csv", "\n".join(csv_lines) + "\n")
    if cfg.emit_plot_data:
        _write_atomic(out_dir / "plot.gp", _plot_script())
    _write_manifest(cfg, out_dir)
    print(f"artifacts written to {out_dir}")
    return 0


def validate_and_report(cfg: ExperimentConfig, verbose: bool = False) -> None:
    report = validate_model(cfg.model)
    if verbose:
        for line in report.lines():
            print(line)
    if not report.passed:
        raise ValidationFailure(report)


def _cmd_validate(cfg: ExperimentConfig) -> int:
    validate_and_report(cfg, verbose=True)
    print("model valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etlqg",
        description="Event-triggered LQG trade-off experiments: analytic "
                    "rate/cost formulas cross-validated by seeded Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_sim_flags: bool):
        p.add_argument("config", nargs="?", default=None,
                       help="config file (YAML/JSON); bundled benchmark if omitted")
        p.add_argument("--out-dir", type=str, default=None,
                       help="override output directory")
        p.add_argument("--plot-script", action="store_true",
                       help="also emit a gnuplot script")
        if with_sim_flags:
            p.add_argument("--seed", type=int, default=None,
                           help="override master seed")
            p.add_argument("--runs", type=int, default=None,
                           help="override Monte Carlo run count (0 = analytic only)")
            p.add_argument("--horizon", type=int, default=None,
                           help="override steps per run")

    add_common(sub.add_parser("run", help="analytic sweep + Monte Carlo"), True)
    add_common(sub.add_parser("analyze-only", help="analytic sweep only"), False)
    val = sub.add_parser("validate", help="check config and model assumptions")
    val.add_argument("config", nargs="?", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_path = args.config if args.config else default_config_path()
        cfg = load_config(config_path)
        cfg = _apply_overrides(cfg, args)
        if args.command == "run":
            return _run_sweep(cfg, with_simulation=True)
        if args.command == "analyze-only":
            return _run_sweep(cfg, with_simulation=False)
        return _cmd_validate(cfg)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in exc.report.lines():
            print(line, file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EtlqgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
