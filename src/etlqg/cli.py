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
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_to_dict, default_config_path, load_config
from .control import control_steady_state, cost_tradeoff_curve
from .errors import (ConfigError, ConvergenceError, DivergenceError, EtlqgError,
                     ModelError, NumericalError, ValidationFailure)
from .estimation import kf_steady_state
from .analysis import analysis_record
from .model import SchedulerParams, validate_model
# run_closed_loop is not called here, but bench/traced_cli.py wraps it
# under this module's name
from .simulation import (SimConfig, aggregate_runs, lambda_groups,  # noqa: F401
                         run_closed_loop, run_closed_loop_grid)

TRADEOFF_HEADER = ("lambda,analytic_rate,empirical_rate,rate_stderr,"
                   "analytic_cost,empirical_cost,cost_stderr")
_TRACE_BLOCK_ROWS = 2048


def _fmt(value) -> str:
    """17-significant-digit cell; empty for missing values."""
    if value is None:
        return ""
    return f"{float(value):.17g}"


def _write_atomic(path: Path, text: str):
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                    suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _trace_csv(trace, n: int, m: int) -> str:
    cols = (["k", "sigma", "tau"] + [f"x{i + 1}" for i in range(n)]
            + [f"u{i + 1}" for i in range(m)] + [f"e{i + 1}" for i in range(n)])
    steps = np.arange(trace.sigma.shape[0])
    row = "%d,%d,%d" + ",%.17g" * (2 * n + m) + "\n"
    parts = [",".join(cols) + "\n"]
    # One '%' per block of rows; '%.17g' % v gives the bytes of _fmt(v).
    # k, sigma and tau are integers below 2**53, so the float table holds
    # them exactly. Blocks bound the Python floats alive at once.
    for start in range(0, steps.size, _TRACE_BLOCK_ROWS):
        rows = slice(start, start + _TRACE_BLOCK_ROWS)
        table = np.column_stack([steps[rows], trace.sigma[rows], trace.tau[rows],
                                 trace.x[rows], trace.u[rows],
                                 trace.e_filt[rows]])
        parts.append((row * len(table)) % tuple(table.ravel().tolist()))
    return "".join(parts)


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
    updates = {}
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError(f"simulation.seed: must be >= 0, got {args.seed}")
        updates["seed"] = args.seed
    if getattr(args, "runs", None) is not None:
        if args.runs < 0:
            raise ConfigError(f"simulation.runs: must be >= 0, got {args.runs}")
        updates["runs"] = args.runs
    if getattr(args, "horizon", None) is not None:
        if args.horizon < 1:
            raise ConfigError(
                f"simulation.horizon: must be >= 1, got {args.horizon}")
        if cfg.burn_in >= args.horizon:
            raise ConfigError(
                "simulation.burn_in: must be < horizon "
                f"({cfg.burn_in} >= {args.horizon})")
        updates["horizon"] = args.horizon
    if getattr(args, "out_dir", None) is not None:
        updates["out_dir"] = args.out_dir
    if getattr(args, "plot_script", False):
        updates["emit_plot_data"] = True
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _write_manifest(cfg: ExperimentConfig, out_dir: Path):
    manifest = config_to_dict(cfg)
    manifest["generated_by"] = "etlqg"
    manifest["tool_version"] = __version__
    _write_atomic(out_dir / "manifest.json",
                  json.dumps(manifest, indent=2) + "\n")


def _run_sweep(cfg: ExperimentConfig, with_simulation: bool) -> int:
    validate_and_report(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = cfg.model
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)
    points = cost_tradeoff_curve(model, cfg.lambda_grid, cfg.timeout,
                                 ss=filt, cs=ctrl)

    rows = []

    def emit(point, rates=None, costs=None, traces=None):
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
        if traces is not None:
            n, m, _ = model.dims
            for r, trace in enumerate(traces):
                name = f"trace_lam{point.lam!r}_run{r:04d}.csv"
                _write_atomic(out_dir / name, _trace_csv(trace, n, m))

        line = f"lambda={point.lam:g} rate={point.rate:.6f} cost={point.cost:.6f}"
        if emp_rate is not None:
            line += f" emp_rate={emp_rate:.6f} emp_cost={emp_cost:.6f}"
        print(line)

    if with_simulation and cfg.runs > 0:
        # one lockstep simulation per group of lambdas, in grid order
        sim_cfg = SimConfig(model=model,
                            params=SchedulerParams(points[0].lam, cfg.timeout),
                            horizon=cfg.horizon, runs=cfg.runs, seed=cfg.seed,
                            record_trace=cfg.record_trace, burn_in=cfg.burn_in)
        start = 0
        for group in lambda_groups(sim_cfg, [pt.lam for pt in points]):
            rates, costs, traces = run_closed_loop_grid(sim_cfg, filt, ctrl,
                                                        group)
            for g in range(len(group)):
                emit(points[start + g], rates[g], costs[g],
                     None if traces is None else traces[g])
            start += len(group)
            del traces  # free this group's traces before the next is allocated
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
