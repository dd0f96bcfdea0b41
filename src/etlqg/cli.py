"""Experiment runner CLI.

Subcommands:
  run <config>          analytic sweep + Monte Carlo validation, artifacts on disk
  analyze-only <config> analytic sweep only (fast path)
  validate <config>     parse config, build model, print the validation report

Artifacts (under the output directory, published together):
  tradeoff.csv          one row per lambda: analytic and empirical rate/cost
  analysis_<lam>.json   per-lambda chain analysis and cost breakdown (repr(lam))
  manifest.json         full config echo (re-ingestable as a config) + tool info
  plot.gp               optional gnuplot script (emit_plot_data / --plot-script)
  trace_*.csv           optional per-run step traces (record_trace)
A sweep that fails in analysis, simulation or writing writes nothing. A
finished sweep removes the artifacts of an earlier one that it did not
write; files with other names stay.

Exit codes: 0 success, 1 invalid config or unwritable output, 2 model
validation failure, 3 numerical non-convergence or divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ExperimentConfig, config_from_dict, config_to_dict,
                     default_config_path, load_config)
from .control import control_steady_state, cost_tradeoff_curve
from .errors import (ConfigError, DivergenceError, EtlqgError, ModelError,
                     ValidationFailure)
from .estimation import kf_steady_state
from .analysis import analysis_record
from .model import validate_model
# run_closed_loop is not called here, but bench/traced_cli.py wraps it
# under this module's name
from .simulation import (SimConfig, TraceBlock, aggregate_runs,  # noqa: F401
                         run_closed_loop, run_closed_loop_grid,
                         trace_chunk_runs)

TRADEOFF_HEADER = ("lambda,analytic_rate,empirical_rate,rate_stderr,"
                   "analytic_cost,empirical_cost,cost_stderr")
# A sweep splits its runs across worker processes only when that saves more
# than a worker's start: a spawn round trip (start, import numpy and etlqg,
# return) took 0.40-0.46 s on a 2-vCPU host, where the
# bundled-model sweep broke even near 8e6 lambda-run-steps (13 x 32 x 20000:
# 2.9 s either way; 13 x 64 x 20000: 4.8 s -> 3.8 s). The tier-1 CLI tests
# and the small CI smoke run stay in-process.
_SPLIT_MIN_RUN_STEPS = 8_000_000
# The artifacts a sweep may write, but for manifest.json
_ARTIFACT = re.compile(r"tradeoff\.csv|plot\.gp|analysis_.*\.json"
                       r"|trace_lam.*_run.*\.csv")


def _fmt(value) -> str:
    """17-significant-digit cell; empty for missing values."""
    if value is None:
        return ""
    return f"{float(value):.17g}"


@contextlib.contextmanager
def _naming(path: str):
    """Re-raise an OSError of the block as one that names path."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


@contextlib.contextmanager
def _replacing(paths):
    """Yield a fresh, empty .part file name beside each of paths.

    When the block ends, the .part files replace their paths in order; on
    an error in the block they are all removed and no path is touched. The
    os.replace loop is not atomic as a set: an error or crash in it leaves
    the earlier paths replaced. tempfile names each '<path>.<random>.part',
    never a stale or concurrent run's, and it gets open()'s mode. Every
    OSError the span raises itself names a file.
    """
    umask = os.umask(0o022)
    os.umask(umask)
    parts = []
    try:
        for path in paths:
            fd, part = tempfile.mkstemp(dir=path.parent,
                                        prefix=path.name + ".", suffix=".part")
            parts.append(part)
            with _naming(part):
                os.close(fd)
            os.chmod(part, 0o666 & ~umask)  # mkstemp's is owner-only
        yield parts
        for part, path in zip(parts, paths):
            os.replace(part, path)
    except BaseException:
        for part in parts:
            with contextlib.suppress(OSError):
                os.unlink(part)
        raise


def _append(part: str, *texts: str):
    """Append texts to part, the .part file of an artifact in a _replacing
    span: the span makes the writes atomic, as it replaces the artifact
    only once every artifact is written. An OSError names part."""
    with _naming(part), open(part, "a", newline="") as fh:
        fh.writelines(texts)


# writes a whole artifact; bench/traced_cli.py counts the calls by this name
_write_atomic = _append


def _trace_csv(trace) -> str:
    """Trace CSV rows of steps trace.start, trace.start + 1, ... of one run.

    trace is one run of a TraceBlock (TraceBlock.per_run). The header comes
    first when trace.start is 0. k, sigma and tau are '%d' cells and the
    rest '%.17g' cells, the bytes of _fmt (see csvtext). The CLI passes one
    block of rows at a time, which bounds the memory of the formatting.
    """
    # imported here, so that runs without traces do not load the formatter
    from .csvtext import format_rows

    start, rows = trace.start, trace.sigma.shape[0]
    header = ""
    if start == 0:
        n, m = trace.x.shape[1], trace.u.shape[1]
        cols = (["k", "sigma", "tau"] + [f"x{i + 1}" for i in range(n)]
                + [f"u{i + 1}" for i in range(m)] + [f"e{i + 1}" for i in range(n)])
        header = ",".join(cols) + "\n"
    ints = np.column_stack([np.arange(start, start + rows), trace.sigma,
                            trace.tau])
    floats = np.column_stack([trace.x, trace.u, trace.e_filt])
    return header + format_rows(ints, floats)


def _format_block(block: TraceBlock):
    """The trace CSV text of each run of block, lambda-major.

    A generator: one run's text is formatted at a time.
    """
    return (_trace_csv(run) for row in block.per_run() for run in row)


def _processes(sim_cfg: SimConfig, lams: int) -> int:
    """Processes that share the runs of a sweep of lams lambdas: one per
    core, if the sweep reaches _SPLIT_MIN_RUN_STEPS and a spawned worker can
    start."""
    if lams * sim_cfg.runs * sim_cfg.horizon < _SPLIT_MIN_RUN_STEPS:
        return 1
    # spawn starts each worker by running __main__'s file again, unless it
    # ran as a module; a script read from stdin ('<stdin>') has no file
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if (getattr(main, "__spec__", None) is None and path is not None
            and not os.path.isfile(path)):
        return 1
    return len(os.sched_getaffinity(0))


def _split(runs: range, k: int, parts: list[str]) -> list[tuple[range, list]]:
    """Cut runs into at most k contiguous ranges, in order and as even as
    possible, each paired with its runs' share of parts.

    parts are the .part trace files of runs, lambda-major (empty when
    untraced), and so are each range's. numpy rounds a one-row matmul on
    another kernel than the full grid's, so every range keeps at least 2
    runs (1 if runs has 1); then the joined ranges equal the uncut grid
    bitwise.
    """
    width = len(runs)
    k = max(1, min(k, width // 2))
    cuts = [i * width // k for i in range(k + 1)]
    return [(runs[a:b], [part for g in range(len(parts) // width)
                         for part in parts[g * width + a:g * width + b]])
            for a, b in zip(cuts, cuts[1:])]


def _join(jobs, lams):
    """Run jobs, thunks giving the (rates, costs) of consecutive ranges of
    runs over lams, and join their results in run order.

    Every job runs, so that if some diverge, the error raised is the uncut
    grid's: the earliest step, then the largest |x|, then the first lambda,
    then the first run.
    """
    results, errors = [], []
    for job in jobs:
        try:
            results.append(job())
        except DivergenceError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda e: (e.step, -e.value, lams.index(e.lam),
                                         e.run))
    return tuple(np.concatenate(arrays, axis=1) for arrays in zip(*results))


def _worker_pool(workers: int):
    # imported here, so that analyze-only and unsplit runs load no pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawn, not fork: this process holds BLAS threads
    return ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("spawn"))


def _simulate_slice(sim_cfg: SimConfig, filt, ctrl, lams, runs: range,
                    parts: list[str]):
    """Rates and costs of one slice of runs over the whole grid: the work a
    sweep gives each process, in-process or in a spawned worker.

    parts are the .part trace files of the slice's runs, lambda-major (empty
    when untraced). A traced slice runs in chunks of runs whose TraceBlock
    fits the trace budget, but for _split's 2-run floor. Each block is
    formatted one run at a time once simulated and each run's text appended
    to its file, so a process holds one block and one run's text.
    """
    def simulate(chunk: range, chunk_parts: list[str]):
        def on_block(block):
            for part, text in zip(chunk_parts, _format_block(block)):
                _append(part, text)

        return run_closed_loop_grid(sim_cfg, filt, ctrl, lams, chunk,
                                    on_block=on_block if chunk_parts else None)

    fit = max(2, trace_chunk_runs(sim_cfg, len(lams)))
    chunks = -(-len(runs) // fit) if parts else 1
    return _join([functools.partial(simulate, *chunk)
                  for chunk in _split(runs, chunks, parts)], lams)


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


def _run_sweep(cfg: ExperimentConfig, with_simulation: bool) -> int:
    validate_and_report(cfg)
    model = cfg.model
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)
    points = cost_tradeoff_curve(model, cfg.lambda_grid, cfg.timeout,
                                 ss=filt, cs=ctrl)
    lams = [pt.lam for pt in points]
    simulate = with_simulation and cfg.runs > 0
    traces = [f"trace_lam{lam!r}_run{r:04d}.csv" for lam in lams
              for r in range(cfg.runs)] if simulate and cfg.record_trace else []
    # the other artifacts' texts, replaced after the traces in this order:
    # manifest.json last, so a present manifest means the set is in place
    texts = {}
    if "json" in cfg.formats:
        for point in points:
            record = analysis_record(point.markov)
            record["cost"] = dataclasses.asdict(point.breakdown)
            texts[f"analysis_{point.lam!r}.json"] = json.dumps(
                record, indent=2) + "\n"
    if "csv" in cfg.formats:
        texts["tradeoff.csv"] = None  # filled in once simulated
    if cfg.emit_plot_data:
        texts["plot.gp"] = _plot_script()
    manifest = config_to_dict(cfg)
    manifest["generated_by"] = "etlqg"
    manifest["tool_version"] = __version__
    texts["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
    names = traces + list(texts)
    # made only now, so that a sweep failing in analysis leaves nothing
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.directory: cannot create {out_dir}: "
                          f"{exc.strerror}") from exc

    try:
        with _replacing([out_dir / name for name in names]) as parts:
            if simulate:
                # one lockstep simulation of the whole grid, its runs cut
                # into slices, one per process
                sim_cfg = SimConfig(model=model, timeout=cfg.timeout,
                                    horizon=cfg.horizon, runs=cfg.runs,
                                    seed=cfg.seed, burn_in=cfg.burn_in)
                slices = _split(range(cfg.runs), _processes(sim_cfg, len(lams)),
                                parts[:len(traces)])
                job = functools.partial(_simulate_slice, sim_cfg, filt, ctrl,
                                        lams)
                # workers finish before any .part file is replaced or removed
                with (_worker_pool(len(slices) - 1) if len(slices) > 1
                      else contextlib.nullcontext()) as pool:
                    futures = [pool.submit(job, *sl) for sl in slices[1:]]
                    rates, costs = _join([functools.partial(job, *slices[0])]
                                         + [f.result for f in futures], lams)
            else:
                rates = costs = [None] * len(points)

            csv_lines = [TRADEOFF_HEADER]
            for point, run_rates, run_costs in zip(points, rates, costs):
                emp_rate = rate_se = emp_cost = cost_se = None
                if run_rates is not None:
                    emp_rate, rate_se = aggregate_runs(run_rates)
                    emp_cost, cost_se = aggregate_runs(run_costs)
                csv_lines.append(",".join(_fmt(cell) for cell in (
                    point.lam, point.rate, emp_rate, rate_se, point.cost,
                    emp_cost, cost_se)))
                line = (f"lambda={point.lam:g} rate={point.rate:.6f} "
                        f"cost={point.cost:.6f}")
                if emp_rate is not None:
                    line += f" emp_rate={emp_rate:.6f} emp_cost={emp_cost:.6f}"
                print(line)
            if "tradeoff.csv" in texts:
                texts["tradeoff.csv"] = "\n".join(csv_lines) + "\n"
            for part, text in zip(parts[len(traces):], texts.values()):
                _write_atomic(part, text)
    except OSError as exc:
        if exc.filename is None:
            raise  # not a write: no artifact to name
        # the span has removed every .part file; name the artifact whose
        # .part file, '<artifact>.<random>.part', or replacement failed
        failed = re.sub(r"\.\w+\.part$", "", str(exc.filename))
        raise ConfigError(f"output.directory: cannot write {failed}: "
                          f"{exc.strerror}") from exc
    # then no artifact of an earlier sweep into out_dir is left
    kept = set(names)
    for path in out_dir.iterdir():
        if (path.name not in kept and _ARTIFACT.fullmatch(path.name)
                and path.is_file()):
            path.unlink()
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
    except EtlqgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
