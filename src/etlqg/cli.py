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

Processes: a sweep takes the layout of least estimated time (_layout): in
this process, split across spawned workers, one per core, or, traced, in this
process beside one spawned formatter, which formats and appends each block
of traces while this process simulates the next. No layout moves a byte.
A traced slice runs in chunks whose TraceBlock fits TRACE_BUDGET_BYTES
(trace_chunk_runs). A spawned worker exits with this process.

Exit codes: 0 success, 1 invalid config or flag, or unwritable output, 2
model validation failure, 3 numerical non-convergence or divergence.
"""

from __future__ import annotations

import argparse
import collections
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

from . import __version__, simulation
from .config import (ExperimentConfig, config_from_dict, config_to_dict,
                     default_config_path, load_config)
from .control import control_steady_state, cost_tradeoff_curve
from .errors import (ConfigError, DivergenceError, EtlqgError, ModelError,
                     ValidationFailure)
from .estimation import kf_steady_state
from .analysis import analysis_record
from .model import validate_model
from .simulation import SimConfig, TraceBlock, aggregate_runs, run_closed_loop

TRADEOFF_HEADER = ("lambda,analytic_rate,empirical_rate,rate_stderr,"
                   "analytic_cost,empirical_cost,cost_stderr")
# _layout's costs, measured on a 2-vCPU host: a lockstep step, 22 us + 90 ns
# per lambda-run (25-26, 49-50, 131-140, 1204-1432 us at 24, 286, 1300 and
# 13000); a trace row's formatting, 0.63-0.80 us; a spawn round trip, 0.23 s
# (a worker's first job began 0.15-0.21 s after its submit, +0.02 s to exit).
_STEP_S, _RUN_S, _ROW_S, _SPAWN_S = 22e-6, 90e-9, 0.71e-6, 0.23
TRACE_BUDGET_BYTES = 32 * 2**20  # bytes of one TraceBlock (trace_chunk_runs)
# Names of a sweep's artifacts, and of the .part files a killed sweep leaves
_LAM = r"\d+(\.\d+)?(e[+-]\d+)?"  # a lambda: the repr of a positive float
_ARTIFACT = re.compile(
    rf"(tradeoff\.csv|plot\.gp|manifest\.json|analysis_{_LAM}\.json|trace_lam"
    rf"{_LAM}_run\d{{4,}}\.csv)(\.\w+\.part)?")


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


def _cores() -> int:
    """Cores a spawned worker of this process may use: the ones affinity
    gives it (os.sched_getaffinity), else, where there is no affinity call
    (macOS, Windows), os.cpu_count(); or 1 if spawn cannot start one."""
    # spawn starts each worker by running __main__'s file again, unless it
    # ran as a module; a script read from stdin ('<stdin>') has no file
    main = sys.modules["__main__"]
    path = getattr(main, "__file__", None)
    if (getattr(main, "__spec__", None) is None and path is not None
            and not os.path.isfile(path)):
        return 1
    if not hasattr(os, "sched_getaffinity"):
        return os.cpu_count() or 1
    return len(os.sched_getaffinity(0))


def trace_chunk_runs(sim_cfg: SimConfig, lams: int) -> int:
    """Runs whose block record at lams lambdas, simulation.step_bytes per
    run-step and lambda, fits TRACE_BUDGET_BYTES (0 if none)."""
    steps = min(sim_cfg.horizon, simulation.TRACE_BLOCK_STEPS)
    return TRACE_BUDGET_BYTES // (
        lams * steps * simulation.step_bytes(sim_cfg.model))


def _in_flight(sim_cfg: SimConfig, lams: int, runs: int) -> int:
    """Trace blocks of runs runs at lams lambdas that may wait for the
    formatter while this process simulates the next block. Each waiting
    block is counted twice, as its arrays and as the pickled copy the pool
    sends; with the next block they fit TRACE_BUDGET_BYTES."""
    return max(0, (trace_chunk_runs(sim_cfg, lams) // runs - 1) // 2)


def _layout(sim_cfg: SimConfig, lams: int, traced: bool) -> tuple[int, bool]:
    """(processes, formatter) of least estimated time for a sweep of lams
    lambdas: in this process, split across _cores() (_split), or, traced, on
    2+ cores with a block that can wait (_in_flight), beside the formatter."""
    runs, cores = sim_cfg.runs, _cores()

    def seconds(width: int) -> tuple[float, float]:
        # simulating width runs in _simulate_slice's chunks; formatting them
        chunks = _chunk_count(sim_cfg, lams, width, traced)
        return (sim_cfg.horizon * (chunks * _STEP_S + lams * width * _RUN_S),
                sim_cfg.horizon * lams * width * traced * _ROW_S)

    sim, fmt = seconds(runs)
    split = _pieces(runs, cores)
    layouts = [(sim + fmt, (1, False)),
               (_SPAWN_S + sum(seconds(-(-runs // split))), (split, False))]
    if traced and cores > 1 and _in_flight(sim_cfg, lams, runs) > 0:
        # the formatter starts with its pool, before the first block
        layouts.append((max(sim, _SPAWN_S + fmt), (1, True)))
    return min(layouts)[1]


def _pieces(width: int, k: int) -> int:
    """Ranges _split cuts width runs into when asked for k: each keeps 2+ runs
    (1 of 1), as numpy rounds a one-row matmul on another kernel than the
    grid's; then the joined ranges equal the uncut grid bitwise."""
    return max(1, min(k, width // 2))


def _split(runs: range, k: int, parts: list[str]) -> list[tuple[range, list]]:
    """Cut runs into _pieces(len(runs), k) contiguous ranges, in order and as
    even as possible, each paired with its runs' share of parts, the .part
    trace files of runs (empty when untraced), lambda-major in both."""
    width, k = len(runs), _pieces(len(runs), k)
    cuts = [i * width // k for i in range(k + 1)]
    return [(runs[a:b], [part for g in range(len(parts) // width)
                         for part in parts[g * width + a:g * width + b]])
            for a, b in zip(cuts, cuts[1:])]


def _chunk_count(sim_cfg: SimConfig, lams: int, width: int, traced: bool):
    """Chunks _simulate_slice runs width runs in, in turn (_split): one
    untraced, else enough that each one's TraceBlock fits the trace budget."""
    fit = max(2, trace_chunk_runs(sim_cfg, lams))
    return _pieces(width, -(-width // fit) if traced else 1)


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


def _exit_with_parent():
    """Each spawned worker's initializer: a daemon thread ends the worker
    once its parent has exited, which a worker busy with a slice never sees."""
    import multiprocessing
    import threading

    parent = multiprocessing.parent_process()  # join() waits for its exit
    threading.Thread(target=lambda: parent.join() or os._exit(1),
                     daemon=True).start()


def _worker_pool(workers: int):
    """Spawned workers: one per slice of a split sweep but this process's,
    or the one formatter of an unsplit traced sweep."""
    # imported here, so that analyze-only and small sweeps load no pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawn, not fork: this process holds BLAS threads
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("spawn"),
                               initializer=_exit_with_parent)
    pool.submit(int)  # a pool spawns a worker only for a job: start one now
    return pool


def _append_block(block: TraceBlock, parts: list[str]):
    """Format block one run at a time and append each run's text to its
    .part file, parts lambda-major."""
    runs = (run for row in block.per_run() for run in row)
    for part, run in zip(parts, runs):
        _append(part, _trace_csv(run))


def _simulate_slice(sim_cfg: SimConfig, filt, ctrl, lams, runs: range,
                    parts: list[str], formatter=None):
    """Rates and costs of one slice of runs over the whole grid: the work a
    sweep gives each process, in-process or in a spawned worker.

    parts are the .part trace files of the slice's runs, lambda-major (empty
    when untraced). A traced slice runs in _chunk_count chunks. Each block
    is formatted one run at a time once simulated and each run's text
    appended to its file, so a process holds one block and one run's text.
    With formatter, a pool of one worker, the worker formats and appends each
    block while this process simulates the next; at most _in_flight blocks
    wait for it, and all are written when this returns. One worker takes
    the blocks in order, so each file gets its rows in order.
    """
    pending = collections.deque()

    def simulate(chunk: range, chunk_parts: list[str]):
        depth = _in_flight(sim_cfg, len(lams), len(chunk))

        def on_block(block):
            if formatter is None:
                _append_block(block, chunk_parts)
                return
            pending.append(formatter.submit(_append_block, block, chunk_parts))
            while len(pending) > depth:
                pending.popleft().result()

        return run_closed_loop(sim_cfg, filt, ctrl, lams, chunk,
                               on_block=on_block if chunk_parts else None)

    chunks = _split(runs, _chunk_count(sim_cfg, len(lams), len(runs),
                                       bool(parts)), parts)
    results = _join([functools.partial(simulate, *c) for c in chunks], lams)
    while pending:
        pending.popleft().result()
    return results


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
    lams = [ma.lam for ma, _ in points]
    simulate = with_simulation and cfg.runs > 0
    traces = [f"trace_lam{lam!r}_run{r:04d}.csv" for lam in lams
              for r in range(cfg.runs)] if simulate and cfg.record_trace else []
    # the other artifacts' texts, replaced after the traces in this order:
    # manifest.json last, so a present manifest means the set is in place
    texts = {}
    if "json" in cfg.formats:
        for ma, bd in points:
            record = analysis_record(ma)
            record["cost"] = dataclasses.asdict(bd)
            texts[f"analysis_{ma.lam!r}.json"] = json.dumps(
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
                # one lockstep simulation of the grid, its runs cut in slices
                sim_cfg = SimConfig(model=model, timeout=cfg.timeout,
                                    horizon=cfg.horizon, runs=cfg.runs,
                                    seed=cfg.seed, burn_in=cfg.burn_in)
                processes, aside = _layout(sim_cfg, len(lams), bool(traces))
                slices = _split(range(cfg.runs), processes, parts[:len(traces)])
                job = functools.partial(_simulate_slice, sim_cfg, filt, ctrl,
                                        lams)
                # workers finish before any .part file is replaced or removed
                workers = 1 if aside else len(slices) - 1
                with (_worker_pool(workers) if workers
                      else contextlib.nullcontext()) as pool:
                    futures = [pool.submit(job, *sl) for sl in slices[1:]]
                    first = functools.partial(
                        job, *slices[0], formatter=pool if aside else None)
                    rates, costs = _join([first] + [f.result for f in futures],
                                         lams)
            else:
                rates = costs = [None] * len(points)

            csv_lines = [TRADEOFF_HEADER]
            for (ma, bd), run_rates, run_costs in zip(points, rates, costs):
                emp_rate = rate_se = emp_cost = cost_se = None
                if run_rates is not None:
                    emp_rate, rate_se = aggregate_runs(run_rates)
                    emp_cost, cost_se = aggregate_runs(run_costs)
                csv_lines.append(",".join(_fmt(cell) for cell in (
                    ma.lam, ma.rate, emp_rate, rate_se, bd.total, emp_cost,
                    cost_se)))
                line = (f"lambda={ma.lam:g} rate={ma.rate:.6f} "
                        f"cost={bd.total:.6f}")
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
    # then no artifact or .part file of an earlier sweep into out_dir is left
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


class _Parser(argparse.ArgumentParser):
    """Its and its subparsers' usage errors exit 1: 2 is a model's failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        path = args.config or default_config_path()
        cfg = _apply_overrides(load_config(path), args)
        if args.command == "validate":
            validate_and_report(cfg, verbose=True)
            print("model valid")
            return 0
        return _run_sweep(cfg, with_simulation=args.command == "run")
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
