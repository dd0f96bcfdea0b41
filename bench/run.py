"""etlqg benchmark: the real CLI, one invocation at a time, checked against a
50-digit reference.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each invocation of `python -m etlqg.cli`
starts after the previous one has been checked. BLAS keeps its default
thread count. Every invocation writes into a fresh directory under
`.bench_work/`, which is removed after its checks.

--trace 0 repeats the untraced CLI for about S seconds and reports the
end-to-end metrics named in BENCHMARK.json (medians over invocations; the
error metrics are maxima). --trace 1 alternates an untraced invocation with
a traced one (bench/traced_cli.py) and reports the per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. An operation is one
lambda grid point of one invocation; see bench/README.md for the rules that
fail it and for the workloads.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy as np
import scipy
import yaml
from scipy import stats

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED_CONFIG = SRC / "etlqg" / "data" / "default_config.yaml"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
ERR_FLOOR = 1e-12
Z_SIGMAS = 5.0
EXPECTED_HEADER = ("lambda,analytic_rate,empirical_rate,rate_stderr,"
                   "analytic_cost,empirical_cost,cost_stderr")

# A fresh interpreter importing the CLI, then loading and validating the
# workload's config the way `main` does.
SETUP_SNIPPET = (
    "import sys\n"
    "from etlqg.cli import default_config_path, load_config, validate_and_report\n"
    "validate_and_report(load_config(sys.argv[1] if len(sys.argv) > 1 "
    "else default_config_path()))\n"
)


@dataclass(frozen=True)
class Workload:
    command: str               # CLI subcommand
    overrides: dict | None     # config blocks replacing the bundled ones
    seeded: bool               # passes the workload seed as --seed


LOG_GRID = {"min": 0.01, "max": 100.0, "count": 49}
WORKLOADS = {
    # The ROADMAP's end-to-end target: 13 lambdas, 1000 runs x 2000 steps.
    # Wide lockstep rows, so the simulation is bound by array work. Not in
    # BENCHMARK.json: its 7-15 s invocations are too few per run to be
    # steady on a shared host (bench/README.md); run it by hand.
    "bundled_mc": Workload("run", None, True),
    # Analysis only, at the largest timeout the nested-determinant ladder
    # still completes; its p_i0 error is large here and must show.
    "long_timeout_analysis": Workload(
        "analyze-only",
        {"scheduler": {"timeout": 100, "lambda_grid": LOG_GRID}}, False),
    # 8 narrow rows bound by per-step Python overhead, and 24 trace CSVs
    # (about 40 MB) that load the artifact layer.
    "trace_narrow": Workload(
        "run",
        {"scheduler": {"timeout": 50, "lambda_grid": [0.1, 1.0, 10.0]},
         "simulation": {"runs": 8, "horizon": 20000, "burn_in": 200,
                        "record_trace": True}}, True),
}


class BenchError(Exception):
    """The benchmark cannot run here (not a failed operation)."""


# ----------------------------------------------------------------- inputs

@dataclass(frozen=True)
class Spec:
    """One workload's concrete inputs, derived from the bundled config."""

    workload: Workload
    doc: dict                  # the config the CLI reads, before --seed
    config_path: Path | None   # None: the CLI's bundled default
    seed: int
    grid: tuple[float, ...]

    @property
    def timeout(self) -> int:
        return self.doc["scheduler"]["timeout"]

    @property
    def simulation(self) -> dict:
        return self.doc["simulation"]

    @property
    def monte_carlo(self) -> bool:
        return self.workload.command == "run" and self.simulation["runs"] > 0

    def cli_args(self, out_dir: Path) -> list[str]:
        args = [self.workload.command]
        if self.config_path is not None:
            args.append(str(self.config_path))
        args += ["--out-dir", str(out_dir)]
        if self.workload.seeded:
            args += ["--seed", str(self.seed)]
        return args


def make_spec(name: str, seed: int, work: Path) -> Spec:
    workload = WORKLOADS[name]
    doc = yaml.safe_load(BUNDLED_CONFIG.read_text())
    config_path = None
    if workload.overrides is not None:
        for block, values in workload.overrides.items():
            doc[block] = {**doc.get(block, {}), **values}
        doc.pop("output", None)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(doc))
    raw = doc["scheduler"]["lambda_grid"]
    if isinstance(raw, dict):   # the config's log-spaced {min, max, count}
        raw = np.logspace(np.log10(raw["min"]), np.log10(raw["max"]), raw["count"])
    # the CLI takes a nonnegative seed
    return Spec(workload, doc, config_path, seed % 2**32,
                tuple(float(v) for v in raw))


# -------------------------------------------------------------- processes

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args: list[str], log_path: Path, cwd: Path):
    """Run a child to completion: (wall seconds, exit code, peak RSS MiB).

    Peak RSS comes from os.wait4 on this child alone; RUSAGE_CHILDREN would
    carry the largest earlier child into every later reading.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, stdout=log,
                                stderr=subprocess.STDOUT, cwd=cwd,
                                env=_child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _tail(path: Path, lines: int = 5) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def measure_setup(spec: Spec, work: Path) -> list[float]:
    args = ["-c", SETUP_SNIPPET]
    if spec.config_path is not None:
        args.append(str(spec.config_path))
    log = work / "setup.log"
    walls = []
    for attempt in range(SETUP_REPEATS + 1):   # the first one fills caches
        wall, code, _ = spawn(args, log, work)
        if code != 0:
            raise BenchError(f"set-up child exited {code}:\n{_tail(log)}")
        if attempt:
            walls.append(wall)
    return walls


# ----------------------------------------------------------------- checks

class ReferenceCache:
    """50-digit p_i0, rate and cost per lambda, computed once per run."""

    def __init__(self, spec: Spec):
        self._ref = reference.build(spec.doc["model"])
        self._timeout = spec.timeout
        self._points: dict[float, tuple] = {}

    def point(self, lam: float):
        if lam not in self._points:
            p, sigmas = reference.chain(self._ref, lam, self._timeout)
            rate, cost = reference.rate_and_cost(self._ref, p, sigmas)
            self._points[lam] = (p, rate, cost)
        return self._points[lam]

    def abs_err(self, got: float, want) -> float:
        return float(abs(reference.mp.mpf(got) - want))


@dataclass
class Checked:
    """Outcome of one invocation's output checks."""

    ops_total: int
    ops_failed: int = 0
    p_i0_err: float = 0.0
    rate_err: float = 0.0
    cost_err: float = 0.0
    max_z: float = 0.0
    sha256: str | None = None
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str):
        self.ops_failed += 1
        self.problems.append(problem)


def _z_limit(runs: int) -> float:
    """|empirical - analytic| / stderr limit: Z_SIGMAS on the normal scale.

    The stderr comes from `runs` samples, so the ratio is Student-t with
    runs - 1 degrees of freedom; its quantile at the two-sided tail of
    Z_SIGMAS normal sigmas is about 5.03 at 1000 runs and 17.1 at 8 runs.
    """
    return float(stats.t.isf(stats.norm.sf(Z_SIGMAS), runs - 1))


def _z(empirical: float, analytic: float, stderr: float) -> float:
    return abs(empirical - analytic) / stderr if stderr > 0 else math.inf


def _num(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return math.nan


def _trace_files_ok(out_dir: Path, spec: Spec) -> str | None:
    sim = spec.simulation
    files = sorted(out_dir.glob("trace_*.csv"))
    want = len(spec.grid) * sim["runs"]
    if len(files) != want:
        return f"{len(files)} trace files, expected {want}"
    for path in files:
        rows = path.read_bytes().count(b"\n")
        if rows != sim["horizon"] + 1:
            return f"{path.name}: {rows} lines, expected {sim['horizon'] + 1}"
    return None


def check_outputs(out_dir: Path, exit_code: int, spec: Spec,
                  refs: ReferenceCache, z_limit: float) -> Checked:
    grid = spec.grid
    result = Checked(ops_total=len(grid))
    if exit_code != 0:
        for lam in grid:
            result.fail(f"lambda={lam:g}: CLI exited {exit_code}")
        return result

    csv_path = out_dir / "tradeoff.csv"
    rows, header = [], None
    if csv_path.is_file():
        data = csv_path.read_bytes()
        result.sha256 = hashlib.sha256(data).hexdigest()
        lines = data.decode().splitlines()
        header = lines[0] if lines else None
        rows = list(csv.DictReader(lines))
    records = []
    for path in out_dir.glob("analysis_*.json"):
        records.append(json.loads(path.read_text()))
    trace_problem = (_trace_files_ok(out_dir, spec)
                     if spec.simulation.get("record_trace") and spec.monte_carlo
                     else None)

    for i, lam in enumerate(grid):
        row = rows[i] if i < len(rows) else None
        if header != EXPECTED_HEADER or row is None or not math.isclose(
                _num(row, "lambda"), lam, rel_tol=1e-12):
            result.fail(f"lambda={lam:g}: tradeoff row missing")
            continue
        lam_out = _num(row, "lambda")
        keys = ["analytic_rate", "analytic_cost"]
        if spec.monte_carlo:
            keys += ["empirical_rate", "rate_stderr", "empirical_cost",
                     "cost_stderr"]
        values = {k: _num(row, k) for k in keys}
        record = next((r for r in records
                       if math.isclose(r.get("lambda", math.nan), lam,
                                       rel_tol=1e-12)), None)
        p_i0 = record.get("p_i0") if record else None
        if p_i0 is None or len(p_i0) != spec.timeout + 1:
            result.fail(f"lambda={lam:g}: analysis p_i0 missing")
            continue
        if not all(math.isfinite(v) for v in list(values.values()) + p_i0):
            result.fail(f"lambda={lam:g}: non-finite value")
            continue
        rate, cost = values["analytic_rate"], values["analytic_cost"]
        if not 0.0 < rate <= 1.0:
            result.fail(f"lambda={lam:g}: rate {rate!r} outside (0, 1]")
            continue
        if spec.monte_carlo:
            z = max(_z(values["empirical_rate"], rate, values["rate_stderr"]),
                    _z(values["empirical_cost"], cost, values["cost_stderr"]))
            result.max_z = max(result.max_z, z)
            if not z <= z_limit:
                result.fail(f"lambda={lam:g}: Monte Carlo off by {z:.2f} stderr")
                continue
        if trace_problem:
            result.fail(f"lambda={lam:g}: {trace_problem}")
            continue
        p_ref, rate_ref, cost_ref = refs.point(lam_out)
        result.p_i0_err = max([result.p_i0_err] + [
            refs.abs_err(got, want) for got, want in zip(p_i0, p_ref)])
        result.rate_err = max(result.rate_err,
                              refs.abs_err(rate, rate_ref) / float(rate_ref))
        result.cost_err = max(result.cost_err,
                              refs.abs_err(cost, cost_ref) / float(cost_ref))
    return result


# ----------------------------------------------------------------- traces

def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced invocation's spans.

    Every `_s` metric is a self time: the span's duration minus the part
    its child spans cover, summed over calls. Leaves have no children.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            child[span["parent"]] += dur[i]
    self_s, total, longest = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, sums, last = defaultdict(int), defaultdict(float), {}
    for i, span in enumerate(spans):
        name = span["name"]
        self_s[name] += dur[i] - child[i]
        total[name] += dur[i]
        longest[name] = max(longest[name], dur[i])
        calls[name] += 1
        for key in ("run_steps", "rows", "bytes", "points"):
            if key in span:
                sums[f"{name}.{key}"] += span[key]
        if "iterations" in span:
            last[name] = (span["iterations"], span["residual"])

    run_steps = sums["simulation.run_closed_loop.run_steps"]
    points = sums["control.cost_tradeoff_curve.points"]
    kf_it, kf_res = last.get("estimation.kf_steady_state", (0, 0.0))
    ct_it, ct_res = last.get("control.control_steady_state", (0, 0.0))
    return {
        "config.load_config_s": self_s["config.load_config"],
        "model.validate_model_s": self_s["model.validate_model"],
        "estimation.kf_steady_state_s": self_s["estimation.kf_steady_state"],
        "estimation.kf_iterations": kf_it,
        "estimation.kf_residual": kf_res,
        "control.control_steady_state_s": self_s["control.control_steady_state"],
        "control.control_iterations": ct_it,
        "control.control_residual": ct_res,
        "analysis.transition_matrix_s": self_s["analysis.transition_matrix"],
        "analysis.transition_matrix_calls": calls["analysis.transition_matrix"],
        "analysis.transition_matrix_max_ms":
            1e3 * longest["analysis.transition_matrix"],
        "analysis.conditional_error_cov_s":
            self_s["analysis.conditional_error_cov"],
        "analysis.per_lambda_ms":
            1e3 * total["control.cost_tradeoff_curve"] / points if points else 0.0,
        "analysis.analysis_record_s": self_s["analysis.analysis_record"],
        "control.infinite_horizon_cost_s": self_s["control.infinite_horizon_cost"],
        "control.cost_tradeoff_curve_self_s": self_s["control.cost_tradeoff_curve"],
        "simulation.run_closed_loop_s": self_s["simulation.run_closed_loop"],
        "simulation.run_steps": run_steps,
        "simulation.ns_per_run_step":
            1e9 * total["simulation.run_closed_loop"] / run_steps if run_steps else 0.0,
        "simulation.aggregate_runs_s": self_s["simulation.aggregate_runs"],
        "cli.trace_csv_s": self_s["cli.trace_csv"],
        "cli.trace_rows": sums["cli.trace_csv.rows"],
        "cli.write_atomic_s": self_s["cli.write_atomic"],
        "cli.files_written": calls["cli.write_atomic"],
        "cli.bytes_written": sums["cli.write_atomic.bytes"],
        "cli.self_s": self_s["cli.main"],
        "trace.main_s": total["cli.main"],
    }


# ------------------------------------------------------------ environment

def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    threads = "unknown"
    # numpy wheels bundle OpenBLAS next to the package; numpy has loaded it
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    try:
        for lib in libs:
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(dll, sym):
                    threads = str(getattr(dll, sym)())
                    break
    except OSError:
        pass
    return f"blas={vendor!r} blas_threads={threads}"


def environment() -> str:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        commit = "none"
    return (f"commit={commit} python={sys.version.split()[0]} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"mpmath={mpmath.__version__} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} {_blas()}")


# -------------------------------------------------------------------- run

def _declared() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def _stats(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    samples = " ".join(f"{v:.4g}" for v in values)
    return (f"median {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}: "
            f"{samples})")


class Runner:
    def __init__(self, spec: Spec, work: Path):
        self.spec = spec
        self.work = work
        self.refs = ReferenceCache(spec)
        sim = spec.simulation
        self.z_limit = _z_limit(sim["runs"]) if spec.monte_carlo else math.inf
        self.checks: list[Checked] = []
        self._count = 0
        for lam in spec.grid:      # the 50-digit reference, before any timing
            self.refs.point(lam)

    def invoke(self, traced: bool):
        """One CLI invocation plus its checks: (wall, rss, spans or None)."""
        self._count += 1
        out_dir = self.work / f"out{self._count}"
        log = self.work / f"cli{self._count}.log"
        cli_args = self.spec.cli_args(out_dir)
        if traced:
            spans_path = self.work / f"spans{self._count}.json"
            args = [str(Path(__file__).parent / "traced_cli.py"),
                    str(spans_path)] + cli_args
        else:
            args = ["-m", "etlqg.cli"] + cli_args
        wall, code, rss = spawn(args, log, self.work)
        checked = check_outputs(out_dir, code, self.spec, self.refs, self.z_limit)
        if checked.problems:
            print(f"invocation {self._count} problems: "
                  + "; ".join(checked.problems[:5]), file=sys.stderr)
            if code != 0:
                print(_tail(log), file=sys.stderr)
        self.checks.append(checked)
        spans = None
        if traced and code == 0:
            spans = json.loads(spans_path.read_text())["spans"]
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall, rss, spans

    def repeat(self, seconds: float, cycle) -> None:
        """Run cycle() at least once, then while half a cycle still fits.

        Cycles are several seconds long, so this keeps the measured time
        close to `seconds` on average rather than always below it.
        """
        start = time.perf_counter()
        lengths = []
        while True:
            began = time.perf_counter()
            cycle()
            lengths.append(time.perf_counter() - began)
            left = seconds - (time.perf_counter() - start)
            if left < statistics.median(lengths) / 2:
                return


def run_untraced(runner: Runner, seconds: float, units: dict) -> dict:
    walls, rss = [], []

    def cycle():
        wall, peak, _ = runner.invoke(traced=False)
        walls.append(wall)
        rss.append(peak)

    setup = measure_setup(runner.spec, runner.work)
    runner.repeat(seconds, cycle)
    checks = runner.checks
    series = {
        "wall_s": walls,
        "setup_s": setup,
        "peak_rss_mb": rss,
        "p_i0_err_max": [max(ERR_FLOOR, c.p_i0_err) for c in checks],
        "rate_rel_err_max": [max(ERR_FLOOR, c.rate_err) for c in checks],
        "cost_rel_err_max": [max(ERR_FLOOR, c.cost_err) for c in checks],
    }
    print("errors before the floor: "
          f"p_i0 {max(c.p_i0_err for c in checks):.3e} abs, "
          f"rate {max(c.rate_err for c in checks):.3e} rel, "
          f"cost {max(c.cost_err for c in checks):.3e} rel")
    metrics = {}
    for name, values in series.items():
        # timings and memory: median; errors: the worst invocation
        value = max(values) if name.endswith("_err_max") else statistics.median(values)
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name}: {value!r} {units[name]}  {_stats(values)}")
    return metrics


def run_traced(runner: Runner, seconds: float, units: dict) -> dict:
    samples = defaultdict(list)

    def cycle():
        plain_wall, _, _ = runner.invoke(traced=False)
        traced_wall, _, spans = runner.invoke(traced=True)
        if spans is None:
            return
        layers = layer_metrics(spans)
        main_s = layers.pop("trace.main_s")
        layers["trace.wall_s"] = traced_wall
        layers["trace.setup_s"] = traced_wall - main_s
        layers["trace.overhead_s"] = traced_wall - plain_wall
        for name, value in layers.items():
            samples[name].append(value)

    runner.repeat(seconds, cycle)
    if not samples:
        raise BenchError("no traced invocation succeeded")
    metrics = {}
    for name, values in samples.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name}: {value!r} {units[name]}  {_stats(values)}")
    self_total = sum(v["value"] for k, v in metrics.items()
                     if k.endswith("_s") and not k.startswith("trace."))
    print(f"accounting: layer self-times incl. cli.self_s {self_total:.4f} s "
          f"+ trace.setup_s {metrics['trace.setup_s']['value']:.4f} s "
          f"vs trace.wall_s {metrics['trace.wall_s']['value']:.4f} s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "etlqg" / "cli.py").is_file():
        print(f"error: no etlqg sources under {SRC}", file=sys.stderr)
        return 2
    declared = _declared()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}.", dir=WORK))
    try:
        spec = make_spec(args.workload, args.seed, work)
        print(f"env: {environment()}")
        print(f"workload={args.workload} seed={args.seed} cli_seed={spec.seed} "
              f"trace={args.trace} points={len(spec.grid)} "
              f"timeout={spec.timeout}")
        runner = Runner(spec, work)
        if args.trace:
            metrics = run_traced(runner, args.seconds, declared["per_layer"])
            wanted = declared["per_layer"]
        else:
            metrics = run_untraced(runner, args.seconds, declared["end_to_end"])
            wanted = declared["end_to_end"]
        if set(metrics) != set(wanted):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(wanted))} "
                             "disagree with BENCHMARK.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    checks = runner.checks
    attempted = sum(c.ops_total for c in checks)
    failed = sum(c.ops_failed for c in checks)
    hashes = sorted({c.sha256 for c in checks if c.sha256})
    print(f"ops_total={attempted} ops_failed={failed} invocations={len(checks)}")
    print(f"max_mc_z={max(c.max_z for c in checks):.3f} "
          f"(limit {runner.z_limit:.3f})")
    print(f"tradeoff_sha256[{args.workload}, seed {args.seed}]: "
          + (", ".join(hashes) or "none"))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
