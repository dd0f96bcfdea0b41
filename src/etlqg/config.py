"""Experiment configuration: a YAML/JSON document with four blocks.

model:      system matrices as nested lists (A B C W V Q R X0 required;
            Qf defaults to Q, x0_mean defaults to zeros)
scheduler:  timeout plus lambda_grid, either an explicit increasing list or
            a log-spaced {min, max, count} mapping
simulation: runs, horizon, seed, burn_in, record_trace (all optional)
output:     directory, formats (csv/json), emit_plot_data

Unknown keys inside a block raise ConfigError naming the field; unknown
top-level keys are ignored so an emitted manifest re-ingests as a config.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import SystemModel
from .simulation import DEFAULT_BURN_IN

DEFAULT_RUNS = 1000
DEFAULT_HORIZON = 2000
DEFAULT_SEED = 12345
DEFAULT_OUT_DIR = "./results"
OUT_DIR_ENV_VAR = "ETLQG_OUT_DIR"
_FORMATS = ("csv", "json")
# The analysis holds per-age arrays and the analysis_*.json texts, whatever n
# is: 126 bytes per lambda and counter value (analyze-only, bundled model, 13
# lambdas: 46.1 MiB at timeout 10000, 93.0 MiB at 40000), counted as 128. A
# config past TABLE_BYTES_MAX so counted is refused before any allocation.
BYTES_PER_LAMBDA_AGE = 128
TABLE_BYTES_MAX = 2**30


@dataclass(frozen=True)
class ExperimentConfig:
    model: SystemModel
    timeout: int
    lambda_grid: tuple[float, ...]
    runs: int
    horizon: int
    seed: int
    burn_in: int
    record_trace: bool
    out_dir: str
    formats: tuple[str, ...]
    emit_plot_data: bool


def default_config_path() -> Path:
    return Path(__file__).parent / "data" / "default_config.yaml"


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(block: dict, allowed, where: str):
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown field")


_SHAPES = {0: "a number", 1: "a list of numbers", 2: "nested lists of numbers"}


def _numbers(value, where: str, ndims=(0,)) -> np.ndarray:
    """value as a float array with one of the given ndims. YAML reads
    true/yes/on as booleans, which are refused, and 1e-2 as a string, which
    float() takes."""
    try:
        arr = np.array(value, dtype=object)
        bools = [v for v in arr.flat if isinstance(v, bool)]
        arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: not numeric ({exc})") from None
    if bools or arr.ndim not in ndims:
        expected = " or ".join(_SHAPES[d] for d in ndims)
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    return arr


def _matrix(block: dict, name: str, required=True):
    if name not in block:
        if required:
            raise ConfigError(f"model.{name}: required matrix missing")
        return None
    return _numbers(block[name], f"model.{name}", (1, 2))


def _int_field(block: dict, name: str, default, where: str, minimum=None):
    value = block.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{name}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{name}: must be >= {minimum}, got {value}")
    return value


def _build_model(block: dict) -> SystemModel:
    _require_mapping(block, "model")
    allowed = ("A", "B", "C", "W", "V", "Q", "Qf", "R", "x0_mean", "X0")
    _reject_unknown(block, allowed, "model")
    mats = {name: _matrix(block, name) for name in
            ("A", "B", "C", "W", "V", "Q", "R", "X0")}
    qf = _matrix(block, "Qf", required=False)
    x0_mean = _matrix(block, "x0_mean", required=False)
    n = mats["A"].shape[0] if mats["A"].ndim == 2 else 0
    if x0_mean is None:
        x0_mean = np.zeros(n)
    return SystemModel(**mats, Qf=mats["Q"] if qf is None else qf,
                       x0_mean=x0_mean)


def _check_table(count: int, timeout: int, field: str):
    """Refuse an analysis of count lambdas past TABLE_BYTES_MAX, naming
    field, or scheduler.timeout if one lambda's analysis passes it."""
    size = BYTES_PER_LAMBDA_AGE * count * (timeout + 1)
    if size > TABLE_BYTES_MAX:
        if size // count > TABLE_BYTES_MAX:
            field = "scheduler.timeout"
        raise ConfigError(
            f"{field}: the analysis of {count} lambdas at timeout {timeout} "
            f"would need {size / 2**30:.1f} GiB, above the "
            f"{TABLE_BYTES_MAX >> 30} GiB bound")


def _expand_lambda_grid(raw, timeout: int) -> tuple[float, ...]:
    where = "scheduler.lambda_grid"
    if isinstance(raw, dict):
        _reject_unknown(raw, ("min", "max", "count"), where)
        missing = [k for k in ("min", "max", "count") if k not in raw]
        if missing:
            raise ConfigError(f"{where}.{missing[0]}: required for log-spaced grid")
        count = raw["count"]
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ConfigError(f"{where}.count: expected a positive integer")
        _check_table(count, timeout, f"{where}.count")
        lo, hi = (float(_numbers(raw[k], f"{where}.{k}")) for k in ("min", "max"))
        if not 0 < lo or not np.isfinite(lo) or not np.isfinite(hi):
            raise ConfigError(f"{where}: min must be positive and finite")
        if count == 1:
            if lo != hi:
                raise ConfigError(f"{where}: count=1 requires min == max")
            grid = np.array([lo])
        else:
            if hi <= lo:
                raise ConfigError(f"{where}: max must exceed min")
            grid = np.logspace(np.log10(lo), np.log10(hi), count)
        values = tuple(float(v) for v in grid)
    elif isinstance(raw, (list, tuple)):
        _check_table(len(raw), timeout, where)
        values = tuple(float(v) for v in _numbers(raw, where, (1,)))
    else:
        raise ConfigError(f"{where}: expected a list or a {{min,max,count}} mapping")
    if not values:
        raise ConfigError(f"{where}: must be nonempty")
    if any(not np.isfinite(v) or v <= 0 for v in values):
        raise ConfigError(f"{where}: entries must be positive and finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{where}: entries must be strictly increasing")
    return values


def _parse_document(text: str, source: str) -> dict:
    """The document in text: JSON if it parses as JSON, else YAML, whose
    parser is imported only then (about 20 ms)."""
    try:
        doc = json.loads(text)
    except ValueError:
        import yaml

        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{source}: parse error: {exc}") from exc
    return _require_mapping(doc, source)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config document (JSON, or else YAML)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    return config_from_dict(_parse_document(text, str(path)))


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Validate config blocks given as plain data; inverts config_to_dict."""
    for required in ("model", "scheduler"):
        if required not in doc:
            raise ConfigError(f"{required}: required block missing")
    model = _build_model(doc["model"])

    sched = _require_mapping(doc["scheduler"], "scheduler")
    _reject_unknown(sched, ("timeout", "lambda_grid"), "scheduler")
    if "timeout" not in sched:
        raise ConfigError("scheduler.timeout: required field missing")
    timeout = _int_field(sched, "timeout", None, "scheduler", minimum=1)
    if "lambda_grid" not in sched:
        raise ConfigError("scheduler.lambda_grid: required field missing")
    grid = _expand_lambda_grid(sched["lambda_grid"], timeout)

    sim = _require_mapping(doc.get("simulation", {}), "simulation")
    _reject_unknown(sim, ("runs", "horizon", "seed", "burn_in", "record_trace"),
                    "simulation")
    runs = _int_field(sim, "runs", DEFAULT_RUNS, "simulation", minimum=0)
    horizon = _int_field(sim, "horizon", DEFAULT_HORIZON, "simulation", minimum=1)
    seed = _int_field(sim, "seed", DEFAULT_SEED, "simulation", minimum=0)
    burn_in = _int_field(sim, "burn_in", DEFAULT_BURN_IN, "simulation", minimum=0)
    if burn_in >= horizon:
        raise ConfigError(
            f"simulation.burn_in: must be < horizon, got {burn_in} >= {horizon}")
    record_trace = sim.get("record_trace", False)
    if not isinstance(record_trace, bool):
        raise ConfigError("simulation.record_trace: expected a boolean")

    out = _require_mapping(doc.get("output", {}), "output")
    _reject_unknown(out, ("directory", "formats", "emit_plot_data"), "output")
    out_dir = out.get("directory",
                      os.environ.get(OUT_DIR_ENV_VAR, DEFAULT_OUT_DIR))
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.directory: expected a nonempty string")
    formats = out.get("formats", list(_FORMATS))
    if not isinstance(formats, (list, tuple)) or not formats:
        raise ConfigError("output.formats: expected a nonempty list")
    for fmt in formats:
        if fmt not in _FORMATS:
            raise ConfigError(f"output.formats: unknown format {fmt!r}")
    emit_plot_data = out.get("emit_plot_data", False)
    if not isinstance(emit_plot_data, bool):
        raise ConfigError("output.emit_plot_data: expected a boolean")

    return ExperimentConfig(model=model, timeout=timeout, lambda_grid=grid,
                            runs=runs, horizon=horizon, seed=seed,
                            burn_in=burn_in, record_trace=record_trace,
                            out_dir=out_dir, formats=tuple(formats),
                            emit_plot_data=emit_plot_data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Config blocks as plain data; the lambda grid is echoed expanded."""
    return {
        "model": {f.name: getattr(cfg.model, f.name).tolist()
                  for f in fields(cfg.model)},
        "scheduler": {
            "timeout": cfg.timeout,
            "lambda_grid": list(cfg.lambda_grid),
        },
        "simulation": {
            "runs": cfg.runs, "horizon": cfg.horizon, "seed": cfg.seed,
            "burn_in": cfg.burn_in, "record_trace": cfg.record_trace,
        },
        "output": {
            "directory": cfg.out_dir, "formats": list(cfg.formats),
            "emit_plot_data": cfg.emit_plot_data,
        },
    }
