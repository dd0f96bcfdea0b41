"""End-to-end tests of the command line interface.

Each test drives `main` with a config written into tmp_path and inspects
exit codes, stdout/stderr and the artifact files.
"""

import dataclasses
import errno
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import etlqg
from etlqg import (
    ConvergenceError,
    DivergenceError,
    SimConfig,
    SystemModel,
    aggregate_runs,
    control_steady_state,
    cost_tradeoff_curve,
    default_config_path,
    kf_steady_state,
    load_config,
)
from etlqg import cli, simulation
from etlqg.cli import TRADEOFF_HEADER, _trace_csv, main
from etlqg.config import config_to_dict
from etlqg.simulation import TraceBlock

from conftest import traced_grid


def base_config(out_dir, **overrides):
    doc = {
        "model": {
            "A": [[1.2, 1.0], [0.0, 0.9]],
            "B": [[0.0], [1.0]],
            "C": [[1.0, 0.0]],
            "W": [[1.0, 0.5], [0.5, 1.0]],
            "V": [[1.0]],
            "Q": [[2.0, 0.5], [0.5, 2.0]],
            "R": [[1.0]],
            "X0": [[1.0, 0.5], [0.5, 1.0]],
        },
        "scheduler": {"timeout": 6, "lambda_grid": [0.5, 2.0]},
        "simulation": {"runs": 8, "horizon": 120, "seed": 424, "burn_in": 20},
        "output": {"directory": str(out_dir), "formats": ["csv", "json"]},
    }
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))  # JSON is a YAML subset
    return path


def read_rows(out_dir):
    lines = (out_dir / "tradeoff.csv").read_text().splitlines()
    assert lines[0] == TRADEOFF_HEADER
    return [line.split(",") for line in lines[1:]]


class TestRunCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg)]) == 0
        assert (out / "tradeoff.csv").is_file()
        assert (out / "analysis_0.5.json").is_file()
        assert (out / "analysis_2.0.json").is_file()
        assert (out / "manifest.json").is_file()
        stdout = capsys.readouterr().out
        assert "lambda=0.5" in stdout
        assert "artifacts written" in stdout

    def test_tradeoff_rows_fully_populated(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg)]) == 0
        rows = read_rows(out)
        assert len(rows) == 2
        for row in rows:
            assert len(row) == 7
            assert all(cell for cell in row)
            values = [float(cell) for cell in row]
            assert 0.0 < values[1] <= 1.0   # analytic rate
            assert values[4] > 0.0          # analytic cost

    def test_rows_are_the_library_values(self, tmp_path):
        # the analysis' rate and cost, and aggregate_runs over the lockstep
        # grid's runs, each cell read back exactly
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg_path)]) == 0
        cfg = load_config(cfg_path)
        filt = kf_steady_state(cfg.model)
        ctrl = control_steady_state(cfg.model)
        points = cost_tradeoff_curve(cfg.model, cfg.lambda_grid, cfg.timeout,
                                     ss=filt, cs=ctrl)
        sim_cfg = SimConfig(model=cfg.model, timeout=cfg.timeout,
                            horizon=cfg.horizon, runs=cfg.runs, seed=cfg.seed,
                            burn_in=cfg.burn_in)
        rates, costs = simulation.run_closed_loop_grid(
            sim_cfg, filt, ctrl, cfg.lambda_grid)
        rows = read_rows(out)
        assert len(rows) == len(points) == 2
        for row, point, run_rates, run_costs in zip(rows, points, rates, costs):
            want = [point.lam, point.rate, *aggregate_runs(run_rates),
                    point.cost, *aggregate_runs(run_costs)]
            assert [float(cell) for cell in row] == want

    def test_analysis_record_contents(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg)]) == 0
        record = json.loads((out / "analysis_0.5.json").read_text())
        assert record["lambda"] == 0.5
        assert record["timeout"] == 6
        assert len(record["p_i0"]) == 7
        assert record["cost"]["total"] == pytest.approx(
            record["cost"]["base"] + record["cost"]["filter_term"]
            + record["cost"]["trigger_term"])

    def test_manifest_roundtrip_reproduces_results(self, tmp_path):
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        cfg = write_config(tmp_path, base_config(out1))
        assert main(["run", str(cfg)]) == 0

        manifest = out1 / "manifest.json"
        reloaded = load_config(manifest)
        original = load_config(cfg)
        assert config_to_dict(reloaded) == config_to_dict(original)

        assert main(["run", str(manifest), "--out-dir", str(out2)]) == 0
        assert (out2 / "tradeoff.csv").read_bytes() == (
            out1 / "tradeoff.csv").read_bytes()

    def test_zero_runs_leaves_empirical_blank(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg), "--runs", "0"]) == 0
        for row in read_rows(out):
            assert row[1] and row[4]
            assert row[2] == row[3] == row[5] == row[6] == ""

    def test_single_run_blank_stderr_cells(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg), "--runs", "1"]) == 0
        for row in read_rows(out):
            assert row[2] and row[5]          # empirical mean present
            assert row[3] == row[6] == ""     # no stderr from one run

    def test_extreme_sensitivity_cost_near_always_send_limit(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, scheduler={"timeout": 50, "lambda_grid": [1e6]})
        doc["simulation"]["runs"] = 0
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg)]) == 0
        (row,) = read_rows(out)
        assert abs(float(row[4]) - 53.23) <= 0.05
        assert (out / "analysis_1000000.0.json").is_file()

    def test_nested_out_dir_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg), "--runs", "0"]) == 0
        assert (out / "tradeoff.csv").is_file()

    def test_flag_overrides_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg), "--seed", "7", "--runs", "3",
                     "--horizon", "90"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["simulation"]["seed"] == 7
        assert manifest["simulation"]["runs"] == 3
        assert manifest["simulation"]["horizon"] == 90
        assert manifest["generated_by"] == "etlqg"

    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("ETLQG_OUT_DIR", str(env_dir))
        doc = base_config(None, output=None)  # no output block at all
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--runs", "0"]) == 0
        assert (env_dir / "tradeoff.csv").is_file()

    def test_plot_script_flag(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg), "--runs", "0", "--plot-script"]) == 0
        script = (out / "plot.gp").read_text()
        assert "tradeoff.csv" in script
        assert "plot" in script

    def test_no_partial_files_left_behind(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg)]) == 0
        leftovers = list(out.glob("*.part")) + list(out.glob("*.tmp"))
        assert leftovers == []

    def test_csv_only_format_selection(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["output"]["formats"] = ["csv"]
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--runs", "0"]) == 0
        assert (out / "tradeoff.csv").is_file()
        assert list(out.glob("analysis_*.json")) == []
        assert (out / "manifest.json").is_file()  # manifest always written

    def test_close_grid_points_write_distinct_artifacts(self, tmp_path):
        # the points differ only in the eighth significant digit; each still
        # gets its own analysis record and trace files
        out = tmp_path / "out"
        doc = base_config(out, scheduler={"timeout": 6,
                                          "lambda_grid": [1.0000001, 1.0000002]})
        doc["simulation"] = {"runs": 2, "horizon": 30, "seed": 5, "burn_in": 5,
                             "record_trace": True}
        assert main(["run", str(write_config(tmp_path, doc))]) == 0
        records = sorted(out.glob("analysis_*.json"))
        assert [p.name for p in records] == ["analysis_1.0000001.json",
                                             "analysis_1.0000002.json"]
        lams = [json.loads(p.read_text())["lambda"] for p in records]
        assert lams == [1.0000001, 1.0000002]
        assert len(list(out.glob("trace_*.csv"))) == 4


class TestTraceOutput:
    def test_trace_files_match_engine_output(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, scheduler={"timeout": 6, "lambda_grid": [1.0]})
        doc["simulation"] = {"runs": 2, "horizon": 30, "seed": 99, "burn_in": 5,
                             "record_trace": True}
        cfg_path = write_config(tmp_path, doc)
        assert main(["run", str(cfg_path)]) == 0

        names = sorted(p.name for p in out.glob("trace_*.csv"))
        assert names == ["trace_lam1.0_run0000.csv", "trace_lam1.0_run0001.csv"]

        lines = (out / "trace_lam1.0_run0000.csv").read_text().splitlines()
        assert lines[0] == "k,sigma,tau,x1,x2,u1,e1,e2"
        assert len(lines) == 31

        # 17 significant digits must reproduce the engine arrays bitwise
        cfg = load_config(cfg_path)
        sim_cfg = SimConfig(model=cfg.model, timeout=6, horizon=30, runs=2,
                            seed=99, burn_in=5)
        filt = kf_steady_state(cfg.model)
        ctrl = control_steady_state(cfg.model)
        _, _, (traces,) = traced_grid(sim_cfg, filt, ctrl, [1.0])
        for k, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == k
            assert int(cells[1]) == traces[0].sigma[k]
            assert int(cells[2]) == traces[0].tau[k]
            assert float(cells[3]) == traces[0].x[k, 0]
            assert float(cells[4]) == traces[0].x[k, 1]
            assert float(cells[5]) == traces[0].u[k, 0]
            assert float(cells[6]) == traces[0].e_filt[k, 0]
            assert float(cells[7]) == traces[0].e_filt[k, 1]


def reference_trace_csv(trace, n, m):
    """Per-cell trace writer: the reference for the CLI's block writer."""
    def fmt(value):
        return f"{float(value):.17g}"

    cols = (["k", "sigma", "tau"] + [f"x{i + 1}" for i in range(n)]
            + [f"u{i + 1}" for i in range(m)] + [f"e{i + 1}" for i in range(n)])
    lines = [",".join(cols)]
    for k in range(trace.sigma.shape[0]):
        cells = [str(k), str(int(trace.sigma[k])), str(int(trace.tau[k]))]
        cells += [fmt(v) for v in trace.x[k]]
        cells += [fmt(v) for v in trace.u[k]]
        cells += [fmt(v) for v in trace.e_filt[k]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    # line by line: a failing whole-text compare makes pytest diff megabytes
    got_lines = got.splitlines(keepends=True)
    want_lines = want.splitlines(keepends=True)
    for k, (a, b) in enumerate(zip(got_lines, want_lines)):
        assert a == b, f"line {k}"
    assert len(got_lines) == len(want_lines)


def simulated_trace(model, horizon):
    cfg = SimConfig(model=model, timeout=6, horizon=horizon, runs=1, seed=5,
                    burn_in=0)
    _, _, ((trace,),) = traced_grid(cfg, kf_steady_state(model),
                                    control_steady_state(model), [1.0])
    return trace


class TestTraceWriter:
    def test_bundled_model_trace(self):
        model = load_config(default_config_path()).model
        # longer than one block of rows, with a partial last block
        trace = simulated_trace(model, 4500)
        assert_same_text(_trace_csv(trace), reference_trace_csv(trace, 2, 1))

    def test_special_values(self):
        # nan and inf reach a trace when the divergence guard is off
        specials = np.array([-0.0, 1e-300, 1e300, 0.1, np.nan, np.inf, -np.inf])
        horizon = 9
        cells = np.resize(specials, horizon * 5).reshape(horizon, 5)
        trace = TraceBlock(
            start=0, x=cells[:, :2], u=cells[:, 2:3], e_filt=cells[:, 3:],
            sigma=np.arange(horizon, dtype=np.int64) % 2,
            tau=np.arange(horizon, dtype=np.int64))
        text = _trace_csv(trace)
        assert_same_text(text, reference_trace_csv(trace, 2, 1))
        assert "-0," in text and "nan" in text and "-inf" in text

    def test_column_order_three_states_two_inputs(self):
        model = SystemModel(
            A=np.array([[1.1, 0.2, 0.0], [0.0, 0.9, 0.3], [0.1, 0.0, 0.8]]),
            B=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
            C=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            W=np.eye(3), V=np.eye(2), Q=np.eye(3), Qf=np.eye(3), R=np.eye(2),
            x0_mean=np.zeros(3), X0=np.eye(3))
        trace = simulated_trace(model, 40)
        text = _trace_csv(trace)
        assert_same_text(text, reference_trace_csv(trace, 3, 2))
        lines = text.splitlines()
        assert lines[0] == "k,sigma,tau,x1,x2,x3,u1,u2,e1,e2,e3"
        cells = [float(c) for c in lines[7].split(",")]
        np.testing.assert_array_equal(
            cells[3:], np.concatenate([trace.x[6], trace.u[6], trace.e_filt[6]]))


class TestAnalyzeOnly:
    def test_skips_simulation(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))  # runs=8 in config
        assert main(["analyze-only", str(cfg)]) == 0
        for row in read_rows(out):
            assert row[2] == row[3] == row[5] == row[6] == ""

    def test_bundled_default_config(self, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze-only", "--out-dir", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 13  # bundled grid size
        rates = [float(r[1]) for r in rows]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("command", [["analyze-only"],
                                         ["run", "--runs", "2", "--horizon", "300"]])
    def test_runtime_does_not_import_scipy(self, tmp_path, command):
        # scipy is a test-only dependency: a fresh interpreter running the
        # CLI on the bundled config must never load it
        code = ("import sys\n"
                "from etlqg.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                "sys.exit(code)\n")
        src = str(Path(etlqg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-c", code, *command, "--out-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestValidateCommand:
    def test_valid_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["validate", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "model valid" in stdout
        assert "[PASS]" in stdout
        assert "controllable(A,B)" in stdout

    def test_bundled_default_model_is_valid(self, capsys):
        assert main(["validate"]) == 0
        assert "model valid" in capsys.readouterr().out

    def test_assumption_failure_exits_2(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        # second state never reachable from the input
        doc["model"]["A"] = [[1.1, 0.0], [0.0, 0.9]]
        doc["model"]["B"] = [[0.0], [1.0]]
        cfg = write_config(tmp_path, doc)
        assert main(["validate", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "model validation failed" in err
        assert "controllable(A,B)" in err
        assert "[FAIL]" in err

    def test_construction_error_exits_2(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["model"]["W"] = [[1.0, 0.0], [0.0, -1.0]]
        cfg = write_config(tmp_path, doc)
        assert main(["validate", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_also_gated_by_validation(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["model"]["A"] = [[1.1, 0.0], [0.0, 0.9]]
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()


class TestConfigErrors:
    def test_unknown_model_field(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out")
        doc["model"]["Z"] = [[1.0]]
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "invalid config" in err
        assert "model.Z: unknown field" in err

    def test_missing_scheduler_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path / "out", scheduler=None))
        assert main(["run", str(cfg)]) == 1
        assert "scheduler: required block missing" in capsys.readouterr().err

    def test_decreasing_grid(self, tmp_path, capsys):
        doc = base_config(tmp_path / "out",
                          scheduler={"timeout": 6, "lambda_grid": [2.0, 0.5]})
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg)]) == 1
        assert "strictly increasing" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1
        assert "invalid config" in capsys.readouterr().err

    def test_negative_runs_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["run", str(cfg), "--runs", "-1"]) == 1
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "2"])
    def test_negative_seed_flag(self, tmp_path, capsys, runs):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out))
        assert main(["run", str(cfg), "--seed", "-1", "--runs", runs]) == 1
        assert "simulation.seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_out_dir_flag(self, tmp_path, capsys, monkeypatch):
        # the config rejects an empty output.directory; so must the flag,
        # before anything is written into the working directory
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        monkeypatch.chdir(tmp_path)
        assert main(["analyze-only", str(cfg), "--out-dir", ""]) == 1
        assert ("output.directory: expected a nonempty string"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]

    @pytest.mark.parametrize("under", [False, True],
                             ids=["a_file", "under_a_file"])
    def test_unusable_out_dir(self, tmp_path, capsys, under):
        # --out-dir names a file, or a path under one: exit 1, the field
        # named, and nothing written
        cfg = write_config(tmp_path, base_config(tmp_path / "unused"))
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / "out" if under else blocker
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"invalid config: output.directory: cannot create {out}: " in err
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "blocker", "config.yaml"]

    @pytest.mark.parametrize("field, old, new", [
        ("scheduler.lambda_grid", "{min: 0.01, max: 100.0, count: 13}",
         "[true, 2.0]"),
        ("scheduler.lambda_grid", "{min: 0.01, max: 100.0, count: 13}",
         "[yes, 2.0]"),
        ("scheduler.lambda_grid", "{min: 0.01, max: 100.0, count: 13}",
         "[0.5, on]"),
        ("scheduler.lambda_grid.max", "max: 100.0", "max: true"),
        ("scheduler.lambda_grid.min", "min: 0.01", "min: yes"),
        ("model.A", "[[1.2, 1.0]", "[[1.2, true]"),
    ])
    def test_booleans_are_not_numbers(self, tmp_path, capsys, field, old, new):
        text = default_config_path().read_text()
        assert old in text
        cfg = tmp_path / "config.yaml"
        cfg.write_text(text.replace(old, new))
        assert main(["validate", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{field}: expected " in err
        assert "True" in err

    def test_numeric_strings_still_load(self, tmp_path):
        # PyYAML reads 1e-2 (no dot) as the string '1e-2'
        text = default_config_path().read_text()
        cfg = tmp_path / "config.yaml"
        cfg.write_text(text.replace("{min: 0.01, max: 100.0, count: 13}",
                                    "[1e-2, 2.0]")
                           .replace("[[1.2, 1.0]", "[[1.2, 1e0]"))
        loaded = load_config(cfg)
        assert loaded.lambda_grid == (0.01, 2.0)
        assert loaded.model.A[0, 1] == 1.0
        cfg.write_text(text.replace("{min: 0.01, max: 100.0, count: 13}",
                                    "{min: 1e-2, max: 1e2, count: 3}"))
        assert load_config(cfg).lambda_grid == (0.01, 1.0, 100.0)


class TestSolverFailureExit:
    @pytest.mark.parametrize("command", ["analyze-only", "run"])
    def test_overflowing_lambda_exits_3(self, tmp_path, capsys, command):
        # 2 * 1e308 overflows: the pass yields NaN, which used to pass the
        # range check and reach tradeoff.csv and the JSON artifacts
        out = tmp_path / "out"
        doc = base_config(out, scheduler={"timeout": 6,
                                          "lambda_grid": [1.0, 1e308]})
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(cfg)]) == 3
        assert "lambda=1e+308" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze-only", "run"])
    def test_singular_conditioning_solve_exits_3(self, tmp_path, capsys,
                                                 command):
        # 1e306 lies above LAMBDA_MAX, so the pass exits on that check before
        # any solve; test_analysis.py reaches the singular-solve error
        out = tmp_path / "out"
        doc = base_config(out, scheduler={"timeout": 6,
                                          "lambda_grid": [1.0, 1e306]})
        cfg = write_config(tmp_path, doc)
        assert main([command, str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "lambda=1e+306: " in err
        assert not out.exists()

    def test_nonconvergence_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(model, *a, **kw):
            raise ConvergenceError("steady-state filter iteration",
                                   residual=0.5, iterations=7, relative=0.25)

        monkeypatch.setattr("etlqg.cli.kf_steady_state", broken)
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "steady-state filter iteration" in err
        assert re.search(r"residual 5\.0*e-01", err)


class TestSplitSweep:
    """A sweep split across worker processes writes the in-process bytes.

    Traced sweeps split as untraced ones do: each process appends to the
    trace files of its own runs.
    """

    @staticmethod
    def _split(monkeypatch):
        # every sweep splits, across two processes
        monkeypatch.setattr(cli, "_SPLIT_MIN_RUN_STEPS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pools = []
        real = cli._worker_pool

        def counted(workers):
            pools.append(workers)
            return real(workers)

        monkeypatch.setattr(cli, "_worker_pool", counted)
        return pools

    @staticmethod
    def _config(tmp_path, runs, horizon=150, record_trace=True):
        doc = base_config(tmp_path / "unused",
                          scheduler={"timeout": 6, "lambda_grid": [0.5, 2.0, 8.0]})
        doc["simulation"] = {"runs": runs, "horizon": horizon, "seed": 7,
                             "burn_in": 10, "record_trace": record_trace}
        return write_config(tmp_path, doc)

    @staticmethod
    def _artifacts(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "manifest.json"}  # the manifest echoes --out-dir

    @pytest.mark.parametrize("runs,budget", [(4, None), (6, 1)])
    def test_outputs_byte_identical_to_in_process(self, tmp_path, monkeypatch,
                                                  runs, budget):
        # budget 1: this process's slice of 3 runs is one chunk, the least
        # its 2-run floor allows
        if budget is not None:
            monkeypatch.setattr(simulation, "TRACE_BUDGET_BYTES", budget)
        cfg = self._config(tmp_path, runs)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "serial")]) == 0
        pools = self._split(monkeypatch)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "split")]) == 0
        assert pools == [1]
        serial = self._artifacts(tmp_path / "serial")
        split = self._artifacts(tmp_path / "split")
        assert len([n for n in split if n.startswith("trace_")]) == 3 * runs
        assert len([n for n in split if n.startswith("analysis_")]) == 3
        assert "tradeoff.csv" in split
        assert split == serial

    def test_divergence_exits_3_like_in_process(self, tmp_path, monkeypatch,
                                                capsys):
        # zero feedback leaves the unstable plant to cross the guard
        real = cli.control_steady_state
        monkeypatch.setattr(cli, "control_steady_state", lambda model: (
            dataclasses.replace(real(model), L_inf=np.zeros((1, 2)))))
        cfg = self._config(tmp_path, runs=4, horizon=400)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "serial")]) == 3
        want = capsys.readouterr().err
        # the first crossing lies in runs 2 and 3: the worker's slice
        assert re.search(r"lambda 0\.5, run [23]\)", want)
        pools = self._split(monkeypatch)
        out = tmp_path / "split"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 3
        assert pools == [1]
        assert capsys.readouterr().err == want
        assert not list(out.glob("trace_*.csv"))
        assert not list(out.glob("*.part"))

    def test_untraced_split_byte_identical_to_in_process(self, tmp_path,
                                                         monkeypatch):
        cfg = self._config(tmp_path, runs=6, record_trace=False)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "serial")]) == 0
        pools = self._split(monkeypatch)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "split")]) == 0
        assert pools == [1]
        split = self._artifacts(tmp_path / "split")
        assert sorted(split) == ["analysis_0.5.json", "analysis_2.0.json",
                                 "analysis_8.0.json", "tradeoff.csv"]
        assert split == self._artifacts(tmp_path / "serial")

    def test_slices_cover_the_runs_in_order(self, bench_model, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))

        def slices(runs, lams, horizon):
            sim_cfg = SimConfig(model=bench_model, timeout=6, horizon=horizon,
                                runs=runs, seed=1, burn_in=0)
            return [s for s, _ in cli._split(
                range(runs), cli._processes(sim_cfg, lams), [])]

        # the bundled sweep splits; narrow untraced does not
        assert slices(1000, 13, 2000) == [range(i * 125, (i + 1) * 125)
                                          for i in range(8)]
        assert slices(8, 3, 20000) == [range(8)]
        steps = cli._SPLIT_MIN_RUN_STEPS
        for runs in range(1, 20):
            for lams in (1, 2, 3):
                got = slices(runs, lams, steps)
                assert [r for s in got for r in s] == list(range(runs))
                # one slice per core, each of at least 2 runs
                assert len(got) == max(1, min(8, runs // 2))
                if len(got) > 1:
                    assert min(len(s) for s in got) >= 2

    @staticmethod
    def _python(*args, script=None):
        """Run a fresh interpreter on this checkout's etlqg."""
        src = str(Path(etlqg.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        return subprocess.run([sys.executable, *args], input=script, env=env,
                              capture_output=True, text=True, timeout=300)

    @pytest.mark.parametrize("command", [["analyze-only"],
                                         ["run", "--runs", "2", "--horizon", "300"]])
    def test_unsplit_commands_load_no_pool(self, tmp_path, command):
        code = ("import sys\n"
                "from etlqg.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
                "             ('multiprocessing', 'concurrent')))\n"
                "sys.exit(code)\n")
        done = self._python("-c", code, *command,
                            "--out-dir", str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_main_read_from_stdin_runs_in_process(self, tmp_path):
        # a spawned worker would run '<stdin>' as __main__'s file, fail to
        # find it and break the pool
        cfg = self._config(tmp_path, runs=6, record_trace=False)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "serial")]) == 0
        script = ("import os, sys\n"
                  "from etlqg import cli\n"
                  "cli._SPLIT_MIN_RUN_STEPS = 0\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        done = self._python("-", "run", str(cfg),
                            "--out-dir", str(tmp_path / "stdin"), script=script)
        assert done.returncode == 0, done.stderr
        assert (self._artifacts(tmp_path / "stdin")
                == self._artifacts(tmp_path / "serial"))

    def test_merged_divergence_report_follows_the_unsplit_rule(self):
        # earliest step, then largest |x|, then first lambda, then first run
        reports = [(9, 1, 9e12, 0.5), (7, 3, 2e12, 0.5), (7, 4, 3e12, 2.0),
                   (7, 7, 3e12, 0.5), (7, 8, 3e12, 0.5)]

        def diverge(step, run, value, lam):
            raise DivergenceError(step=step, run=run, value=value, lam=lam)

        jobs = [lambda report=report: diverge(*report) for report in reports]
        with pytest.raises(DivergenceError) as exc:
            cli._join(jobs, [0.5, 2.0, 8.0])
        assert (exc.value.step, exc.value.run) == (7, 7)


class TestStreamedTraces:
    """Each run's trace is appended to its file block by block, by whichever
    process simulates the run, and the sweep writes the bytes of whole
    traces. Blocks are counted in this process only."""

    @staticmethod
    def _streamed(monkeypatch, rows=None):
        # every sweep would split, across two processes; count the blocks
        if rows is not None:
            monkeypatch.setattr(simulation, "_TRACE_BLOCK_STEPS", rows)
        blocks = []
        real = cli._format_block

        def counted(block):
            blocks.append(block.start)
            return real(block)

        monkeypatch.setattr(cli, "_format_block", counted)
        return TestSplitSweep._split(monkeypatch), blocks

    @staticmethod
    def _sweep(tmp_path, name, runs, horizon, **sim):
        doc = base_config(tmp_path / "unused",
                          scheduler={"timeout": 6, "lambda_grid": [0.5, 2.0, 8.0]})
        doc["simulation"] = {"runs": runs, "horizon": horizon, "seed": 7,
                             "burn_in": 10, "record_trace": True, **sim}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / name
        return main(["run", str(cfg), "--out-dir", str(out)]), out

    def test_partial_last_block(self, tmp_path, monkeypatch):
        # 2500 steps: a block of 2048, then one of 452; runs 2 and 3 in a
        # worker
        code, serial = self._sweep(tmp_path, "serial", runs=4, horizon=2500)
        assert code == 0
        want = TestSplitSweep._artifacts(serial)
        # a leftover trace of the same name is replaced
        streamed = tmp_path / "streamed"
        streamed.mkdir()
        (streamed / "trace_lam0.5_run0000.csv").write_text("stale\n")
        pools, blocks = self._streamed(monkeypatch)
        code, _ = self._sweep(tmp_path, "streamed", runs=4, horizon=2500)
        assert code == 0
        assert pools == [1] and blocks == [0, 2048]
        got = TestSplitSweep._artifacts(streamed)
        assert len([n for n in got if n.startswith("trace_")]) == 12
        assert got == want

        # a formatting error in this process's second block propagates once
        # the worker is done; the files of the run before stay whole, and no
        # .part file is left
        real = cli._format_block

        def fail_second(block):
            if block.start:
                raise RuntimeError("format failed")
            return real(block)

        monkeypatch.setattr(cli, "_format_block", fail_second)
        with pytest.raises(RuntimeError, match="format failed"):
            self._sweep(tmp_path, "streamed", runs=4, horizon=2500)
        assert not list(streamed.glob("*.part"))
        assert TestSplitSweep._artifacts(streamed) == want

    @pytest.mark.parametrize("appended", [False, True])
    def test_divergence_exits_3_like_in_process(self, tmp_path, monkeypatch,
                                                capsys, appended):
        # zero feedback leaves the unstable plant to cross the guard
        real = cli.control_steady_state
        monkeypatch.setattr(cli, "control_steady_state", lambda model: (
            dataclasses.replace(real(model), L_inf=np.zeros((1, 2)))))
        code, _ = self._sweep(tmp_path, "serial", runs=4, horizon=400)
        assert code == 3
        want = capsys.readouterr().err
        assert "diverged" in want
        # appended: blocks of 16 rows reach this process's .part files before
        # the crossing; else the crossing comes within the first block. The
        # first crossing lies in the worker's slice (TestSplitSweep)
        pools, blocks = self._streamed(monkeypatch, rows=16 if appended else None)
        code, out = self._sweep(tmp_path, "streamed", runs=4, horizon=400)
        assert code == 3
        assert capsys.readouterr().err == want
        assert pools == [1]
        assert (len(blocks) >= 2) if appended else blocks == []
        assert not list(out.glob("trace_*.csv"))
        assert not list(out.glob("*.part"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_overflow_after_the_crossing_leaves_nothing(self, tmp_path,
                                                        monkeypatch, capsys,
                                                        record_trace):
        # open loop, the guard is passed near step 150 and the state
        # overflows near step 3900, inside the same block of 4096 steps
        real = cli.control_steady_state
        monkeypatch.setattr(cli, "control_steady_state", lambda model: (
            dataclasses.replace(real(model), L_inf=np.zeros((1, 2)))))
        pools, blocks = self._streamed(monkeypatch, rows=4096)
        code, out = self._sweep(tmp_path, "out", runs=2, horizon=4000,
                                record_trace=record_trace)
        assert code == 3
        assert "diverged" in capsys.readouterr().err
        assert pools == [] and blocks == []
        assert list(out.iterdir()) == []


class TestChunkedTraces:
    """A traced slice runs in chunks of runs whose trace blocks fit
    simulation.TRACE_BUDGET_BYTES, and writes the bytes of one chunk."""

    @staticmethod
    def _chunked(monkeypatch):
        # the runs of each run_closed_loop_grid call, with the bytes of each
        # TraceBlock it hands on_block
        calls = []
        real = cli.run_closed_loop_grid

        def counted(sim_cfg, filt, ctrl, lams, runs, on_block):
            blocks = []
            calls.append((runs, blocks))

            def hook(block):
                blocks.append(sum(a.nbytes for a in (
                    block.sigma, block.tau, block.x, block.u, block.e_filt)))
                on_block(block)

            return real(sim_cfg, filt, ctrl, lams, runs, on_block=hook)

        monkeypatch.setattr(cli, "run_closed_loop_grid", counted)
        return calls

    @staticmethod
    def _run_bytes(lams, horizon):
        # a TraceBlock per run: int64 sigma and tau, n = 2 states, m = 1
        # input and n = 2 estimate gaps of float64, and the bool buffer
        # sigma is cast from
        return lams * horizon * (8 * (2 + 2 + 1 + 2) + 1)

    @pytest.mark.parametrize("runs,fit,chunks", [
        (10, 3.5, [2, 3, 2, 3]),  # one lambda's 10 runs outgrow the budget
        (5, 0, [2, 3]),           # nothing fits: the 2-run floor
        (1, 0, [1]),
    ])
    def test_blocks_fit_the_budget(self, tmp_path, monkeypatch, runs, fit,
                                   chunks):
        code, whole = TestStreamedTraces._sweep(tmp_path, "whole", runs=runs,
                                                horizon=300)
        assert code == 0
        budget = max(1, int(fit * self._run_bytes(3, 300)))
        monkeypatch.setattr(simulation, "TRACE_BUDGET_BYTES", budget)
        calls = self._chunked(monkeypatch)
        code, out = TestStreamedTraces._sweep(tmp_path, "chunked", runs=runs,
                                              horizon=300)
        assert code == 0
        assert [len(r) for r, _ in calls] == chunks
        assert [r for runs, _ in calls for r in runs] == list(range(runs))
        for runs, blocks in calls:
            assert len(blocks) == 1
            # a block outgrows the budget only at the 2-run floor
            assert blocks[0] <= budget or (fit < 2 and len(runs) <= 3)
        assert (TestSplitSweep._artifacts(out)
                == TestSplitSweep._artifacts(whole))

    def test_earliest_crossing_in_a_later_chunk(self, tmp_path, monkeypatch,
                                                capsys):
        # zero feedback leaves the unstable plant to cross the guard; seed
        # 7's runs 0 and 1 cross at step 146, runs 2 and 3 at step 138
        real = cli.control_steady_state
        monkeypatch.setattr(cli, "control_steady_state", lambda model: (
            dataclasses.replace(real(model), L_inf=np.zeros((1, 2)))))
        cfg = TestSplitSweep._config(tmp_path, runs=4, horizon=400)
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "whole")]) == 3
        want = capsys.readouterr().err
        assert re.search(r"lambda 0\.5, run [23]\)", want)
        monkeypatch.setattr(simulation, "TRACE_BUDGET_BYTES", 1)
        calls = self._chunked(monkeypatch)
        out = tmp_path / "chunked"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 3
        assert [runs for runs, _ in calls] == [range(0, 2), range(2, 4)]
        assert capsys.readouterr().err == want
        assert list(out.iterdir()) == []


class TestArtifactModes:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_artifacts_get_the_mode_open_gives(self, tmp_path, umask, mode):
        out = tmp_path / "out"
        doc = base_config(out)
        doc["simulation"].update(runs=2, record_trace=True)
        cfg = write_config(tmp_path, doc)
        old = os.umask(umask)
        try:
            assert main(["run", str(cfg)]) == 0
        finally:
            os.umask(old)
        for name in ("tradeoff.csv", "analysis_0.5.json", "manifest.json",
                     "trace_lam0.5_run0000.csv"):
            assert stat.S_IMODE((out / name).stat().st_mode) == mode, name


class TestRerun:
    """A rerun into the same directory leaves only its own artifacts."""

    @staticmethod
    def _run(tmp_path, runs=3, grid=(0.1, 1.0, 10.0), record_trace=True,
             horizon=60):
        doc = base_config(tmp_path / "out",
                          scheduler={"timeout": 6, "lambda_grid": list(grid)})
        doc["simulation"] = {"runs": runs, "horizon": horizon, "seed": 7,
                             "burn_in": 10, "record_trace": record_trace}
        return main(["run", str(write_config(tmp_path, doc))])

    @staticmethod
    def _files(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_fewer_runs_leave_only_the_new_traces(self, tmp_path):
        assert self._run(tmp_path, runs=3) == 0
        out = tmp_path / "out"
        assert len(list(out.glob("trace_*.csv"))) == 9
        assert self._run(tmp_path, runs=2) == 0
        traces = sorted(p.name for p in out.glob("trace_*.csv"))
        assert traces == [f"trace_lam{lam!r}_run{r:04d}.csv"
                          for lam in (0.1, 1.0, 10.0) for r in range(2)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["simulation"]["runs"] == 2

    def test_smaller_grid_leaves_its_analyses_and_other_files(self, tmp_path):
        assert self._run(tmp_path) == 0
        out = tmp_path / "out"
        (out / "notes.txt").write_text("kept\n")
        assert self._run(tmp_path, grid=(0.1, 1.0)) == 0
        assert sorted(p.name for p in out.glob("analysis_*.json")) == [
            "analysis_0.1.json", "analysis_1.0.json"]
        assert (out / "notes.txt").read_text() == "kept\n"
        assert len(read_rows(out)) == 2

    def test_failed_rerun_removes_nothing(self, tmp_path, monkeypatch, capsys):
        assert self._run(tmp_path) == 0
        out = tmp_path / "out"
        before = self._files(out)
        # zero feedback leaves the unstable plant to cross the guard
        real = cli.control_steady_state
        monkeypatch.setattr(cli, "control_steady_state", lambda model: (
            dataclasses.replace(real(model), L_inf=np.zeros((1, 2)))))
        assert self._run(tmp_path, runs=2, record_trace=False,
                         horizon=400) == 3
        assert "diverged" in capsys.readouterr().err
        assert self._files(out) == before

    def test_failed_traced_rerun_keeps_every_file(self, tmp_path, monkeypatch,
                                                  capsys):
        # chunks of 2 runs; seed 2 stays inside this guard, and seed 1 first
        # crosses it at lambda 10.0 in run 2, in the second chunk, after the
        # first chunk's traces are written
        monkeypatch.setattr(simulation, "TRACE_BUDGET_BYTES", 1)
        monkeypatch.setattr(simulation, "DIVERGENCE_LIMIT", 14.66)
        out = tmp_path / "out"
        doc = config_to_dict(load_config(default_config_path()))
        doc["scheduler"]["lambda_grid"] = [1.0, 10.0]
        doc["simulation"].update(runs=4, horizon=600, record_trace=True)
        doc["output"]["directory"] = str(out)
        cfg = write_config(tmp_path, doc)
        assert main(["run", str(cfg), "--seed", "2"]) == 0
        before = self._files(out)
        assert len([name for name in before if name.startswith("trace_")]) == 8
        assert main(["run", str(cfg), "--seed", "1"]) == 3
        assert "(lambda 10.0, run " in capsys.readouterr().err
        assert not list(out.glob("*.part"))
        assert self._files(out) == before


class TestPublishStep:
    """A sweep replaces its artifacts only once every one is written. A
    failed write exits 1 naming the artifact, and leaves the directory's
    files as they were."""

    @staticmethod
    def _config(tmp_path, grid, record_trace=False):
        doc = base_config(tmp_path / "out",
                          scheduler={"timeout": 6, "lambda_grid": grid})
        doc["simulation"] = {"runs": 4, "horizon": 60, "seed": 7,
                             "burn_in": 10, "record_trace": record_trace}
        return str(write_config(tmp_path, doc, name=f"config{len(grid)}.yaml"))

    @staticmethod
    def _no_space_at(monkeypatch, name):
        # a full disk fails a write, whose OSError names no file
        def failing_open(file, *args, **kwargs):
            if re.fullmatch(re.escape(name) + r"\.\w+\.part",
                            os.path.basename(file)):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", failing_open, raising=False)

    @staticmethod
    def _assert_failed(capsys, out, name, before, code=errno.ENOSPC):
        err = capsys.readouterr().err
        assert (f"output.directory: cannot write {out / name}: "
                f"{os.strerror(code)}") in err
        assert "Traceback" not in err
        assert TestRerun._files(out) == before  # no .part file either

    @pytest.mark.parametrize("name", ["analysis_4.0.json", "tradeoff.csv",
                                      "plot.gp", "manifest.json"])
    def test_failed_analyze_only_rerun_keeps_every_file(
            self, tmp_path, monkeypatch, capsys, name):
        out = tmp_path / "out"
        assert main(["analyze-only", self._config(tmp_path, [0.5, 2.0])]) == 0
        before = TestRerun._files(out)
        self._no_space_at(monkeypatch, name)
        # a different grid, and a plot script the earlier sweep did not write
        assert main(["analyze-only", self._config(tmp_path, [0.5, 4.0]),
                     "--plot-script"]) == 1
        self._assert_failed(capsys, out, name, before)

    @pytest.mark.parametrize("name", [
        "trace_lam2.0_run0003.csv", "analysis_0.5.json", "tradeoff.csv",
        "plot.gp", "manifest.json"])
    def test_failed_traced_rerun_keeps_every_file(self, tmp_path, monkeypatch,
                                                  capsys, name):
        out = tmp_path / "out"
        cfg = self._config(tmp_path, [0.5, 2.0], record_trace=True)
        assert main(["run", cfg, "--seed", "2"]) == 0
        before = TestRerun._files(out)
        assert len([n for n in before if n.startswith("trace_")]) == 8
        self._no_space_at(monkeypatch, name)
        assert main(["run", cfg, "--seed", "1", "--plot-script"]) == 1
        self._assert_failed(capsys, out, name, before)

    def test_failed_append_in_a_worker_slice(self, tmp_path, monkeypatch,
                                             capsys):
        # runs 2 and 3 go to the pool, here one thread that shares this
        # process's failing open(); its error comes back by future.result()
        out = tmp_path / "out"
        cfg = self._config(tmp_path, [0.5, 2.0], record_trace=True)
        assert main(["run", cfg, "--seed", "2"]) == 0
        before = TestRerun._files(out)
        TestSplitSweep._split(monkeypatch)
        pools = []
        monkeypatch.setattr(cli, "_worker_pool", lambda workers: (
            pools.append(workers) or ThreadPoolExecutor(workers)))
        self._no_space_at(monkeypatch, "trace_lam0.5_run0003.csv")
        assert main(["run", cfg, "--seed", "1"]) == 1
        assert pools == [1]
        self._assert_failed(capsys, out, "trace_lam0.5_run0003.csv", before)

    def test_manifest_is_replaced_last(self, tmp_path, monkeypatch):
        replaced = []
        real = os.replace

        def recorded(part, path):
            replaced.append(os.path.basename(path))
            real(part, path)

        monkeypatch.setattr(os, "replace", recorded)
        cfg = self._config(tmp_path, [0.5, 2.0], record_trace=True)
        assert main(["run", cfg, "--plot-script"]) == 0
        assert replaced == [
            f"trace_lam{lam!r}_run{r:04d}.csv" for lam in (0.5, 2.0)
            for r in range(4)] + ["analysis_0.5.json", "analysis_2.0.json",
                                  "tradeoff.csv", "plot.gp", "manifest.json"]

    def test_unwritable_directory(self, tmp_path, monkeypatch, capsys):
        # as mkstemp fails in a directory the user may not write: the
        # .part files made before it are removed
        out = tmp_path / "out"
        assert main(["analyze-only", self._config(tmp_path, [0.5, 2.0])]) == 0
        before = TestRerun._files(out)
        real = tempfile.mkstemp

        def denied(dir, prefix, suffix):
            if prefix == "tradeoff.csv.":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                      os.path.join(dir, prefix + "x1" + suffix))
            return real(dir=dir, prefix=prefix, suffix=suffix)

        monkeypatch.setattr(tempfile, "mkstemp", denied)
        assert main(["analyze-only", self._config(tmp_path, [0.5, 4.0])]) == 1
        self._assert_failed(capsys, out, "tradeoff.csv", before, errno.EACCES)

    def test_failed_close_names_its_artifact(self, tmp_path, monkeypatch,
                                             capsys):
        # closing a new .part file's descriptor raises an OSError naming no
        # file
        out = tmp_path / "out"
        assert main(["analyze-only", self._config(tmp_path, [0.5, 2.0])]) == 0
        before = TestRerun._files(out)
        real_mkstemp, real_close, doomed = tempfile.mkstemp, os.close, []

        def mkstemp(dir, prefix, suffix):
            fd, part = real_mkstemp(dir=dir, prefix=prefix, suffix=suffix)
            if prefix == "tradeoff.csv.":
                doomed.append(fd)
            return fd, part

        def close(fd):
            real_close(fd)
            if fd in doomed:
                doomed.remove(fd)
                raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        monkeypatch.setattr(os, "close", close)
        assert main(["analyze-only", self._config(tmp_path, [0.5, 4.0])]) == 1
        monkeypatch.undo()
        self._assert_failed(capsys, out, "tradeoff.csv", before, errno.EIO)

    def test_error_naming_no_file_is_not_a_write_failure(
            self, tmp_path, monkeypatch, capsys):
        # a worker that cannot start leaves the output writable: its OSError
        # escapes main unchanged, once the span has removed every .part file
        out = tmp_path / "out"
        cfg = self._config(tmp_path, [0.5, 2.0], record_trace=True)
        assert main(["run", cfg, "--seed", "2"]) == 0
        before = TestRerun._files(out)
        TestSplitSweep._split(monkeypatch)

        def no_worker(workers):
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(cli, "_worker_pool", no_worker)
        with pytest.raises(BlockingIOError):
            main(["run", cfg, "--seed", "1"])
        assert "output.directory" not in capsys.readouterr().err
        assert TestRerun._files(out) == before


class TestTracedCli:
    """bench/traced_cli.py wraps names in etlqg.cli and etlqg.control; it
    fails if one of them is gone."""

    @pytest.mark.parametrize("command", [
        ["analyze-only"], ["run", "--runs", "4", "--horizon", "300"]])
    def test_wrapper_runs_and_records_spans(self, tmp_path, command):
        wrapper = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
        spans_path = tmp_path / "spans.json"
        done = TestSplitSweep._python(str(wrapper), str(spans_path), *command,
                                      "--out-dir", str(tmp_path / "out"))
        assert done.returncode == 0, done.stderr
        spans = json.loads(spans_path.read_text())
        assert spans["exit_code"] == 0
        names = {span["name"] for span in spans["spans"]}
        want = {"cli.main", "estimation.kf_steady_state",
                "analysis.conditional_error_cov"}
        if command[0] == "run":
            want.add("cli.write_atomic")
        assert want <= names
