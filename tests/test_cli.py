"""End-to-end tests of the command line interface.

Each test drives `main` with a config written into tmp_path and inspects
exit codes, stdout/stderr and the artifact files.
"""

import json
import re

import numpy as np
import pytest

from etlqg import (
    ConvergenceError,
    SchedulerParams,
    SimConfig,
    SimulationTrace,
    SystemModel,
    control_steady_state,
    default_config_path,
    kf_steady_state,
    load_config,
    run_closed_loop,
)
from etlqg.cli import TRADEOFF_HEADER, _trace_csv, main
from etlqg.config import config_to_dict


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
        sim_cfg = SimConfig(model=cfg.model,
                            params=SchedulerParams(lam=1.0, timeout=6),
                            horizon=30, runs=2, seed=99, burn_in=5,
                            record_trace=True)
        filt = kf_steady_state(cfg.model)
        ctrl = control_steady_state(cfg.model)
        _, _, traces = run_closed_loop(sim_cfg, filt, ctrl)
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
    cfg = SimConfig(model=model, params=SchedulerParams(lam=1.0, timeout=6),
                    horizon=horizon, runs=1, seed=5, burn_in=0,
                    record_trace=True)
    _, _, traces = run_closed_loop(cfg, kf_steady_state(model),
                                   control_steady_state(model))
    return traces[0]


class TestTraceWriter:
    def test_bundled_model_trace(self):
        model = load_config(default_config_path()).model
        # longer than one block of rows, with a partial last block
        trace = simulated_trace(model, 4500)
        assert_same_text(_trace_csv(trace, 2, 1), reference_trace_csv(trace, 2, 1))

    def test_special_values(self):
        # nan and inf reach a trace when the divergence guard is off
        specials = np.array([-0.0, 1e-300, 1e300, 0.1, np.nan, np.inf, -np.inf])
        horizon = 9
        cells = np.resize(specials, horizon * 5).reshape(horizon, 5)
        trace = SimulationTrace(
            x=cells[:, :2], y=cells[:, :1], xhat_s=cells[:, :2],
            xhat_c=cells[:, :2], u=cells[:, 2:3], e_filt=cells[:, 3:],
            sigma=np.arange(horizon, dtype=np.int64) % 2,
            tau=np.arange(horizon, dtype=np.int64))
        text = _trace_csv(trace, 2, 1)
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
        text = _trace_csv(trace, 3, 2)
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


class TestSolverFailureExit:
    def test_nonconvergence_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(model, *a, **kw):
            raise ConvergenceError("steady-state filter iteration",
                                   residual=0.5, iterations=7)

        monkeypatch.setattr("etlqg.cli.kf_steady_state", broken)
        cfg = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "steady-state filter iteration" in err
        assert re.search(r"residual 5\.0*e-01", err)
