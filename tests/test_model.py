"""Model container, validation report, and rank-condition tests."""

import dataclasses
import re

import numpy as np
import pytest

from etlqg import (DefinitenessError, ModelError, SimConfig, SystemModel,
                   ValidationCheck, conditional_error_cov, control_steady_state,
                   controllability_rank, cost_tradeoff_curve,
                   kf_steady_state, observability_rank, run_closed_loop,
                   validate_model)
from etlqg.model import psd_sqrt, scheduler_lambdas, symmetrize

from conftest import make_benchmark_model, make_golden_model, random_valid_model
from finite_horizon_oracle import finite_horizon_cost


def _bench_kwargs():
    m = make_benchmark_model()
    return dict(A=m.A, B=m.B, C=m.C, W=m.W, V=m.V, Q=m.Q, Qf=m.Qf, R=m.R,
                x0_mean=m.x0_mean, X0=m.X0)


class TestSystemModel:
    def test_dims(self):
        model = make_benchmark_model()
        assert model.dims == (2, 1, 1)

    def test_matrices_stored_symmetrized(self):
        kw = _bench_kwargs()
        drift = 5e-11  # inside the symmetry tolerance
        kw["W"] = kw["W"] + np.array([[0.0, drift], [0.0, 0.0]])
        model = SystemModel(**kw)
        assert np.max(np.abs(model.W - model.W.T)) == 0.0

    def test_asymmetric_covariance_rejected(self):
        kw = _bench_kwargs()
        kw["W"] = kw["W"] + np.array([[0.0, 1e-6], [0.0, 0.0]])
        with pytest.raises(DefinitenessError):
            SystemModel(**kw)

    def test_indefinite_W_rejected(self):
        kw = _bench_kwargs()
        kw["W"] = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
        with pytest.raises(DefinitenessError):
            SystemModel(**kw)

    def test_singular_V_rejected(self):
        kw = _bench_kwargs()
        kw["V"] = np.array([[0.0]])  # PSD but not PD
        with pytest.raises(DefinitenessError):
            SystemModel(**kw)

    def test_psd_within_floor_accepted(self):
        kw = _bench_kwargs()
        kw["X0"] = np.zeros((2, 2))
        SystemModel(**kw)

    def test_shape_mismatch_rejected(self):
        kw = _bench_kwargs()
        kw["B"] = np.array([[1.0], [0.0], [0.0]])
        with pytest.raises(ModelError):
            SystemModel(**kw)

    def test_nonfinite_rejected(self):
        kw = _bench_kwargs()
        kw["A"] = np.array([[np.nan, 1.0], [0.0, 0.9]])
        with pytest.raises(ModelError):
            SystemModel(**kw)

    def test_dimension_cap(self):
        n = 65
        eye = np.eye(n)
        with pytest.raises(ModelError):
            SystemModel(A=eye * 0.5, B=eye, C=eye, W=eye, V=eye, Q=eye,
                        Qf=eye, R=eye, x0_mean=np.zeros(n), X0=eye)

    def test_equality(self):
        assert make_benchmark_model() == make_benchmark_model()
        assert make_benchmark_model() != make_golden_model()


class TestSchedulerParams:
    def test_valid(self):
        assert scheduler_lambdas([0.5, 2], timeout=50) == [0.5, 2.0]

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_bad_lambda(self, lam):
        with pytest.raises(ModelError, match="^lam must"):
            scheduler_lambdas([1.0, lam], timeout=10)

    @pytest.mark.parametrize("timeout", [0, -3, 2.5, True])
    def test_bad_timeout(self, timeout):
        # checked for an empty grid too
        for lams in ([1.0], []):
            with pytest.raises(ModelError, match="^timeout must"):
                scheduler_lambdas(lams, timeout)

    @pytest.mark.parametrize("lams", [[], np.array([]), 1.0, np.float64(1.0),
                                      "12", b"12"])
    def test_empty_or_scalar_grid_named(self, bench_model, bench_filter,
                                        bench_control, lams):
        # every entry point checks its grid here: the engine with and
        # without trace blocks, the pass and the trade-off curve; a single
        # lambda is the grid [lam], and a string is not the grid of its
        # characters
        cfg = SimConfig(model=bench_model, timeout=50, horizon=300, runs=4,
                        seed=1)
        for on_block in (None, [].append):
            with pytest.raises(ModelError,
                               match="^lams must be a nonempty grid"):
                run_closed_loop(cfg, bench_filter, bench_control, lams,
                                on_block=on_block)
        with pytest.raises(ModelError, match="^lams must be a nonempty grid"):
            conditional_error_cov(bench_filter, bench_model.A, lams, 50,
                                  bench_control.M_inf)
        with pytest.raises(ModelError, match="^lams must be a nonempty grid"):
            cost_tradeoff_curve(bench_model, lams, 50, ss=bench_filter,
                                cs=bench_control)

    @pytest.mark.parametrize("lams", [[[1.0, 2.0]], [1 + 0j], ["1"], [b"1"],
                                      [True]])
    def test_non_real_grid_entry_named(self, bench_model, bench_filter,
                                       bench_control, lams):
        # a nested grid or a complex entry used to raise a bare TypeError
        # from float(), and '1', b'1' and True were taken as 1.0; the
        # finite-horizon cost's one lambda is the grid's entry
        cfg = SimConfig(model=bench_model, timeout=50, horizon=300, runs=4,
                        seed=1)
        with pytest.raises(ModelError, match="^lams must be a nonempty grid"):
            conditional_error_cov(bench_filter, bench_model.A, lams, 50,
                                  bench_control.M_inf)
        with pytest.raises(ModelError, match="^lams must be a nonempty grid"):
            finite_horizon_cost(bench_model, lams[0], 50, 5)
        with pytest.raises(ModelError, match="^lams must be a nonempty grid"):
            run_closed_loop(cfg, bench_filter, bench_control, lams)


class TestRankChecks:
    def test_benchmark_controllable_observable(self, bench_model):
        assert controllability_rank(bench_model.A, bench_model.B) == 2
        assert observability_rank(bench_model.A, bench_model.C) == 2

    def test_integrator_chain_controllable(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        assert controllability_rank(A, B) == 2

    def test_uncontrollable_mode_detected(self):
        A = np.diag([1.2, 0.9])
        B = np.array([[1.0], [0.0]])
        assert controllability_rank(A, B) == 1
        # observability is the transposed problem
        assert observability_rank(A.T, B.T) == 1

    @pytest.mark.parametrize("A, B", [(np.eye(2), np.ones((3, 1))),
                                      (np.ones((2, 3)), np.ones((2, 1)))])
    def test_incompatible_shapes_named(self, A, B):
        # a SystemModel is always compatible, so no command reaches this
        with pytest.raises(ModelError, match=re.escape(
                f"incompatible shapes for controllability test: {A.shape}, "
                f"{B.shape}")):
            controllability_rank(A, B)


class TestPsdSqrt:
    def test_square_is_input(self, bench_model):
        F = psd_sqrt(bench_model.W)
        assert np.allclose(F @ F, bench_model.W, atol=1e-12)
        assert np.allclose(F, F.T, atol=1e-14)

    def test_clamps_tiny_negative_eigenvalue(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-13]])
        F = psd_sqrt(M)
        assert np.all(np.isfinite(F))
        assert np.allclose(F @ F, M, atol=1e-6)

    def test_symmetrize_and_radius(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert np.allclose(symmetrize(M), [[1.0, 1.0], [1.0, 1.0]])


class TestValidateModel:
    def test_benchmark_passes(self, bench_model):
        report = validate_model(bench_model)
        assert report.passed
        # the four rank conditions, in order; construction checked the rest
        assert [c.name for c in report.checks] == [
            "controllable(A,B)", "observable(A,C)",
            "controllable(A,sqrt(W))", "observable(A,sqrt(Q))"]
        assert [c.measured for c in report.checks] == [2, 2, 2, 2]
        assert [f.name for f in dataclasses.fields(ValidationCheck)] == [
            "name", "passed", "measured", "requirement"]

    def test_deterministic(self, bench_model):
        r1, r2 = validate_model(bench_model), validate_model(bench_model)
        assert [(c.name, c.passed, c.measured) for c in r1.checks] == \
               [(c.name, c.passed, c.measured) for c in r2.checks]

    def test_all_failures_reported(self):
        # zero Q breaks observable(A,sqrt(Q)); zero-column B breaks both
        # controllability checks it appears in
        kw = _bench_kwargs()
        kw["Q"] = np.zeros((2, 2))
        kw["Qf"] = np.zeros((2, 2))
        kw["B"] = np.zeros((2, 1))
        report = validate_model(SystemModel(**kw))
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "observable(A,sqrt(Q))" in failed
        assert "controllable(A,B)" in failed

    def test_report_lines_render(self, bench_model):
        lines = validate_model(bench_model).lines()
        assert all(line.startswith("[PASS]") for line in lines)


def test_downstream_solvers_converge_on_random_valid_models():
    # every model that passes validation must be solvable by both
    # fixed-point iterations; spectral radius of A spans [0.5, 1.5]
    rng = np.random.default_rng(20240817)
    solved = 0
    while solved < 100:
        model = random_valid_model(rng)
        if not validate_model(model).passed:
            continue
        ss = kf_steady_state(model)
        cs = control_steady_state(model)
        assert ss.residual <= 1e-9
        assert cs.residual <= 1e-9
        solved += 1
