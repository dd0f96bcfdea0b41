"""Kalman filter recursions and steady-state fixed point."""

import numpy as np
import pytest
import scipy.linalg

from etlqg import (ConvergenceError, NumericalError, SystemModel, control,
                   control_steady_state, estimation, eta_covariance,
                   initial_filter_state, kf_predict, kf_steady_state, kf_update)
from etlqg.estimation import (ARE_MAX_ITER, ARE_STALL_WINDOW, ARE_TOL,
                              FilterState, fixed_point)
from etlqg.model import psd_sqrt

from conftest import (BENCH_F_INF, BENCH_K_INF, BENCH_P_INF, BENCH_PI_ETA,
                      GOLDEN_F, GOLDEN_GAIN, PHI, random_valid_model)


def _simple_model(n=2):
    eye = np.eye(n)
    return SystemModel(A=0.5 * eye, B=eye, C=eye, W=eye, V=eye, Q=eye,
                      Qf=eye, R=eye, x0_mean=np.zeros(n), X0=eye)


def _state(n, p, x_pred=None, x_filt=None, P_pred=None, P_filt=None):
    z = np.zeros(n)
    zz = np.zeros((n, n))
    return FilterState(
        x_pred=z if x_pred is None else np.asarray(x_pred, dtype=float),
        x_filt=z if x_filt is None else np.asarray(x_filt, dtype=float),
        P_pred=zz if P_pred is None else np.asarray(P_pred, dtype=float),
        P_filt=zz if P_filt is None else np.asarray(P_filt, dtype=float),
        gain=np.zeros((n, p)))


class TestPredict:
    def test_noise_only_propagation(self):
        model = _simple_model()
        out = kf_predict(_state(2, 2), model)
        assert np.array_equal(out.x_pred, np.zeros(2))
        assert np.allclose(out.P_pred, np.eye(2), atol=1e-15)

    def test_benchmark_mean_propagation(self, bench_model):
        state = _state(2, 1, x_filt=[1.0, 1.0])
        out = kf_predict(state, bench_model, u_prev=[0.0])
        assert np.allclose(out.x_pred, [2.2, 0.9], atol=1e-12)

    def test_control_input_enters_mean(self, bench_model):
        out = kf_predict(_state(2, 1), bench_model, u_prev=[2.0])
        assert np.allclose(out.x_pred, 2.0 * bench_model.B[:, 0], atol=1e-15)

    def test_golden_covariance_step(self, golden_model):
        state = _state(1, 1, P_filt=[[PHI - 1.0]])
        out = kf_predict(state, golden_model)
        assert out.P_pred[0, 0] == pytest.approx(PHI, abs=1e-12)


class TestUpdate:
    def test_zero_innovation_keeps_mean(self, bench_model):
        state = _state(2, 1, x_pred=[3.0, -1.0], P_pred=np.eye(2))
        y = bench_model.C @ state.x_pred
        out = kf_update(state, bench_model, y)
        assert np.array_equal(out.x_filt, state.x_pred)

    def test_golden_gain_and_covariance(self, golden_model):
        state = _state(1, 1, P_pred=[[PHI]])
        out = kf_update(state, golden_model, y=[0.0])
        assert out.gain[0, 0] == pytest.approx(GOLDEN_GAIN, abs=1e-12)
        assert out.P_filt[0, 0] == pytest.approx(GOLDEN_F, abs=1e-12)

    def test_update_identity_and_psd(self, bench_model):
        rng = np.random.default_rng(7)
        state = initial_filter_state(bench_model)
        for _ in range(25):
            state = kf_predict(state, bench_model)
            state = kf_update(state, bench_model, y=rng.standard_normal(1))
            joseph = (np.eye(2) - state.gain @ bench_model.C) @ state.P_pred
            assert np.max(np.abs(state.P_filt - joseph)) <= 1e-10
            assert np.linalg.eigvalsh(state.P_filt)[0] >= -1e-10

    def test_steady_state_is_update_fixed_point(self, bench_model, bench_filter):
        state = _state(2, 1, P_pred=bench_filter.P_inf)
        out = kf_update(state, bench_model, y=[0.0])
        assert np.allclose(out.P_filt, bench_filter.F_inf, atol=1e-9)
        assert np.allclose(out.gain, bench_filter.K_inf, atol=1e-9)

    def test_ill_conditioned_innovation_raises(self):
        eye = np.eye(2)
        model = SystemModel(A=0.5 * eye, B=eye, C=eye, W=eye, V=1e-9 * eye,
                            Q=eye, Qf=eye, R=eye, x0_mean=np.zeros(2), X0=eye)
        state = _state(2, 2, P_pred=np.diag([1e9, 1e-9]))
        with pytest.raises(NumericalError):
            kf_update(state, model, y=[0.0, 0.0])


class TestInitialState:
    def test_prior_is_initial_distribution(self, bench_model):
        state = initial_filter_state(bench_model)
        assert np.array_equal(state.x_pred, bench_model.x0_mean)
        assert np.array_equal(state.P_pred, bench_model.X0)


class TestSteadyState:
    def test_golden_fixed_point(self, golden_filter):
        assert golden_filter.P_inf[0, 0] == pytest.approx(PHI, abs=1e-12)
        assert golden_filter.K_inf[0, 0] == pytest.approx(GOLDEN_GAIN, abs=1e-12)
        assert golden_filter.F_inf[0, 0] == pytest.approx(GOLDEN_F, abs=1e-12)
        assert golden_filter.Pi_eta[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert golden_filter.iterations > 0
        assert golden_filter.residual <= 1e-9

    def test_no_process_noise_stable_plant(self):
        one = np.array([[1.0]])
        model = SystemModel(A=0.5 * one, B=one, C=one, W=np.zeros((1, 1)),
                            V=one, Q=one, Qf=one, R=one,
                            x0_mean=np.zeros(1), X0=one)
        ss = kf_steady_state(model)
        assert abs(ss.P_inf[0, 0]) < 1e-9
        assert abs(ss.Pi_eta[0, 0]) < 1e-9

    def test_benchmark_matches_frozen_solution(self, bench_filter):
        assert np.allclose(bench_filter.P_inf, BENCH_P_INF, rtol=1e-9)
        assert np.allclose(bench_filter.K_inf, BENCH_K_INF, rtol=1e-9)
        assert np.allclose(bench_filter.F_inf, BENCH_F_INF, rtol=1e-9)
        assert np.allclose(bench_filter.Pi_eta, BENCH_PI_ETA, rtol=1e-9)
        assert bench_filter.residual <= 1e-9

    def test_benchmark_matches_independent_solver(self, bench_model, bench_filter):
        # filtering fixed point via the dual DARE in an external solver
        P = scipy.linalg.solve_discrete_are(
            bench_model.A.T, bench_model.C.T, bench_model.W, bench_model.V)
        assert np.allclose(bench_filter.P_inf, P, rtol=1e-9)

    def test_iteration_cap_raises(self, bench_model):
        with pytest.raises(ConvergenceError) as err:
            kf_steady_state(bench_model, max_iterations=3)
        assert "steady-state filter iteration" in str(err.value)
        assert err.value.residual > 0


def fixed_point_to_the_cap(step, start, label, tol=ARE_TOL,
                           max_iterations=ARE_MAX_ITER):
    """fixed_point without its stall window: it stops at tol or the cap."""
    X = start
    delta = np.inf
    for it in range(1, max_iterations + 1):
        X_next = step(X)
        delta = float(np.max(np.abs(X_next - X)))
        X = X_next
        if delta < tol:
            return X, it
    raise ConvergenceError(label, delta, max_iterations)


def _solves(model):
    return kf_steady_state(model), control_steady_state(model)


class TestStalledFixedPoint:
    """A fixed point that stops improving fails fast; others are untouched."""

    @staticmethod
    def _stalled_model():
        # draw 6: its filter residual hovers near 1e-4 for 10**6 iterations
        rng = np.random.default_rng(20261018)
        return [random_valid_model(rng, n_max=10) for _ in range(7)][6]

    def test_stalled_iteration_raises_early(self):
        with pytest.raises(ConvergenceError) as err:
            kf_steady_state(self._stalled_model())
        assert "steady-state filter iteration" in str(err.value)
        assert ARE_STALL_WINDOW < err.value.iterations < 5 * ARE_STALL_WINDOW
        assert err.value.residual > ARE_TOL

    def test_slow_monotone_iteration_is_not_a_stall(self):
        X, it = fixed_point(lambda X: 0.999 * X, np.ones(1), "slow")
        assert it > 20 * ARE_STALL_WINDOW
        assert X[0] < 1e-9

    def test_converging_models_keep_iterations_and_bytes(self, bench_model,
                                                         monkeypatch):
        rng = np.random.default_rng(20261017)
        models = [bench_model] + [random_valid_model(rng) for _ in range(30)]
        rng = np.random.default_rng(20261018)
        models += [random_valid_model(rng, n_max=10) for _ in range(6)]
        got = [_solves(model) for model in models]
        monkeypatch.setattr(estimation, "fixed_point", fixed_point_to_the_cap)
        monkeypatch.setattr(control, "fixed_point", fixed_point_to_the_cap)
        for model, solves in zip(models, got):
            for a, b in zip(solves, _solves(model)):
                for name, value in vars(b).items():
                    if isinstance(value, np.ndarray):
                        assert getattr(a, name).tobytes() == value.tobytes()
                    else:
                        assert getattr(a, name) == value


class TestEtaCovariance:
    def test_golden_unit_covariance(self, golden_filter, golden_model):
        Pi = eta_covariance(golden_filter, golden_model)
        assert Pi[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_benchmark_identity_between_forms(self, bench_filter, bench_model):
        Pi = eta_covariance(bench_filter, bench_model)
        S = bench_model.C @ bench_filter.P_inf @ bench_model.C.T + bench_model.V
        quad = bench_filter.K_inf @ S @ bench_filter.K_inf.T
        assert np.max(np.abs(Pi - quad)) <= 1e-9
        assert np.allclose(Pi, BENCH_PI_ETA, rtol=1e-9)


def _filter_error_paths(model, ss, chains, steps, seed):
    """Simulate the steady-state filter error; returns (xt_pred, eta) arrays
    of shape (chains, steps, n)."""
    rng = np.random.default_rng(seed)
    n = model.A.shape[0]
    p = model.C.shape[0]
    w_factor = psd_sqrt(model.W)
    v_factor = psd_sqrt(model.V)
    xt = rng.standard_normal((chains, n)) @ psd_sqrt(ss.P_inf).T
    xts = np.empty((chains, steps, n))
    etas = np.empty((chains, steps, n))
    for k in range(steps):
        v = rng.standard_normal((chains, p)) @ v_factor.T
        w = rng.standard_normal((chains, n)) @ w_factor.T
        eta = (xt @ model.C.T + v) @ ss.K_inf.T
        xts[:, k] = xt
        etas[:, k] = eta
        xt = (xt - eta) @ model.A.T + w
    return xts, etas


def test_correction_sequence_is_white(bench_model, bench_filter):
    # lag 1..5 cross-covariances vanish within sampling error; lag 0 matches
    # the analytic correction covariance
    chains, steps = 20, 5000
    _, etas = _filter_error_paths(bench_model, bench_filter, chains, steps,
                                  seed=20240818)
    flat = etas.reshape(-1, 2)
    count = flat.shape[0]
    lag0 = flat.T @ flat / count
    assert np.all(np.abs(lag0 - BENCH_PI_ETA) <= 0.03 * np.abs(BENCH_PI_ETA))
    diag = np.diag(BENCH_PI_ETA)
    bound = 5.0 * np.sqrt(np.outer(diag, diag) / (chains * (steps - 5)))
    for lag in range(1, 6):
        a = etas[:, lag:].reshape(-1, 2)
        b = etas[:, :-lag].reshape(-1, 2)
        cross = a.T @ b / a.shape[0]
        assert np.all(np.abs(cross) <= bound), f"lag {lag} not white"


def test_prediction_error_covariance_matches_p_inf(bench_model, bench_filter):
    # one million prediction-error samples against the fixed point, 2%/entry
    chains, steps = 100, 10000
    xts, _ = _filter_error_paths(bench_model, bench_filter, chains, steps,
                                 seed=20240819)
    flat = xts.reshape(-1, 2)
    sample = flat.T @ flat / flat.shape[0]
    assert np.all(np.abs(sample - BENCH_P_INF) <= 0.02 * np.abs(BENCH_P_INF))
