"""Kalman filter recursions and steady-state fixed point."""

import numpy as np
import pytest
import scipy.linalg

from etlqg import (ConvergenceError, NumericalError, SystemModel, control,
                   control_steady_state, estimation, kf_steady_state)
from etlqg.estimation import (ARE_MAX_ITER, ARE_STALL_WINDOW, ARE_TOL,
                              filter_step, fixed_point, kalman_gain)
from etlqg.model import psd_sqrt, symmetrize

from conftest import (BENCH_F_INF, BENCH_K_INF, BENCH_P_INF, BENCH_PI_ETA,
                      GOLDEN_F, GOLDEN_GAIN, PHI, random_valid_model)


class TestFilterStep:
    def test_golden_covariance_step(self, golden_model):
        P_filt, P_next = filter_step(np.array([[PHI]]), golden_model)
        assert P_filt[0, 0] == pytest.approx(GOLDEN_F, abs=1e-12)
        assert P_next[0, 0] == pytest.approx(PHI, abs=1e-12)

    def test_filtered_covariance_psd_along_walk(self, bench_model):
        # P_filt is (I - K C) P_pred; the Joseph form is PSD by construction
        C, V = bench_model.C, bench_model.V
        P_pred = bench_model.X0
        for _ in range(50):
            K = kalman_gain(P_pred, bench_model)
            P_filt, P_next = filter_step(P_pred, bench_model)
            I_KC = np.eye(2) - K @ C
            joseph = I_KC @ P_pred @ I_KC.T + K @ V @ K.T
            assert np.max(np.abs(P_filt - joseph)) <= 1e-10
            assert np.linalg.eigvalsh(symmetrize(P_filt))[0] >= -1e-10
            P_pred = P_next


class TestKalmanGain:
    def test_ill_conditioned_innovation_raises(self):
        eye = np.eye(2)
        model = SystemModel(A=0.5 * eye, B=eye, C=eye, W=eye, V=1e-9 * eye,
                            Q=eye, Qf=eye, R=eye, x0_mean=np.zeros(2), X0=eye)
        with pytest.raises(NumericalError):
            kalman_gain(np.diag([1e9, 1e-9]), model)


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

    def test_benchmark_eta_covariance_identity(self, bench_filter, bench_model):
        # Pi_eta = K C P equals the quadratic form K (C P C^T + V) K^T
        S = bench_model.C @ bench_filter.P_inf @ bench_model.C.T + bench_model.V
        quad = bench_filter.K_inf @ S @ bench_filter.K_inf.T
        assert np.max(np.abs(bench_filter.Pi_eta - quad)) <= 1e-9
        assert np.allclose(bench_filter.Pi_eta, BENCH_PI_ETA, rtol=1e-9)

    def test_benchmark_matches_independent_solver(self, bench_model, bench_filter):
        # filtering fixed point via the dual DARE in an external solver
        P = scipy.linalg.solve_discrete_are(
            bench_model.A.T, bench_model.C.T, bench_model.W, bench_model.V)
        assert np.allclose(bench_filter.P_inf, P, rtol=1e-9)

    def test_iteration_cap_raises(self, bench_model, monkeypatch):
        monkeypatch.setattr(estimation, "ARE_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as err:
            kf_steady_state(bench_model)
        assert "steady-state filter iteration" in str(err.value)
        assert err.value.residual > 0


def fixed_point_to_the_cap(step, start, label):
    """fixed_point without its stall window: it stops at ARE_TOL or the cap."""
    X = start
    delta = np.inf
    for it in range(1, ARE_MAX_ITER + 1):
        X_next = step(X)
        delta = float(np.max(np.abs(X_next - X)))
        X = X_next
        if delta < ARE_TOL:
            return X, it
    raise ConvergenceError(label, delta, ARE_MAX_ITER,
                           delta / np.max(np.abs(X)))


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


class TestFloatFloorStop:
    """With |X| in the thousands, a step's rounding noise stays above
    ARE_TOL; such a stall has still reached the fixed point."""

    @staticmethod
    def _draw(index):
        rng = np.random.default_rng(20261018)
        return [random_valid_model(rng, n_max=10) for _ in range(index + 1)][index]

    @pytest.mark.parametrize("index,solver", [
        (66, "control"), (77, "control"), (104, "control"), (130, "filter"),
        (169, "control"), (174, "filter"), (174, "control")])
    def test_stall_at_the_float_floor_matches_scipy(self, index, solver):
        m = self._draw(index)
        if solver == "filter":
            X = kf_steady_state(m).P_inf
            ref = scipy.linalg.solve_discrete_are(m.A.T, m.C.T, m.W, m.V)
        else:
            X = control_steady_state(m).S_inf
            ref = scipy.linalg.solve_discrete_are(m.A, m.B, m.Q, m.R)
        assert np.max(np.abs(X - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_stall_above_the_floor_names_its_relative_step(self):
        with pytest.raises(ConvergenceError) as err:
            kf_steady_state(self._draw(6))
        assert err.value.relative > estimation.ARE_REL_TOL
        assert f"{err.value.relative:.3e} relative" in str(err.value)

    @pytest.mark.parametrize("factor", [2.0, 1.05])
    def test_growing_iteration_still_raises(self, factor):
        # its least step is the first one, far above the float floor of the
        # iterate it made, however large the last iterate grows
        with pytest.raises(ConvergenceError):
            fixed_point(lambda X: factor * X, np.ones(1), "growing")

    def test_unobservable_unstable_filter_still_raises(self):
        # P of the unseen unstable mode grows 1.69-fold a step, to about
        # 1e228 when the stall ends; an unvalidated model reaches
        # kf_steady_state with it
        one = np.array([[1.0]])
        model = SystemModel(A=1.3 * one, B=one, C=0 * one, W=one, V=one,
                            Q=one, Qf=one, R=one, x0_mean=np.zeros(1), X0=one)
        with pytest.raises(ConvergenceError):
            kf_steady_state(model)


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
