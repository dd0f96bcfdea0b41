"""Tests for controller synthesis and the closed-form cost expressions.

Scalar oracles again come from the all-ones model: the control recursion is
the exact dual of the filter one there, so the fixed point is the golden
ratio and the gain its reciprocal.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg

from etlqg import (
    ControlSynthesis,
    ConvergenceError,
    ModelError,
    SystemModel,
    control_steady_state,
    cost_tradeoff_curve,
    infinite_horizon_cost,
    kf_steady_state,
)
from etlqg.analysis import condition_step

from conftest import (
    BENCH_J_LAM1,
    BENCH_J_LIMIT,
    BENCH_L_INF,
    BENCH_M_INF,
    BENCH_S_INF,
    BENCH_TIMEOUT,
    GOLDEN_GAIN,
    GOLDEN_J2,
    PHI,
    chains,
    make_benchmark_model,
    make_golden_model,
    random_valid_model,
)
from finite_horizon_oracle import (
    finite_horizon_cost,
    riccati_backward,
    simulated_finite_horizon_cost,
)
from sigma_table_oracle import sigma_table


def _analysis_inputs(model, lam, timeout, filt, ctrl):
    return chains(filt, model.A, [lam], timeout, ctrl.M_inf)[0]


def _quiet_model():
    # stable scalar plant with no process noise and no initial uncertainty
    one = np.array([[1.0]])
    zero = np.array([[0.0]])
    return SystemModel(
        A=np.array([[0.5]]),
        B=one,
        C=one,
        W=zero,
        V=one,
        Q=one,
        Qf=one,
        R=one,
        x0_mean=np.zeros(1),
        X0=zero,
    )


class TestRiccatiBackward:
    def test_golden_single_step(self, golden_model):
        S_seq, L_seq, M_seq = riccati_backward(golden_model, 1)
        assert (len(S_seq), len(L_seq), len(M_seq)) == (2, 1, 1)
        assert L_seq[0][0, 0] == pytest.approx(0.5, abs=1e-15)
        assert S_seq[0][0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_terminal_matrix_is_final_weight(self, bench_model):
        S_seq, _, _ = riccati_backward(bench_model, 7)
        np.testing.assert_array_equal(S_seq[-1], bench_model.Qf)

    def test_no_input_reduces_to_lyapunov_recursion(self):
        model = SystemModel(
            A=np.array([[0.8, 0.1], [0.0, 0.7]]),
            B=np.zeros((2, 1)),
            C=np.array([[1.0, 0.0]]),
            W=np.eye(2),
            V=np.eye(1),
            Q=np.eye(2),
            Qf=np.eye(2),
            R=np.eye(1),
            x0_mean=np.zeros(2),
            X0=np.eye(2),
        )
        S_seq, L_seq, _ = riccati_backward(model, 4)
        for L in L_seq:
            np.testing.assert_allclose(L, 0.0, atol=1e-14)
        for k in range(4):
            expected = model.Q + model.A.T @ S_seq[k + 1] @ model.A
            np.testing.assert_allclose(S_seq[k], expected, atol=1e-12)

    def test_long_horizon_converges_to_fixed_point(self, bench_model, bench_control):
        S_seq, _, _ = riccati_backward(bench_model, 300)
        np.testing.assert_allclose(S_seq[0], bench_control.S_inf, atol=1e-8)
        # deep end has settled, terminal end has not
        assert np.abs(S_seq[0] - S_seq[1]).max() < 1e-10
        assert np.abs(S_seq[299] - S_seq[300]).max() > 1e-3

    @pytest.mark.parametrize("N", [0, -2, True, 2.5])
    def test_empty_horizon_rejected(self, bench_model, N):
        message = re.escape(f"N must be an integer >= 1, got {N!r}")
        with pytest.raises(ModelError, match=message):
            riccati_backward(bench_model, N)
        with pytest.raises(ModelError, match=message):
            finite_horizon_cost(bench_model, 1.0, BENCH_TIMEOUT, N)


class TestControlSteadyState:
    def test_golden_fixed_point_is_golden_ratio(self, golden_control):
        assert golden_control.S_inf[0, 0] == pytest.approx(PHI, abs=1e-12)
        assert golden_control.L_inf[0, 0] == pytest.approx(GOLDEN_GAIN, abs=1e-12)

    def test_golden_duality_with_filter(self, golden_filter, golden_control):
        # all-ones model: the control recursion is the transpose-dual of the
        # filter one, so both fixed points coincide
        np.testing.assert_allclose(
            golden_control.S_inf, golden_filter.P_inf, atol=1e-12
        )

    def test_zero_state_weight_gives_zero_cost_matrix(self):
        model = _quiet_model()
        model = SystemModel(
            A=model.A, B=model.B, C=model.C, W=model.W, V=model.V,
            Q=np.array([[0.0]]), Qf=model.Qf, R=model.R,
            x0_mean=model.x0_mean, X0=model.X0,
        )
        cs = control_steady_state(model)
        assert np.abs(cs.S_inf).max() < 1e-9
        assert np.abs(cs.L_inf).max() < 1e-9

    def test_bench_frozen_values(self, bench_control):
        np.testing.assert_allclose(bench_control.S_inf, BENCH_S_INF, rtol=1e-9)
        np.testing.assert_allclose(bench_control.L_inf, BENCH_L_INF, rtol=1e-9)
        np.testing.assert_allclose(bench_control.M_inf, BENCH_M_INF, rtol=1e-9)
        assert bench_control.residual <= 1e-9
        assert bench_control.iterations >= 1

    def test_agrees_with_scipy_are(self, bench_model, bench_control):
        S = scipy.linalg.solve_discrete_are(
            bench_model.A, bench_model.B, bench_model.Q, bench_model.R
        )
        np.testing.assert_allclose(bench_control.S_inf, S, atol=1e-8)

    def test_gain_reproduces_from_fixed_point(self, bench_model, bench_control):
        B, A = bench_model.B, bench_model.A
        S = bench_control.S_inf
        L = np.linalg.solve(bench_model.R + B.T @ S @ B, B.T @ S @ A)
        np.testing.assert_allclose(bench_control.L_inf, L, atol=1e-10)

    def test_cost_matrix_identity(self, bench_model, bench_control):
        B = bench_model.B
        L = bench_control.L_inf
        inner = B.T @ bench_control.S_inf @ B + bench_model.R
        np.testing.assert_allclose(
            bench_control.M_inf, L.T @ inner @ L, atol=1e-10
        )
        assert np.linalg.eigvalsh(bench_control.M_inf).min() >= -1e-12

    def test_iteration_cap_raises(self, bench_model, monkeypatch):
        monkeypatch.setattr("etlqg.estimation.ARE_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as exc:
            control_steady_state(bench_model)
        assert "steady-state control iteration" in str(exc.value)


class TestInfiniteHorizonCost:
    def test_extreme_sensitivity_approaches_always_send_limit(
        self, bench_model, bench_filter, bench_control
    ):
        ma = _analysis_inputs(bench_model, 1e6, BENCH_TIMEOUT, bench_filter,
                              bench_control)
        bd = infinite_horizon_cost(bench_control, bench_filter, ma, bench_model)
        assert bd.trigger_term < 1e-4 * bd.total
        assert bd.total == pytest.approx(BENCH_J_LIMIT, rel=1e-9)
        assert 53.18 <= bd.total <= 53.28

    def test_bench_unit_sensitivity_frozen_value(
        self, bench_model, bench_filter, bench_control
    ):
        ma = _analysis_inputs(bench_model, 1.0, BENCH_TIMEOUT, bench_filter,
                              bench_control)
        bd = infinite_horizon_cost(bench_control, bench_filter, ma, bench_model)
        assert bd.total == pytest.approx(BENCH_J_LAM1, rel=1e-6)

    def test_noise_free_plant_costs_nothing(self):
        model = _quiet_model()
        filt = kf_steady_state(model)
        ctrl = control_steady_state(model)
        ma = _analysis_inputs(model, 1.0, 5, filt, ctrl)
        bd = infinite_horizon_cost(ctrl, filt, ma, model)
        assert bd.total < 1e-9

    def test_breakdown_sums_exactly(self, bench_model, bench_filter, bench_control):
        ma = _analysis_inputs(bench_model, 0.3, BENCH_TIMEOUT, bench_filter,
                              bench_control)
        bd = infinite_horizon_cost(bench_control, bench_filter, ma, bench_model)
        assert bd.total == bd.base + bd.filter_term + bd.trigger_term
        assert bd.base > 0.0
        assert bd.filter_term > 0.0
        assert bd.trigger_term >= 0.0

    def test_trigger_term_decreases_with_sensitivity(
        self, bench_model, bench_filter, bench_control
    ):
        terms = []
        for lam in (0.1, 1.0, 10.0):
            ma = _analysis_inputs(bench_model, lam, BENCH_TIMEOUT,
                                  bench_filter, bench_control)
            bd = infinite_horizon_cost(
                bench_control, bench_filter, ma, bench_model
            )
            terms.append(bd.trigger_term)
        assert terms[0] > terms[1] > terms[2] > 0.0


class TestFiniteHorizonCost:
    def test_noise_free_zero_start_costs_nothing(self):
        J = finite_horizon_cost(_quiet_model(), 1.0, 3, 1)
        assert abs(J) < 1e-12

    def test_golden_two_step_frozen_value(self, golden_model):
        J = finite_horizon_cost(golden_model, 0.5, 2, 2)
        assert J == pytest.approx(GOLDEN_J2, rel=1e-12)

    def test_golden_two_step_transient_filter_hand_check(self, golden_model):
        """Fully hand-expanded two-step cost at lambda = 0.5, T = 2, X0 = 1.

        All quantities are scalar: S = (1.6, 1.5, 1) and M = (0.9, 0.5)
        backward; the gains K = (0.5, 0.6) from X0 give Pi_eta = (0.5, 0.9)
        and updated covariances (0.5, 0.6). Step 0 conditions counter 0:
        p_00 = 1 - 1/sqrt(1.5), sigma_01 = 1/3. Step 1 conditions counter 0,
        p_10 = 1 - 1/sqrt(1.9) and sigma_11 = 0.9/1.9, and counter 1, from
        N_11 = 1/3 + 0.9.
        """
        J = finite_horizon_cost(golden_model, 0.5, 2, 2)
        held0 = 1.0 / math.sqrt(1.5)                # counter 1 after step 0
        N11 = 1.0 / 3.0 + 0.9
        held1 = ((1.0 - held0) / math.sqrt(1.9),    # counter 1 after step 1
                 held0 / math.sqrt(1.0 + N11))      # counter 2 after step 1
        step0 = 1.5 + 0.5 * 0.9 + 0.9 * held0 / 3.0
        step1 = 1.0 + 0.6 * 0.5 + 0.5 * (held1[0] * 0.9 / 1.9
                                         + held1[1] * N11 / (1.0 + N11))
        assert J == pytest.approx(1.6 + step0 + step1, rel=1e-12)
        assert J == pytest.approx(GOLDEN_J2, rel=1e-12)

    # Started at X0 = P_inf the loop is the steady one, whose cost the
    # stationary chain gives: x0' S_0 x0 + tr(S_0 P_inf) plus per step
    # tr(S_{k+1} W) + tr(F_inf M_k) and the stationary sigma table under the
    # pushed counter distribution. Frozen from that formula.
    STEADY_START = {(5, 0.01): 604.9169269652566, (5, 1.0): 267.8987053471456,
                    (30, 0.01): 5031.123705252433,
                    (30, 1.0): 1651.2551353710624}

    @pytest.mark.parametrize("lam", [0.01, 1.0])
    @pytest.mark.parametrize("N", [5, 30])
    @pytest.mark.parametrize("start", ["P_inf", "10I"])
    def test_matches_kalman_gain_monte_carlo(self, bench_model, bench_filter,
                                             start, N, lam):
        X0 = bench_filter.P_inf if start == "P_inf" else 10.0 * np.eye(2)
        model = dataclasses.replace(bench_model, x0_mean=np.array([1.0, -0.5]),
                                    X0=X0)
        J = finite_horizon_cost(model, lam, BENCH_TIMEOUT, N)
        mean, stderr = simulated_finite_horizon_cost(
            model, lam, BENCH_TIMEOUT, N, runs=40_000, seed=11)
        assert abs(mean - J) / stderr <= 5.0
        if start == "P_inf":
            assert J == pytest.approx(self.STEADY_START[N, lam], rel=1e-12)

    # the totals of a pass that runs the filter and the conditioning step at
    # every step: stopping them once the filter and the table repeat bit for
    # bit moves no bit. At N = 30 < k0 + T the table never settles, so the
    # stop never fires.
    @pytest.mark.parametrize("start,lam,T,N,total,stops", [
        ("X0", 1.0, 50, 300, 16527.566541479962, True),
        ("10I", 0.01, 200, 600, 106312.66419612289, True),
        ("10I", 100.0, 50, 30, 1846.122919327033, False),
        ("X0", 100.0, 20, 2000, 106493.38844785214, True),
    ])
    def test_settled_table_keeps_the_bits(self, bench_model, monkeypatch,
                                          start, lam, T, N, total, stops):
        model = (bench_model if start == "X0" else
                 dataclasses.replace(bench_model, X0=10.0 * np.eye(2)))
        calls = []
        monkeypatch.setattr(
            "finite_horizon_oracle.condition_step",
            lambda *args: calls.append(args) or condition_step(*args))
        assert finite_horizon_cost(model, lam, T, N) == total
        assert (len(calls) < N) == stops

    def test_time_average_approaches_stationary_cost(
        self, bench_model, bench_filter, bench_control
    ):
        # Cesaro limit: J_N / N must settle on the long-run average
        N = 5000
        J_N = finite_horizon_cost(bench_model, 1.0, BENCH_TIMEOUT, N)
        ma = _analysis_inputs(bench_model, 1.0, BENCH_TIMEOUT, bench_filter,
                              bench_control)
        bd = infinite_horizon_cost(bench_control, bench_filter, ma, bench_model)
        assert abs(J_N / N - bd.total) / bd.total < 0.01


class TestCostTradeoffCurve:
    def test_singleton_grid(self, bench_model):
        points = cost_tradeoff_curve(bench_model, [1e6], BENCH_TIMEOUT)
        assert len(points) == 1
        ma, bd = points[0]
        assert ma.lam == 1e6
        assert ma.rate >= 0.999
        assert 53.18 <= bd.total <= 53.28

    def test_monotone_tradeoff(self, bench_model):
        lams = np.logspace(-2, 2, 13)
        points = cost_tradeoff_curve(bench_model, lams, BENCH_TIMEOUT)
        rates = [ma.rate for ma, _ in points]
        costs = [bd.total for _, bd in points]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_points_sorted_regardless_of_input_order(self, bench_model):
        points = cost_tradeoff_curve(bench_model, [10.0, 0.1, 1.0], BENCH_TIMEOUT)
        assert [ma.lam for ma, _ in points] == [0.1, 1.0, 10.0]

    def test_point_internal_consistency(self, bench_model):
        ((ma, bd),) = cost_tradeoff_curve(bench_model, [0.7], BENCH_TIMEOUT)
        assert ma.lam == 0.7
        assert ma.sigma_trace.shape == (BENCH_TIMEOUT + 1,)
        assert ma.trigger_by_age.shape == (BENCH_TIMEOUT + 1,)
        assert bd.total == bd.base + bd.filter_term + bd.trigger_term

    def test_precomputed_solves_give_identical_results(
        self, bench_model, bench_filter, bench_control
    ):
        fresh = cost_tradeoff_curve(bench_model, [0.5, 5.0], BENCH_TIMEOUT)
        shared = cost_tradeoff_curve(
            bench_model, [0.5, 5.0], BENCH_TIMEOUT, ss=bench_filter, cs=bench_control
        )
        for (ma, bd), (ma_shared, bd_shared) in zip(fresh, shared):
            assert ma.rate == ma_shared.rate
            assert bd == bd_shared

    def test_empty_grid_rejected(self, bench_model):
        with pytest.raises(ModelError, match="^lams must be a nonempty grid"):
            cost_tradeoff_curve(bench_model, [], BENCH_TIMEOUT)

    def test_single_lambda_equals_its_grid_point(self):
        # a lambda analysed alone gets the bits of the CLI's one pass over
        # the whole grid
        models = [make_benchmark_model()]
        rng = np.random.default_rng(20261018)
        models += [random_valid_model(rng) for _ in range(4)]
        for model in models:
            filt, ctrl = kf_steady_state(model), control_steady_state(model)
            curve = cost_tradeoff_curve(model, np.logspace(-6, 6, 13),
                                        BENCH_TIMEOUT, ss=filt, cs=ctrl)
            for ma, bd in curve:
                (one, one_bd), = cost_tradeoff_curve(model, [ma.lam],
                                                     BENCH_TIMEOUT, ss=filt,
                                                     cs=ctrl)
                assert (one.lam, one.rate) == (ma.lam, ma.rate)
                assert one_bd == bd
                assert one.pi.tobytes() == ma.pi.tobytes()


def test_golden_infinite_horizon_cost_closed_form():
    """All-ones model: reassemble the scalar total from its pieces.

    The solver outputs are pinned to golden-ratio values by other tests;
    here the assembled breakdown is checked against a direct scalar
    evaluation of S*W + F*M + M * sum_i pi(i) sigma_e(i).
    """
    model = make_golden_model()
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)
    ma = _analysis_inputs(model, 0.5, 2, filt, ctrl)
    bd = infinite_horizon_cost(ctrl, filt, ma, model)
    _, (sigmas,) = sigma_table(filt, model.A, [0.5], 2)
    direct = (
        ctrl.S_inf[0, 0]
        + filt.F_inf[0, 0] * ctrl.M_inf[0, 0]
        + ctrl.M_inf[0, 0] * (ma.pi[1] * sigmas[1][0, 0]
                              + ma.pi[2] * sigmas[2][0, 0])
    )
    assert bd.total == pytest.approx(direct, rel=1e-12)
