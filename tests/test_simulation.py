"""Tests for the Monte Carlo closed-loop engine.

The engine runs in error coordinates, so most checks here replay recorded
traces against the defining recursions or compare seeded empirical
statistics with the closed-form analysis layer.
"""

import dataclasses
import json
import pickle
import tracemalloc

import numpy as np
import pytest

import etlqg.simulation as sim
from etlqg import (
    ControlSynthesis,
    ConvergenceError,
    DivergenceError,
    ModelError,
    SimConfig,
    aggregate_runs,
    control_steady_state,
    cost_tradeoff_curve,
    infinite_horizon_cost,
    kf_steady_state,
    run_closed_loop,
)

from closed_loop_oracle import SHARED_FIELDS, reference_closed_loop_grid
from conftest import BENCH_TIMEOUT, chains, random_valid_model, traced_grid
from sigma_table_oracle import sigma_table


def _cfg(model, timeout=BENCH_TIMEOUT, **kw):
    defaults = dict(horizon=2000, runs=8, seed=99, burn_in=200)
    defaults.update(kw)
    return SimConfig(model=model, timeout=timeout, **defaults)


def _two_output_models(count):
    """The first count draws of random_valid_model(default_rng(3), n_max=4)
    with p >= 2 outputs, whose measurement draws go through a p x p factor."""
    rng, models = np.random.default_rng(3), []
    while len(models) < count:
        model = random_valid_model(rng, n_max=4)
        if model.dims[2] >= 2:
            models.append(model)
    return models


class TestSimConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"horizon": 0},
            {"horizon": 2.5},
            {"horizon": True},
            {"runs": 0},
            {"seed": -1},
            {"burn_in": -1},
            {"burn_in": 2000},
            {"timeout": 0},
            {"timeout": -3},
            {"timeout": 2.5},
            {"timeout": True},
            {"timeout": "10"},
        ],
    )
    def test_invalid_settings_rejected(self, bench_model, overrides):
        kw = dict(timeout=10, horizon=2000, runs=4, seed=1, burn_in=200)
        kw.update(overrides)
        name, = overrides
        with pytest.raises(ModelError, match=f"^{name} must"):
            SimConfig(model=bench_model, **kw)

    def test_valid_settings_accepted(self, bench_model):
        cfg = SimConfig(model=bench_model, timeout=10, horizon=10, runs=1,
                        seed=0, burn_in=0)
        assert cfg.horizon == 10


class TestDeterminism:
    def test_repeat_run_bitwise_identical(self, bench_model, bench_filter,
                                          bench_control):
        cfg = _cfg(bench_model, runs=4, horizon=600)
        r1, c1 = run_closed_loop(cfg, bench_filter, bench_control, [1.0])
        r2, c2 = run_closed_loop(cfg, bench_filter, bench_control, [1.0])
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)

    def test_chunk_size_does_not_change_the_stream(self, bench_model,
                                                   monkeypatch):
        # per-run generators are consumed in fixed order, so the block size
        # used for pregeneration must be invisible in the results; chunks
        # are whole, so the last one of 7 steps never shrinks to the one
        # row on which numpy rounds the p >= 2 measurement noise otherwise
        for model in [bench_model] + _two_output_models(17):
            filt, ctrl = kf_steady_state(model), control_steady_state(model)
            cfg = _cfg(model, runs=2, horizon=50, burn_in=0)
            traces = []
            for chunk in (sim._CHUNK_STEPS, 7):
                with monkeypatch.context() as mp:
                    mp.setattr(sim, "_CHUNK_STEPS", chunk)
                    traces.append(traced_grid(cfg, filt, ctrl, [1.0])[2][0])
            for a, b in zip(*traces):
                for name in SHARED_FIELDS:
                    _assert_same_bits(getattr(a, name), getattr(b, name))

    def test_horizon_does_not_change_the_stream(self):
        # a run's numbers depend on its seed, index and step alone: the last
        # draw chunk is whole at 257 steps too, not one step, whose one-row
        # matmul numpy rounds otherwise for p >= 2 measurement noise
        for model in _two_output_models(17):
            filt, ctrl = kf_steady_state(model), control_steady_state(model)
            short, full = (traced_grid(SimConfig(
                model=model, timeout=10, horizon=horizon, runs=8, seed=0,
                burn_in=0), filt, ctrl, GRID)[2] for horizon in (257, 300))
            for row_short, row_full in zip(short, full):
                for a, b in zip(row_short, row_full):
                    for name in SHARED_FIELDS:
                        _assert_same_bits(getattr(a, name),
                                          getattr(b, name)[:257])

    def test_different_seeds_differ(self, bench_model, bench_filter, bench_control):
        cfg_a = _cfg(bench_model, runs=2, horizon=400, seed=7)
        cfg_b = _cfg(bench_model, runs=2, horizon=400, seed=8)
        ra, _ = run_closed_loop(cfg_a, bench_filter, bench_control, [1.0])
        rb, _ = run_closed_loop(cfg_b, bench_filter, bench_control, [1.0])
        assert not np.array_equal(ra, rb)


class TestAggregateRuns:
    def test_mean_and_stderr(self):
        mean, stderr = aggregate_runs(np.array([1.0, 2.0, 3.0]))
        assert mean == 2.0
        assert stderr == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)

    def test_single_value_has_no_stderr(self):
        mean, stderr = aggregate_runs(np.array([4.2]))
        assert mean == 4.2
        assert stderr is None


@pytest.fixture(scope="module")
def traced(bench_model, bench_filter, bench_control):
    """cfg, the engine's rates, costs and traces at lambda 1, and the oracle's
    traces of the same runs, which also hold y, xhat_s and xhat_c."""
    cfg = _cfg(bench_model, runs=3, horizon=500, burn_in=0)
    (rates,), (costs,), (traces,) = traced_grid(cfg, bench_filter,
                                                bench_control, [1.0])
    _, _, (oracle,) = reference_closed_loop_grid(cfg, bench_filter,
                                                 bench_control, [1.0],
                                                 record=True)
    return cfg, rates, costs, traces, oracle


class TestTraceInvariants:
    """sigma, tau, rate and cost read the engine's traces; the estimates,
    which the engine does not record, read the oracle's (TestOracle holds
    the shared fields of the two to the same bits)."""

    def test_counter_and_indicator_consistency(self, traced):
        cfg, _, _, traces, _ = traced
        timeout = cfg.timeout
        for tr in traces:
            assert set(np.unique(tr.sigma)) <= {0, 1}
            assert tr.tau.max() <= timeout
            np.testing.assert_array_equal(tr.sigma == 1, tr.tau == 0)
            expected_tau = np.where(tr.sigma[1:] == 1, 0, tr.tau[:-1] + 1)
            np.testing.assert_array_equal(tr.tau[1:], expected_tau)
            forced = tr.tau[:-1] == timeout
            assert np.all(tr.sigma[1:][forced] == 1)

    def test_transmission_resets_controller_estimate(self, traced):
        for tr in traced[4]:
            sent = tr.sigma == 1
            assert sent.any()
            np.testing.assert_array_equal(tr.xhat_c[sent], tr.xhat_s[sent])
            np.testing.assert_array_equal(tr.e_filt[sent], 0.0)
            np.testing.assert_array_equal(tr.xhat_c, tr.xhat_s - tr.e_filt)

    def test_input_is_linear_feedback(self, traced, bench_control):
        for tr in traced[4]:
            np.testing.assert_array_equal(tr.u, -(tr.xhat_c @ bench_control.L_inf.T))

    def test_sensor_estimate_follows_filter_recursion(self, traced, bench_model,
                                                      bench_filter):
        # one-step replay from recorded quantities only
        A, B, C = bench_model.A, bench_model.B, bench_model.C
        K = bench_filter.K_inf
        for tr in traced[4]:
            pred = tr.xhat_s[:-1] @ A.T + tr.u[:-1] @ B.T
            innov = tr.y[1:] - pred @ C.T
            expected = pred + innov @ K.T
            np.testing.assert_allclose(tr.xhat_s[1:], expected, atol=1e-8)

    def test_first_step_uses_prior_mean(self, traced, bench_model, bench_filter):
        C, K = bench_model.C, bench_filter.K_inf
        x0_mean = bench_model.x0_mean
        for tr in traced[4]:
            expected = x0_mean + (tr.y[0] - C @ x0_mean) @ K.T
            np.testing.assert_allclose(tr.xhat_s[0], expected, atol=1e-10)

    def test_controller_estimate_propagates_blindly_on_hold(self, traced,
                                                            bench_model):
        A, B = bench_model.A, bench_model.B
        for tr in traced[4]:
            hold = tr.sigma[1:] == 0
            expected = tr.xhat_c[:-1] @ A.T + tr.u[:-1] @ B.T
            np.testing.assert_allclose(tr.xhat_c[1:][hold], expected[hold],
                                       atol=1e-8)

    def test_rate_matches_indicator_mean(self, traced):
        cfg, rates, _, traces, _ = traced
        for r, tr in enumerate(traces):
            assert rates[r] == tr.sigma[cfg.burn_in:].mean()

    def test_cost_matches_stage_sums(self, traced, bench_model):
        cfg, _, costs, traces, _ = traced
        Q, R = bench_model.Q, bench_model.R
        for r, tr in enumerate(traces):
            stages = (np.einsum("ki,ij,kj->k", tr.x, Q, tr.x)
                      + np.einsum("ki,ij,kj->k", tr.u, R, tr.u))
            assert costs[r] == pytest.approx(stages[cfg.burn_in:].mean(), rel=1e-12)

    def test_no_traces_by_default(self, bench_model, bench_filter, bench_control):
        # without on_block nothing is recorded: a (rates, costs) pair; with
        # it, the same pair, and the blocks go to on_block
        cfg = _cfg(bench_model, runs=2, horizon=300)
        (rates,), (costs,) = run_closed_loop(cfg, bench_filter, bench_control,
                                             [1.0])
        assert rates.shape == costs.shape == (2,)
        blocks = []
        got = run_closed_loop(cfg, bench_filter, bench_control, [1.0],
                              on_block=blocks.append)
        np.testing.assert_array_equal(got[0][0], rates)
        np.testing.assert_array_equal(got[1][0], costs)
        assert [block.sigma.shape for block in blocks] == [(300, 1, 2)]

    @pytest.mark.parametrize("outputs", [1, 2])
    def test_blocks_are_step_bytes(self, bench_model, monkeypatch, outputs):
        # a TraceBlock is its record's own arrays, sigma its bool: no copy,
        # so a block holds step_bytes per lambda-run-step and no more
        model = bench_model if outputs == 1 else _two_output_models(1)[0]
        filt, ctrl = kf_steady_state(model), control_steady_state(model)
        monkeypatch.setattr(sim, "TRACE_BLOCK_STEPS", 64)
        cfg = _cfg(model, runs=3, horizon=150, burn_in=0)
        blocks = []
        run_closed_loop(cfg, filt, ctrl, GRID, on_block=blocks.append)
        assert [len(block.sigma) for block in blocks] == [64, 64, 22]
        for block in blocks:
            nbytes = sum(getattr(block, name).nbytes for name in SHARED_FIELDS)
            assert block.sigma.dtype == bool
            assert nbytes == (sim.step_bytes(model) * len(block.sigma)
                              * len(GRID) * cfg.runs)


def _against_analysis(cfg, filt, ctrl, lam):
    """The analytic (MarkovAnalysis, CostBreakdown) at lam, then the
    (mean, stderr) of the simulated rates and of the costs: a row of the CLI
    sweep."""
    point, = cost_tradeoff_curve(cfg.model, [lam], cfg.timeout, ss=filt,
                                 cs=ctrl)
    (rates,), (costs,) = run_closed_loop(cfg, filt, ctrl, [lam])
    return point, aggregate_runs(rates), aggregate_runs(costs)


class TestAgainstAnalysis:
    def test_unit_sensitivity_agreement(self, bench_model, bench_filter,
                                        bench_control):
        cfg = _cfg(bench_model, runs=64, horizon=2000, seed=2024)
        (ma, bd), (rate, rate_se), (cost, cost_se) = _against_analysis(
            cfg, bench_filter, bench_control, 1.0)
        assert abs(rate - ma.rate) < 4 * rate_se
        assert abs(cost - bd.total) < 5 * cost_se

    def test_low_sensitivity_rate_sits_above_timeout_floor(
        self, bench_model, bench_filter, bench_control
    ):
        """At lam=1e-6 the unstable plant still triggers well above 1/(T+1).

        The held error grows geometrically between resets, so even a tiny
        sensitivity produces a materially higher transmission rate than the
        pure-timeout floor; the simulator must reproduce the analytic value.
        """
        cfg = _cfg(bench_model, runs=64, horizon=2000, seed=2025)
        (ma, _), (rate, rate_se), _ = _against_analysis(cfg, bench_filter,
                                                        bench_control, 1e-6)
        floor = 1.0 / (BENCH_TIMEOUT + 1)
        assert ma.rate > 1.9 * floor
        assert 0.035 < ma.rate < 0.042
        assert abs(rate - ma.rate) < 4 * rate_se

    def test_extreme_sensitivity_sends_almost_always(self, bench_model,
                                                     bench_filter, bench_control):
        cfg = _cfg(bench_model, runs=8, horizon=2000)
        (ma, _), (rate, _), _ = _against_analysis(cfg, bench_filter,
                                                  bench_control, 1e6)
        assert ma.rate >= 0.999
        assert rate >= 0.99

    def test_pure_timeout_cadence_is_exact(self, golden_model, golden_filter,
                                           golden_control):
        # lam underflows to a hold probability of exactly 1, so transmissions
        # happen exactly when the counter hits the timeout
        timeout = 9
        cfg = SimConfig(model=golden_model, timeout=timeout, horizon=100,
                        runs=2, seed=5, burn_in=0)
        _, _, (traces,) = traced_grid(cfg, golden_filter, golden_control,
                                      [1e-300])
        expected = (np.arange(100) % (timeout + 1)) == timeout
        for tr in traces:
            np.testing.assert_array_equal(tr.sigma.astype(bool), expected)

    def test_counter_occupancy_matches_stationary_distribution(
        self, bench_model, bench_filter, bench_control
    ):
        cfg = _cfg(bench_model, runs=4, horizon=50_000, seed=77)
        _, _, (traces,) = traced_grid(cfg, bench_filter, bench_control, [1.0])
        taus = np.concatenate([tr.tau[cfg.burn_in:] for tr in traces])
        counts = np.bincount(taus, minlength=BENCH_TIMEOUT + 1)
        occupancy = counts / taus.size
        ma = chains(bench_filter, bench_model.A, [1.0], BENCH_TIMEOUT)[0]
        visible = ma.pi > 1e-3
        se = np.sqrt(ma.pi * (1.0 - ma.pi) / taus.size)
        # dependent samples; allow a generous multiple of the iid stderr
        assert np.all(np.abs(occupancy[visible] - ma.pi[visible])
                      < 12 * se[visible] + 1e-4)

    def test_trigger_cost_term_matches_time_average(self, bench_model,
                                                    bench_filter, bench_control):
        """Second route to the trigger penalty: average over simulated counters.

        The analytic term weights Tr(M sigma_e(i)) by the stationary
        distribution; replaying the recorded counter sequence through the
        same table must land on the same value.
        """
        cfg = _cfg(bench_model, runs=8, horizon=25_000, seed=31)
        _, _, (traces,) = traced_grid(cfg, bench_filter, bench_control, [1.0])
        ma = chains(bench_filter, bench_model.A, [1.0], BENCH_TIMEOUT,
                    bench_control.M_inf)[0]
        bd = infinite_horizon_cost(bench_control, bench_filter, ma,
                                   bench_model)
        _, (sigmas,) = sigma_table(bench_filter, bench_model.A, [1.0],
                                   BENCH_TIMEOUT)
        table = np.array([float(np.trace(bench_control.M_inf @ s))
                          for s in sigmas])
        taus = np.concatenate([tr.tau[cfg.burn_in:] for tr in traces])
        empirical = table[taus].mean()
        assert empirical == pytest.approx(bd.trigger_term, rel=0.02)


class TestDivergenceGuard:
    def _open_loop(self, bench_model):
        # zero feedback leaves the unstable plant uncontrolled
        return ControlSynthesis(L_inf=np.zeros((1, 2)), S_inf=np.eye(2),
                                M_inf=np.eye(2), residual=0.0, iterations=0)

    def test_guard_raises_with_location(self, bench_model, bench_filter,
                                        monkeypatch):
        monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", 1e6)
        cfg = SimConfig(model=bench_model, timeout=BENCH_TIMEOUT,
                        horizon=2000, runs=3, seed=11, burn_in=0)
        with pytest.raises(DivergenceError) as exc:
            run_closed_loop(cfg, bench_filter, self._open_loop(bench_model),
                            [1e-12])
        err = exc.value
        assert err.step > 0
        assert 0 <= err.run < 3
        assert err.value > 1e6
        assert "diverged" in str(err)

    def test_error_fields_are_python_scalars(self, bench_model, bench_filter,
                                             monkeypatch):
        # the step comes from numpy's index of the crossing; a JSON record
        # of the error needs every field as a Python number
        monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", 1e6)
        cfg = SimConfig(model=bench_model, timeout=BENCH_TIMEOUT,
                        horizon=2000, runs=2, seed=7, burn_in=0)
        with pytest.raises(DivergenceError) as exc:
            sim.run_closed_loop(cfg, bench_filter,
                                self._open_loop(bench_model), [0.5, 4.0])
        fields = vars(exc.value)
        assert {name: type(value) for name, value in fields.items()} == {
            "step": int, "run": int, "value": float, "lam": float}
        assert json.loads(json.dumps(fields)) == fields

    def test_guard_disabled_runs_to_completion(self, bench_model, bench_filter,
                                               monkeypatch):
        monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", np.inf)
        cfg = SimConfig(model=bench_model, timeout=BENCH_TIMEOUT,
                        horizon=800, runs=2, seed=11, burn_in=0)
        (rates,), (costs,) = run_closed_loop(cfg, bench_filter,
                                             self._open_loop(bench_model),
                                             [1e-12])
        assert np.all(np.isfinite(rates))
        assert costs.shape == (2,)

    @pytest.mark.parametrize("open_loop,guard,lams",
                             [(True, 1e6, [0.5, 4.0]), (False, 15.0, [4.0, 0.01])])
    def test_grid_reports_first_crossing_and_its_lambda(
            self, bench_model, bench_filter, bench_control, monkeypatch,
            open_loop, guard, lams):
        # open loop: every lambda row carries the same state, so the tie goes
        # to the first grid point; closed loop under a low guard: lambda 0.01
        # crosses at step 17 and lambda 4.0 only at step 455
        monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", guard)
        ctrl = self._open_loop(bench_model) if open_loop else bench_control
        cfg = SimConfig(model=bench_model, timeout=BENCH_TIMEOUT,
                        horizon=2000, runs=3, seed=11, burn_in=0)
        singles = []
        for lam in lams:
            with pytest.raises(DivergenceError) as exc:
                run_closed_loop(cfg, bench_filter, ctrl, [lam])
            assert exc.value.lam == lam
            singles.append(exc.value)
        with pytest.raises(DivergenceError) as exc:
            sim.run_closed_loop(cfg, bench_filter, ctrl, lams)
        err = exc.value
        want = min(singles, key=lambda e: (e.step, -e.value))
        assert (err.step, err.lam, err.run, err.value) == (
            want.step, want.lam, want.run, want.value)
        assert f"lambda {want.lam!r}, run {want.run}" in str(err)
        if open_loop:
            assert err.lam == lams[0]
            assert singles[0].step == singles[1].step
        else:
            assert (err.step, err.lam) == (17, 0.01)


class TestScheduleControlSeparation:
    def test_schedule_is_bitwise_independent_of_feedback(self, bench_model,
                                                         bench_filter,
                                                         bench_control,
                                                         monkeypatch):
        """The trigger path never reads the state or the input.

        Swapping the feedback gain for zero (open loop) must leave the
        transmission pattern bitwise unchanged under the same seed.
        """
        monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", np.inf)
        open_loop = ControlSynthesis(L_inf=np.zeros((1, 2)), S_inf=np.eye(2),
                                     M_inf=np.eye(2), residual=0.0,
                                     iterations=0)
        cfg = SimConfig(model=bench_model, timeout=BENCH_TIMEOUT,
                        horizon=1000, runs=2, seed=313, burn_in=0)
        _, _, (closed,) = traced_grid(cfg, bench_filter, bench_control, [1.0])
        _, _, (opened,) = traced_grid(cfg, bench_filter, open_loop, [1.0])
        for a, b in zip(closed, opened):
            np.testing.assert_array_equal(a.sigma, b.sigma)
            np.testing.assert_array_equal(a.tau, b.tau)
            np.testing.assert_array_equal(a.e_filt, b.e_filt)
            assert not np.array_equal(a.x, b.x)


class TestOptimalGain:
    def test_perturbed_gain_costs_more(self, bench_model, bench_filter,
                                       bench_control):
        """The certainty-equivalent gain L_inf minimizes the long-run cost
        under the stochastic trigger: a nearby gain costs more at every
        lambda.

        Common random numbers (one seed) pair each run's cost at L_inf with
        its cost at L_inf + eps * D, so the paired difference has a small
        stderr where the unpaired costs' stderr hides the gap. D is L_inf
        itself and one seeded random direction; eps stays small, since
        eps = 0.2 along a random D diverges at lambda 0.01.
        """
        lams = [0.01, 1.0, 100.0]
        cfg = _cfg(bench_model, runs=100, horizon=2000, seed=7)
        _, base = run_closed_loop(cfg, bench_filter, bench_control, lams)
        L = bench_control.L_inf
        for D in (L, np.random.default_rng(1).standard_normal(L.shape)):
            for eps in (0.05, -0.05):
                ctrl = dataclasses.replace(bench_control, L_inf=L + eps * D)
                _, costs = run_closed_loop(cfg, bench_filter, ctrl, lams)
                diff = costs - base
                z = diff.mean(axis=1) / (diff.std(axis=1, ddof=1)
                                         / np.sqrt(cfg.runs))
                assert (z >= 5).all(), (eps, D, z)


GRID = [0.1, 1.0, 10.0]


class TestLambdaGrid:
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("sizes", [[1, 2], [3]])
    def test_grid_equals_single_lambda_runs(self, bench_model, bench_filter,
                                            bench_control, runs, sizes):
        # GRID in consecutive calls of these sizes: a run sees the same
        # numbers at a lambda in any grid
        cfg = _cfg(bench_model, runs=runs, horizon=300, burn_in=20)
        rates, costs, traces = [], [], []
        for end, size in zip(np.cumsum(sizes), sizes):
            r, c, t = traced_grid(cfg, bench_filter, bench_control,
                                  GRID[end - size:end])
            rates.extend(r)
            costs.extend(c)
            traces.extend(t)
        for g, lam in enumerate(GRID):
            (r,), (c,), (t,) = traced_grid(cfg, bench_filter, bench_control,
                                           [lam])
            np.testing.assert_array_equal(rates[g], r)
            np.testing.assert_array_equal(costs[g], c)
            assert len(traces[g]) == len(t) == runs
            for got, want in zip(traces[g], t):
                for name in SHARED_FIELDS:
                    np.testing.assert_array_equal(getattr(got, name),
                                                  getattr(want, name))


class TestRunSlices:
    """A slice of runs equals the same columns of the full call, bitwise.

    Slices keep at least 2 runs, as the CLI's do: numpy rounds a one-row
    matmul on another kernel.
    """

    @pytest.mark.parametrize("lams,bounds", [([1.0], [0, 3, 7]),
                                             (GRID, [0, 2, 5, 7]),
                                             ([1.0], [0, 2, 4, 6])])
    def test_slices_equal_columns_of_full_call(self, bench_model, bench_filter,
                                                bench_control, lams, bounds):
        cfg = _cfg(bench_model, runs=7, horizon=300, burn_in=20)
        rates, costs, traces = traced_grid(cfg, bench_filter, bench_control,
                                           lams)
        for a, b in zip(bounds, bounds[1:]):
            r, c, t = traced_grid(cfg, bench_filter, bench_control, lams,
                                  range(a, b))
            assert r.shape == c.shape == (len(lams), b - a)
            np.testing.assert_array_equal(r, rates[:, a:b])
            np.testing.assert_array_equal(c, costs[:, a:b])
            for g in range(len(lams)):
                assert len(t[g]) == b - a
                for got, want in zip(t[g], traces[g][a:b]):
                    for name in SHARED_FIELDS:
                        np.testing.assert_array_equal(getattr(got, name),
                                                      getattr(want, name))

    @pytest.mark.parametrize("runs", [range(0), range(2, 9), range(0, 4, 2),
                                      range(-1, 2), [0, 1]])
    def test_invalid_slice_rejected(self, bench_model, bench_filter,
                                    bench_control, runs):
        cfg = _cfg(bench_model, runs=8, horizon=300)
        with pytest.raises(ModelError, match="runs must be"):
            sim.run_closed_loop(cfg, bench_filter, bench_control, [1.0],
                                runs)

    def test_guard_names_the_global_run(self, bench_model, bench_filter,
                                        monkeypatch):
        monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", 1e6)
        open_loop = TestDivergenceGuard()._open_loop(bench_model)
        cfg = SimConfig(model=bench_model, timeout=BENCH_TIMEOUT,
                        horizon=2000, runs=6, seed=11, burn_in=0)
        with pytest.raises(DivergenceError) as exc:
            sim.run_closed_loop(cfg, bench_filter, open_loop, [0.5, 4.0])
        full = exc.value
        errors = []
        for runs in (range(0, 3), range(3, 6)):
            with pytest.raises(DivergenceError) as exc:
                sim.run_closed_loop(cfg, bench_filter, open_loop,
                                    [0.5, 4.0], runs)
            assert exc.value.run in runs
            errors.append(exc.value)
        # the unsplit report is the earliest slice report, largest |x| first
        first = min(errors, key=lambda e: (e.step, -e.value))
        assert (first.step, first.run, first.value, first.lam) == (
            full.step, full.run, full.value, full.lam)


@pytest.mark.parametrize("error", [
    DivergenceError(step=3, run=1, value=2e12, lam=0.5),
    ConvergenceError("steady-state filter iteration", residual=0.5,
                     iterations=7, relative=0.25),
])
def test_errors_survive_pickle(error):
    # a worker's error reaches the parent pickled
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert vars(back) == vars(error)
    assert str(back) == str(error)


def _assert_same_bits(got, want):
    # tobytes, not assert_array_equal: that treats -0.0 as 0.0, and a trace
    # CSV writes the two differently
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _run_both(cfg, filt, ctrl, lams, record):
    """(engine, oracle) results, or their DivergenceErrors; the engine's
    traces are traced_grid's, or None unless record."""
    def engine():
        if record:
            return traced_grid(cfg, filt, ctrl, lams)
        return (*sim.run_closed_loop(cfg, filt, ctrl, lams), None)

    out = []
    for fn in (engine, lambda: reference_closed_loop_grid(
            cfg, filt, ctrl, lams, record=record)):
        try:
            out.append(fn())
        except DivergenceError as exc:
            out.append(exc)
    return out


def _assert_matches_oracle(got, want):
    """Engine and oracle agree in rates, costs and the shared trace fields,
    or raise the same DivergenceError."""
    if isinstance(want, DivergenceError):
        assert isinstance(got, DivergenceError)
        assert vars(got) == vars(want)
        return
    for a, b in zip(got[:2], want[:2]):
        _assert_same_bits(a, b)
    if want[2] is None:
        assert got[2] is None
        return
    assert len(got[2]) == len(want[2])
    for row_got, row_want in zip(got[2], want[2]):
        assert len(row_got) == len(row_want)
        for a, b in zip(row_got, row_want):
            for name in SHARED_FIELDS:
                _assert_same_bits(getattr(a, name), getattr(b, name))


class TestOracle:
    """The engine equals the old run-major loop bit for bit.

    reference_closed_loop_grid (tests/closed_loop_oracle.py) is the loop
    before the estimator left the lambda axis and the traces turned
    time-major. Rates, costs and the trace fields the engine records must
    keep their bytes, -0.0 included.
    """

    LAMS = {1: [1.0], 3: GRID, 13: [0.01 * 10**(k / 3) for k in range(13)]}

    @pytest.mark.parametrize("runs", [1, 2, 3, 7])
    @pytest.mark.parametrize("group", [1, 3, 13])
    @pytest.mark.parametrize("burn_in,chunk", [(0, None), (20, 7)])
    def test_bundled_model(self, bench_model, bench_filter, bench_control,
                           monkeypatch, runs, group, burn_in, chunk):
        if chunk is not None:
            monkeypatch.setattr(sim, "_CHUNK_STEPS", chunk)
        cfg = _cfg(bench_model, runs=runs, horizon=300, burn_in=burn_in)
        got, want = _run_both(cfg, bench_filter, bench_control,
                              self.LAMS[group], record=True)
        _assert_matches_oracle(got, want)

    def test_random_models(self):
        rng = np.random.default_rng(20261018)
        runs_cycle = [1, 2, 3, 7]
        for i in range(12):
            model = random_valid_model(rng)
            filt, ctrl = kf_steady_state(model), control_steady_state(model)
            cfg = SimConfig(model=model, timeout=7, horizon=157,
                            runs=runs_cycle[i % 4], seed=i,
                            burn_in=20 * (i % 2))
            with pytest.MonkeyPatch.context() as mp:
                if i % 2:
                    mp.setattr(sim, "_CHUNK_STEPS", 7)
                got, want = _run_both(cfg, filt, ctrl,
                                      self.LAMS[[1, 3, 13][i % 3]],
                                      record=i % 3 != 2)
            _assert_matches_oracle(got, want)

    @pytest.mark.parametrize("runs", [2, 7])
    @pytest.mark.parametrize("group", [1, 3, 13])
    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_reused_untraced_blocks(self, bench_model, bench_filter,
                                    bench_control, monkeypatch, runs, group,
                                    block):
        # untraced blocks of block steps reuse their buffers, each block's
        # first row carried over from the last one's final row; at timeout
        # 5 the counter's carry decides transmissions too
        monkeypatch.setattr(sim, "_BLOCK_BYTES",
                            block * sim.step_bytes(bench_model) * group * runs)
        cfg = _cfg(bench_model, timeout=5, runs=runs, horizon=300, burn_in=20)
        got, want = _run_both(cfg, bench_filter, bench_control,
                              self.LAMS[group], record=False)
        _assert_matches_oracle(got, want)

    @pytest.mark.parametrize("runs,group,block", [(1, 1, 2048), (2, 3, 2048),
                                                  (3, 13, 256), (7, 3, 333)])
    def test_streamed_blocks(self, bench_model, bench_filter, bench_control,
                             monkeypatch, runs, group, block):
        # 2100 steps: a partial chunk of 256 and a partial block of 2048
        monkeypatch.setattr(sim, "TRACE_BLOCK_STEPS", block)
        cfg = _cfg(bench_model, runs=runs, horizon=2100, burn_in=20)
        lams = self.LAMS[group]
        blocks = []
        rates, costs = sim.run_closed_loop(
            cfg, bench_filter, bench_control, lams, on_block=blocks.append)
        want = reference_closed_loop_grid(cfg, bench_filter, bench_control, lams,
                                          record=True)
        _assert_same_bits(rates, want[0])
        _assert_same_bits(costs, want[1])
        starts = list(range(0, 2100, block))
        assert [b.start for b in blocks] == starts
        assert [len(b.sigma) for b in blocks] == [
            min(block, 2100 - s) for s in starts]
        for name in ("sigma", "tau", "x", "u", "e_filt"):
            whole = np.concatenate([getattr(b, name) for b in blocks])
            for g in range(group):
                for r in range(runs):
                    _assert_same_bits(whole[:, g, r].copy(),
                                      getattr(want[2][g][r], name))


class TestStageCost:
    """The stage cost is summed in step order with sim._quad, whose bits do
    not depend on how many rows it is given."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(3,), (3, 1), (1, 3), (2, 2), (13, 7),
                                       (5, 3, 8)])
    def test_quad_equals_einsum(self, n, shape):
        # numpy's einsum sums n=2 pairwise over at most two rows; from three
        # rows on, it sums in (i, j) order as _quad does
        rng = np.random.default_rng(n)
        f = rng.standard_normal((n, n))
        M = f @ f.T
        x = (rng.standard_normal(shape + (n,))
             * 10.0 ** rng.integers(-3, 4, shape + (n,)))
        _assert_same_bits(sim._quad(x, M),
                          np.einsum("...i,ij,...j->...", x, M, x))

    def test_cost_bits_do_not_depend_on_grid_width(self, bench_model,
                                                   bench_filter, bench_control):
        # a 1-lambda, 2-run grid is the shape where einsum sums pairwise
        cfg = _cfg(bench_model, runs=2, horizon=2000, burn_in=20, seed=7)
        rates, costs = sim.run_closed_loop(cfg, bench_filter,
                                           bench_control, [10.0])
        grid_rates, grid_costs = sim.run_closed_loop(
            cfg, bench_filter, bench_control, GRID)
        _assert_same_bits(rates[0], grid_rates[2])
        _assert_same_bits(costs[0], grid_costs[2])


class TestBlockGuard:
    """The guard is checked once per block, and reports what a per-step
    check reports."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [None, 64, 4096])
    def test_crossing_then_overflow_in_one_block(self, bench_model,
                                                 bench_filter, monkeypatch,
                                                 block):
        # open loop, the state passes 1e12 near step 150 and overflows to
        # inf near step 3900; the loop runs on to the end of the crossing's
        # block, so with one block of 4000 steps it overflows, and no
        # RuntimeWarning may escape
        open_loop = TestDivergenceGuard()._open_loop(bench_model)
        cfg = SimConfig(model=bench_model, timeout=BENCH_TIMEOUT,
                        horizon=4000, runs=2, seed=11, burn_in=0)
        with monkeypatch.context() as mp:
            mp.setattr(sim, "DIVERGENCE_LIMIT", np.inf)
            _, costs = sim.run_closed_loop(cfg, bench_filter, open_loop,
                                           [1.0])
        assert not np.isfinite(costs).any()
        assert (sim._BLOCK_BYTES // (sim.step_bytes(bench_model) * 2)
                >= cfg.horizon)
        if block is not None:
            monkeypatch.setattr(sim, "TRACE_BLOCK_STEPS", block)
        blocks = []
        with pytest.raises(DivergenceError) as exc:
            sim.run_closed_loop(
                cfg, bench_filter, open_loop, [1.0],
                on_block=None if block is None else blocks.append)
        with pytest.raises(DivergenceError) as want:
            reference_closed_loop_grid(cfg, bench_filter, open_loop, [1.0])
        assert vars(exc.value) == vars(want.value)
        # x_step is computed at step - 1; that step's block never arrives
        crossing = want.value.step - 1
        if block is None:
            assert blocks == []
        else:
            assert [b.start for b in blocks] == list(
                range(0, crossing // block * block, block))
            assert all(b.start + len(b.sigma) <= crossing for b in blocks)

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("open_loop,guard,seed", [(True, 1e6, 0),
                                                      (False, 15.0, 11)])
    def test_negative_crossing(self, bench_model, bench_filter, bench_control,
                               monkeypatch, traced, open_loop, guard, seed):
        # at the crossing step every entry of x lies below the guard and
        # one lies below -guard: the guard sees the crossing through -min
        # alone, and reports that negative entry
        ctrl = (TestDivergenceGuard()._open_loop(bench_model) if open_loop
                else bench_control)
        lams = [4.0, 0.01]
        cfg = SimConfig(model=bench_model, timeout=BENCH_TIMEOUT,
                        horizon=2000, runs=3, seed=seed, burn_in=0)
        monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", guard)
        with pytest.raises(DivergenceError) as exc:
            sim.run_closed_loop(cfg, bench_filter, ctrl, lams,
                                on_block=(lambda block: None) if traced
                                else None)
        with pytest.raises(DivergenceError) as want:
            reference_closed_loop_grid(cfg, bench_filter, ctrl, lams)
        err = exc.value
        assert vars(err) == vars(want.value)
        monkeypatch.setattr(sim, "DIVERGENCE_LIMIT", np.inf)
        _, _, traces = traced_grid(
            dataclasses.replace(cfg, horizon=err.step + 1), bench_filter,
            ctrl, lams)
        x = np.array([[run.x[err.step] for run in row] for row in traces])
        assert x.max() <= guard < -x.min()
        reported = x[lams.index(err.lam), err.run]
        entry = reported[np.abs(reported).argmax()]
        assert entry < 0
        assert -entry == err.value


class TestFootprint:
    """A call holds one block record, one draw chunk per run and, while it
    reduces a block, that block's scratch: no array of a finished block
    lives on into the next, and the guard copies no record."""

    @staticmethod
    def _peaks(fn):
        """Peak bytes allocated above those live when fn starts: at each
        call of the report fn gets, and over fn."""
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            peaks = []
            fn(lambda *_: peaks.append(tracemalloc.get_traced_memory()[1]
                                       - live))
            return peaks + [tracemalloc.get_traced_memory()[1] - live]
        finally:
            tracemalloc.stop()

    def test_traced_peak(self, bench_model, bench_filter, bench_control):
        # the wide CI config's chunk shape, 13 lambdas x 25 runs, over two
        # blocks: the first alone, then with the next, which a block kept
        # alive past its reductions (1.5 records or more) would add to
        block = sim.TRACE_BLOCK_STEPS
        cfg = _cfg(bench_model, runs=25, horizon=2 * block)
        record = sim.step_bytes(bench_model) * 13 * 25 * block
        first, _, whole = self._peaks(lambda report: sim.run_closed_loop(
            cfg, bench_filter, bench_control, TestOracle.LAMS[13],
            on_block=report))
        assert first <= 1.45 * record
        assert whole <= 1.45 * record

    def test_untraced_bytes_per_run(self, bench_model, bench_filter,
                                    bench_control):
        # per run: a draw chunk of 256 x (n + p + 1) floats, 8 KiB here,
        # four Generators and the estimator state
        def peak(runs):
            cfg = _cfg(bench_model, runs=runs, horizon=300)
            return self._peaks(lambda _: sim.run_closed_loop(
                cfg, bench_filter, bench_control, [1.0]))[-1]

        assert (peak(2000) - peak(1000)) / 1000 <= 22.5 * 1024
