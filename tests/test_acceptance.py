"""Acceptance gate: one test per release criterion.

Every test prints a single PASS/FAIL line with the measured numbers before
asserting, so the full scorecard can be read off a verbose run. Monte Carlo
seeds are fixed; the statistical tolerances were sized so the checks hold
with wide margins (the worst observed deviation is several times smaller
than its bound).
"""

import math
import time

import numpy as np

from etlqg import (
    ControlSynthesis,
    SimConfig,
    aggregate_runs,
    control_steady_state,
    cost_tradeoff_curve,
    infinite_horizon_cost,
    kf_steady_state,
    validate_model,
)
from etlqg.simulation import run_closed_loop

from chain_oracle import (cumulative_cov, dense_transition_matrix,
                          nontrigger_probability)
from conftest import (
    BENCH_TIMEOUT,
    GOLDEN_P00,
    GOLDEN_P10,
    chains,
    make_benchmark_model,
    make_golden_model,
    make_limit_model,
    random_valid_model,
    traced_grid,
)
from sigma_table_oracle import sigma_table


def _report(criterion: str, ok: bool, detail: str) -> str:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_always_send_cost_benchmark():
    t0 = time.perf_counter()
    model = make_benchmark_model()
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)
    value = float(np.trace(ctrl.S_inf @ model.W)
                  + np.trace(filt.F_inf @ ctrl.M_inf))
    elapsed = time.perf_counter() - t0
    ok = abs(value - 53.23) <= 0.05 and elapsed < 1.0
    line = _report("1 (always-send cost)", ok,
                   f"value={value:.5f} target=53.23+-0.05 elapsed={elapsed:.3f}s")
    assert ok, line


def test_criterion_2_rate_limits():
    t0 = time.perf_counter()
    model = make_limit_model()
    filt = kf_steady_state(model)
    low, high = chains(filt, model.A, [1e-6, 1e6], 50)
    elapsed = time.perf_counter() - t0
    rel_dev = abs(low.rate * 51.0 - 1.0)
    ok = rel_dev <= 1e-6 and high.rate >= 0.999 and elapsed < 5.0
    line = _report("2 (rate limits)", ok,
                   f"rate(1e-6)*51-1={rel_dev:.2e} (<=1e-6) "
                   f"rate(1e6)={high.rate:.6f} (>=0.999) "
                   f"elapsed={elapsed:.3f}s")
    assert ok, line


def test_criterion_3_monte_carlo_agreement_grid():
    model = make_benchmark_model()
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)
    lams = [0.01, 0.1, 1.0, 10.0, 100.0]
    points = cost_tradeoff_curve(model, lams, BENCH_TIMEOUT, ss=filt, cs=ctrl)
    cfg = SimConfig(model=model, timeout=BENCH_TIMEOUT, horizon=2000,
                    runs=1000, seed=31415, burn_in=200)
    rates, costs = run_closed_loop(cfg, filt, ctrl, lams)
    worst_rate = worst_cost = 0.0
    for (ma, bd), run_rates, run_costs in zip(points, rates, costs):
        emp_rate, _ = aggregate_runs(run_rates)
        worst_rate = max(worst_rate, abs(emp_rate - ma.rate) / ma.rate)
        if ma.lam >= 0.1:
            emp_cost, _ = aggregate_runs(run_costs)
            worst_cost = max(worst_cost, abs(emp_cost - bd.total) / bd.total)
    ok = worst_rate <= 0.01 and worst_cost <= 0.02
    line = _report("3 (Monte Carlo agreement)", ok,
                   f"worst rate dev={worst_rate:.4%} (<=1%) "
                   f"worst cost dev={worst_cost:.4%} (<=2%, lam>=0.1)")
    assert ok, line


def test_criterion_4_tradeoff_window():
    model = make_benchmark_model()
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)

    def point(lam):
        ma = chains(filt, model.A, [lam], BENCH_TIMEOUT, ctrl.M_inf)[0]
        return ma.rate, infinite_horizon_cost(ctrl, filt, ma, model).total

    rate_1, cost_1 = point(1.0)
    rate_hi, cost_hi = point(1e6)
    reduction = 1.0 - rate_1 / rate_hi
    cost_excess = cost_1 / cost_hi - 1.0
    ok = 0.30 <= reduction <= 0.50 and abs(cost_excess) <= 0.10
    line = _report("4 (trade-off window)", ok,
                   f"rate reduction={reduction:.4f} (in [0.30, 0.50]) "
                   f"cost excess={cost_excess:.4%} (<=10%)")
    assert ok, line


def test_criterion_5_scalar_conditional_frequencies():
    model = make_golden_model()
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)
    cfg = SimConfig(model=model, timeout=2, horizon=10_200, runs=100,
                    seed=27182, burn_in=200)
    _, _, (traces,) = traced_grid(cfg, filt, ctrl, [0.5])

    hits = np.zeros(2)
    trials = np.zeros(2)
    for tr in traces:
        prev_tau = tr.tau[cfg.burn_in - 1:-1]
        sig = tr.sigma[cfg.burn_in:]
        for i in (0, 1):
            sel = prev_tau == i
            trials[i] += sel.sum()
            hits[i] += sig[sel].sum()

    details = []
    ok = True
    for i, expect in enumerate((GOLDEN_P00, GOLDEN_P10)):
        freq = hits[i] / trials[i]
        se = math.sqrt(expect * (1.0 - expect) / trials[i])
        dev = abs(freq - expect)
        ok = ok and dev <= 3.0 * se
        details.append(f"p_{i}0: |{freq:.6f}-{expect:.6f}|={dev:.2e} "
                       f"(3SE={3 * se:.2e}, n={int(trials[i])})")
    line = _report("5 (scalar trigger frequencies)", ok, "; ".join(details))
    assert ok, line


def test_criterion_6_conditional_error_covariances():
    model = make_benchmark_model()
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)
    _, (sigmas,) = sigma_table(filt, model.A, [1.0], BENCH_TIMEOUT)
    assert np.all(sigmas[0] == 0.0)

    # 5 batches x 200 runs x 10000 post-burn steps = 1e7 samples, bounded memory
    scatter = {i: np.zeros((2, 2)) for i in (1, 2, 3)}
    counts = {i: 0 for i in (1, 2, 3)}
    zero_violations = 0
    for batch in range(5):
        cfg = SimConfig(model=model, timeout=BENCH_TIMEOUT, horizon=10_200,
                        runs=200, seed=16180 + batch, burn_in=200)
        _, _, (traces,) = traced_grid(cfg, filt, ctrl, [1.0])
        for tr in traces:
            tau = tr.tau[cfg.burn_in:]
            e = tr.e_filt[cfg.burn_in:]
            zero_violations += int(np.any(e[tau == 0] != 0.0))
            for i in (1, 2, 3):
                sel = e[tau == i]
                scatter[i] += sel.T @ sel
                counts[i] += sel.shape[0]
        del traces

    worst = 0.0
    for i in (1, 2, 3):
        emp = scatter[i] / counts[i]
        worst = max(worst, float((np.abs(emp - sigmas[i])
                                  / np.abs(sigmas[i])).max()))
    ok = worst <= 0.03 and zero_violations == 0
    line = _report("6 (conditional error covariance)", ok,
                   f"worst entry dev={worst:.4%} (<=3%, ages 1-3, 1e7 samples) "
                   f"age-0 exact-zero violations={zero_violations}")
    assert ok, line


def test_criterion_7_schedule_control_independence(monkeypatch):
    # the open loop runs to the end, past the divergence guard
    monkeypatch.setattr("etlqg.simulation.DIVERGENCE_LIMIT", np.inf)
    model = make_benchmark_model()
    filt = kf_steady_state(model)
    ctrl = control_steady_state(model)
    open_loop = ControlSynthesis(L_inf=np.zeros((1, 2)), S_inf=np.eye(2),
                                 M_inf=np.eye(2), residual=0.0, iterations=0)
    cfg = SimConfig(model=model, timeout=BENCH_TIMEOUT, horizon=10_000,
                    runs=10, seed=2718, burn_in=0)
    _, _, (closed,) = traced_grid(cfg, filt, ctrl, [1.0])
    _, _, (opened,) = traced_grid(cfg, filt, open_loop, [1.0])
    mismatches = sum(
        (not np.array_equal(a.sigma, b.sigma)) or (not np.array_equal(a.tau, b.tau))
        for a, b in zip(closed, opened))
    ok = mismatches == 0
    line = _report("7 (schedule/control independence)", ok,
                   f"bitwise sigma/tau mismatches={mismatches} over "
                   f"{cfg.runs * cfg.horizon} steps (feedback vs open loop)")
    assert ok, line


def test_criterion_8_structural_identities():
    rng = np.random.default_rng(20240824)
    models = [random_valid_model(rng) for _ in range(50)]
    models.append(make_benchmark_model())

    worst_pi = worst_rate = worst_tele = worst_res = 0.0
    for m in models:
        assert validate_model(m).passed
        filt = kf_steady_state(m)
        ctrl = control_steady_state(m)
        worst_res = max(worst_res, filt.residual, ctrl.residual)

        T = int(rng.integers(1, 11))
        lam = float(10.0 ** rng.uniform(-2, 2))
        ma = chains(filt, m.A, [lam], T)[0]
        P = dense_transition_matrix(ma.p_i0)
        worst_pi = max(worst_pi, float(np.abs(ma.pi @ P - ma.pi).max()))
        worst_rate = max(worst_rate, abs(ma.rate - ma.pi[0]))
        survivors = np.cumprod(1.0 - ma.p_i0[:T])
        for n in range(1, T + 1):
            joint = nontrigger_probability(cumulative_cov(filt, m.A, n - 1), lam)
            worst_tele = max(worst_tele, abs(survivors[n - 1] - joint) / joint)

    ok = (worst_pi <= 1e-10 and worst_rate <= 1e-10
          and worst_tele <= 1e-10 and worst_res <= 1e-9)
    line = _report("8 (structural identities)", ok,
                   f"51 models: |piP-pi|={worst_pi:.1e} (<=1e-10) "
                   f"|rate-pi0|={worst_rate:.1e} (<=1e-10) "
                   f"telescoping={worst_tele:.1e} (<=1e-10 rel) "
                   f"ARE residuals={worst_res:.1e} (<=1e-9)")
    assert ok, line
