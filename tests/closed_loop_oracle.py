"""The closed-loop step loop as it stood before the estimator left the lambda
axis: a named oracle for `etlqg.simulation.run_closed_loop_grid`.

This is the engine's old body, kept verbatim apart from its name, the
imports below and the chunk size, which it reads from the engine module so
that a monkeypatched `_CHUNK_STEPS` reaches both. It carries every state as
(group, runs, n), records traces run-major and forms y, xhat_s and xhat_c
inside the loop. The engine must
reproduce its rates, costs and every trace field bit for bit; see
tests/test_simulation.py::TestOracle.
"""

from __future__ import annotations

import contextlib

import numpy as np

from etlqg import (ControlSynthesis, DivergenceError, ModelError,
                   SchedulerParams, SimConfig, SimulationTrace,
                   SteadyStateFilter, simulation)
from etlqg.simulation import _cov_factor, _spawn_run_streams


def reference_closed_loop_grid(cfg: SimConfig, filt: SteadyStateFilter,
                               ctrl: ControlSynthesis, lams,
                               runs: range | None = None):
    """Simulate closed loops at each lambda of lams, in lockstep.

    lams replaces cfg.params.lam; every other setting comes from cfg. runs,
    a range inside range(cfg.runs) (all of it by default), selects the run
    indices; column j is run runs[j], bitwise as in the full call for
    slices of at least 2 runs and 3 lambda-runs (see the module notes). Each
    run's random streams are shared by all lambdas (common random numbers),
    so row g equals run_closed_loop at lams[g] bitwise. Returns (rates,
    costs, traces): (len(lams), len(runs)) arrays and, with
    cfg.record_trace, one tuple of SimulationTrace per lambda (else None).
    A DivergenceError names the run by its index in range(cfg.runs).
    """
    if ctrl.L_inf is None:
        raise ModelError("run_closed_loop needs a steady-state feedback gain")
    run_ids = range(cfg.runs) if runs is None else runs
    if (not isinstance(run_ids, range) or run_ids.step != 1 or not run_ids
            or run_ids.start < 0 or run_ids.stop > cfg.runs):
        raise ModelError(
            f"runs must be a nonempty step-1 range inside range({cfg.runs}), "
            f"got {runs!r}")
    model = cfg.model
    n, m, p = model.dims
    A, B, C = model.A, model.B, model.C
    Q, R = model.Q, model.R
    K = filt.K_inf
    L = ctrl.L_inf
    timeout = cfg.params.timeout
    lams = [SchedulerParams(lam, timeout).lam for lam in lams]
    lam = np.array(lams)[:, None]
    group, runs, horizon = len(lams), len(run_ids), cfg.horizon

    w_factor = _cov_factor(model.W)
    v_factor = _cov_factor(model.V)
    x0_factor = _cov_factor(model.X0)
    streams = _spawn_run_streams(cfg.seed, run_ids)

    x0 = np.empty((runs, n))
    for r, (_, _, init_gen, _) in enumerate(streams):
        x0[r] = model.x0_mean + x0_factor @ init_gen.standard_normal(n)
    x = np.repeat(x0[None], group, axis=0)
    xt_pred = x - model.x0_mean          # sensor prediction error, prior mean
    e_filt = np.zeros((group, runs, n))  # estimate gap after step -1
    tau = np.zeros((group, runs), dtype=np.int64)

    sigma_count = np.zeros((group, runs), dtype=np.int64)
    cost_sum = np.zeros((group, runs))

    if cfg.record_trace:
        tr_x = np.empty((group, runs, horizon, n))
        tr_y = np.empty((group, runs, horizon, p))
        tr_xs = np.empty((group, runs, horizon, n))
        tr_xc = np.empty((group, runs, horizon, n))
        tr_u = np.empty((group, runs, horizon, m))
        tr_sig = np.empty((group, runs, horizon), dtype=np.int64)
        tr_tau = np.empty((group, runs, horizon), dtype=np.int64)
        tr_e = np.empty((group, runs, horizon, n))

    guard = cfg.divergence_limit
    errctx = (np.errstate(over="ignore", invalid="ignore")
              if guard is None else contextlib.nullcontext())

    with errctx:
        k = 0
        while k < horizon:
            span = min(simulation._CHUNK_STEPS, horizon - k)
            w_z = np.empty((runs, span, n))
            v_z = np.empty((runs, span, p))
            zeta = np.empty((runs, span))
            for r, (w_gen, v_gen, _, trig_gen) in enumerate(streams):
                w_z[r] = w_gen.standard_normal((span, n))
                v_z[r] = v_gen.standard_normal((span, p))
                zeta[r] = trig_gen.random(span)
            w_block = w_z @ w_factor.T
            v_block = v_z @ v_factor.T

            # (runs, .) draws broadcast over the (group, runs, .) state
            for j in range(span):
                v = v_block[:, j]
                w = w_block[:, j]
                eta = (xt_pred @ C.T + v) @ K.T
                e_gap = e_filt @ A.T + eta
                xt_filt = xt_pred - eta
                hold = np.exp(-lam * np.einsum("...i,...i->...", e_gap, e_gap))
                sigma = (zeta[:, j] > hold) | (tau == timeout)
                tau = np.where(sigma, 0, tau + 1)
                e_filt = np.where(sigma[..., None], 0.0, e_gap)
                xhat_c = x - xt_filt - e_filt
                u = -(xhat_c @ L.T)
                if k >= cfg.burn_in:
                    sigma_count += sigma
                    cost_sum += simulation._quad(x, Q) + simulation._quad(u, R)
                if cfg.record_trace:
                    tr_x[:, :, k] = x
                    tr_y[:, :, k] = x @ C.T + v
                    tr_xs[:, :, k] = x - xt_filt
                    tr_xc[:, :, k] = xhat_c
                    tr_u[:, :, k] = u
                    tr_sig[:, :, k] = sigma
                    tr_tau[:, :, k] = tau
                    tr_e[:, :, k] = e_filt
                x = x @ A.T + u @ B.T + w
                xt_pred = xt_filt @ A.T + w
                if guard is not None:
                    peak = np.abs(x)
                    worst = float(peak.max())
                    if worst > guard:
                        g, r, _ = np.unravel_index(peak.argmax(), peak.shape)
                        raise DivergenceError(step=k + 1, run=run_ids[r],
                                              value=worst, lam=lams[g])
                k += 1

    window = horizon - cfg.burn_in
    rates = sigma_count / window
    costs = cost_sum / window
    traces = None
    if cfg.record_trace:
        traces = tuple(
            tuple(SimulationTrace(x=tr_x[g, r], y=tr_y[g, r], xhat_s=tr_xs[g, r],
                                  xhat_c=tr_xc[g, r], u=tr_u[g, r],
                                  sigma=tr_sig[g, r], tau=tr_tau[g, r],
                                  e_filt=tr_e[g, r])
                  for r in range(runs))
            for g in range(group))
    return rates, costs, traces
