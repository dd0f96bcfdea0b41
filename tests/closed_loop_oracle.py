"""The closed-loop step loop as it stood before the estimator left the lambda
axis: a named oracle for `etlqg.simulation.run_closed_loop`.

This is the engine's old body, kept verbatim apart from its name, the
imports below, its trace record (OracleTrace, which the engine no longer
has, kept when its own `record` argument is set), the timeout
(`cfg.timeout`), its covariance factors (psd_sqrt, as the engine's), its
bool sigma record, its last draw chunk, drawn whole past the horizon as the
engine's is, the chunk size and the divergence guard, which it reads from
the engine module at call time so that a monkeypatched `_CHUNK_STEPS` or
`DIVERGENCE_LIMIT` reaches both, and its stage-cost line, which calls the
engine's `simulation._quad` (in step order, so the cost keeps the bits of a
per-step einsum). It carries every state as (group, runs, n), records traces
run-major and forms y, xhat_s and xhat_c inside the loop. The engine must
reproduce its rates, costs and the five trace fields it records (sigma,
tau, x, u, e_filt) bit for bit; see tests/test_simulation.py::TestOracle.
The other three fields, which the engine does not record, are what
tests/test_simulation.py::TestTraceInvariants checks against the filter and
controller recursions.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from etlqg import (ControlSynthesis, DivergenceError, ModelError, SimConfig,
                   SteadyStateFilter, simulation)
from etlqg.model import psd_sqrt, scheduler_lambdas
from etlqg.simulation import _spawn_run_streams

# The trace fields the engine records as well
SHARED_FIELDS = ("sigma", "tau", "x", "u", "e_filt")


@dataclass(frozen=True)
class OracleTrace:
    """Per-step records for one run; arrays indexed by step k."""

    x: np.ndarray        # (horizon, n) true state x_k
    y: np.ndarray        # (horizon, p) measurement y_k
    xhat_s: np.ndarray   # (horizon, n) sensor filtered estimate
    xhat_c: np.ndarray   # (horizon, n) controller estimate
    u: np.ndarray        # (horizon, m) applied input
    sigma: np.ndarray    # (horizon,) transmission indicator
    tau: np.ndarray      # (horizon,) steps since last transmission
    e_filt: np.ndarray   # (horizon, n) post-decision estimate gap


def reference_closed_loop_grid(cfg: SimConfig, filt: SteadyStateFilter,
                               ctrl: ControlSynthesis, lams,
                               runs: range | None = None,
                               record: bool = False):
    """Simulate closed loops at each lambda of lams, in lockstep.

    Every other setting comes from cfg. runs, a range inside
    range(cfg.runs) (all of it by default), selects the run indices; column
    j is run runs[j]. Each run's random streams are shared by all lambdas
    (common random numbers), so row g equals run_closed_loop at lams[g]
    bitwise. Returns (rates, costs, traces): (len(lams), len(runs)) arrays
    and, with record, one tuple of OracleTrace per lambda (else None).
    A DivergenceError names the run by its index in range(cfg.runs).
    """
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
    timeout = cfg.timeout
    lams = scheduler_lambdas(lams, timeout)
    lam = np.array(lams)[:, None]
    group, runs, horizon = len(lams), len(run_ids), cfg.horizon

    w_factor = psd_sqrt(model.W)
    v_factor = psd_sqrt(model.V)
    x0_factor = psd_sqrt(model.X0)
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

    if record:
        tr_x = np.empty((group, runs, horizon, n))
        tr_y = np.empty((group, runs, horizon, p))
        tr_xs = np.empty((group, runs, horizon, n))
        tr_xc = np.empty((group, runs, horizon, n))
        tr_u = np.empty((group, runs, horizon, m))
        tr_sig = np.empty((group, runs, horizon), dtype=bool)
        tr_tau = np.empty((group, runs, horizon), dtype=np.int64)
        tr_e = np.empty((group, runs, horizon, n))

    guard = simulation.DIVERGENCE_LIMIT
    errctx = (np.errstate(over="ignore", invalid="ignore")
              if guard == np.inf else contextlib.nullcontext())

    with errctx:
        k = 0
        while k < horizon:
            span = simulation._CHUNK_STEPS
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
            for j in range(min(span, horizon - k)):
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
                if record:
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
                if guard != np.inf:
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
    if record:
        traces = tuple(
            tuple(OracleTrace(x=tr_x[g, r], y=tr_y[g, r], xhat_s=tr_xs[g, r],
                              xhat_c=tr_xc[g, r], u=tr_u[g, r],
                              sigma=tr_sig[g, r], tau=tr_tau[g, r],
                              e_filt=tr_e[g, r])
                  for r in range(runs))
            for g in range(group))
    return rates, costs, traces
