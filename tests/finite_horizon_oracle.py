"""The finite-horizon Kalman-gain loop, simulated: a named oracle for
`etlqg.control.finite_horizon_cost`.

The loop is the one that function models. The sensor filter starts from
the prior (x0_mean, X0) and uses the Kalman gains K_k of the covariance
recursion from X0; the controller applies the backward gains L_k of
`riccati_backward`; the counter starts at 0. Each step follows the engine's
order (tests/closed_loop_oracle.py): the gap e_gap = A e_filt + eta, the
trigger `zeta > hold or tau == T`, then tau, then e_filt. All runs advance
together as the columns of (n, runs) arrays, drawn from one seeded
generator.
"""

from __future__ import annotations

import numpy as np

from etlqg import riccati_backward
from etlqg.estimation import filter_step
from etlqg.model import psd_sqrt


def simulated_finite_horizon_cost(model, lam: float, timeout: int, N: int,
                                  runs: int, seed: int):
    """Mean and standard error over runs of the N-step cost
    sum_k (x_k' Q x_k + u_k' R u_k) + x_N' Qf x_N."""
    _, L_seq, _ = riccati_backward(model, N)
    n, _, p = model.dims
    A, B, C = model.A, model.B, model.C
    rng = np.random.default_rng(seed)
    w_factor, v_factor = psd_sqrt(model.W), psd_sqrt(model.V)

    # states are columns: (n, runs)
    x = model.x0_mean[:, None] + psd_sqrt(model.X0) @ rng.standard_normal((n, runs))
    xt_pred = x - model.x0_mean[:, None]  # sensor prediction error
    e_filt = np.zeros((n, runs))          # estimate gap after step -1
    tau = np.zeros(runs, dtype=np.int64)
    cost = np.zeros(runs)
    P_pred = model.X0
    for k in range(N):
        _, P_pred, K, _ = filter_step(P_pred, model)
        v = v_factor @ rng.standard_normal((p, runs))
        w = w_factor @ rng.standard_normal((n, runs))
        zeta = rng.random(runs)
        eta = K @ (C @ xt_pred + v)
        e_gap = A @ e_filt + eta
        xt_filt = xt_pred - eta
        hold = np.exp(-lam * (e_gap * e_gap).sum(axis=0))
        sigma = (zeta > hold) | (tau == timeout)
        tau = np.where(sigma, 0, tau + 1)
        e_filt = np.where(sigma, 0.0, e_gap)
        u = -(L_seq[k] @ (x - xt_filt - e_filt))
        cost += (x * (model.Q @ x)).sum(axis=0) + (u * (model.R @ u)).sum(axis=0)
        x = A @ x + B @ u + w
        xt_pred = A @ xt_filt + w
    cost += (x * (model.Qf @ x)).sum(axis=0)
    return float(cost.mean()), float(cost.std(ddof=1) / np.sqrt(runs))
