"""The finite horizon, kept as a named oracle: its exact expected cost and a
Monte Carlo simulation of the same loop.

The pipeline computes only the infinite horizon's rate and long-run cost.
These check it from another side (the Cesaro limit J_N / N -> J_inf,
TestFiniteHorizonCost) and check the one conditioning step off its fixed
point (TestConditionStepProperties).

The loop is the Kalman-gain one. The sensor filter starts from the prior
(x0_mean, X0) and uses the Kalman gains K_k of the covariance recursion from
X0; the controller applies the backward gains L_k of `riccati_backward`; the
counter starts at 0. Each simulated step follows the engine's order
(tests/closed_loop_oracle.py): the gap e_gap = A e_filt + eta, the trigger
`zeta > hold or tau == T`, then tau, then e_filt. All runs advance together
as the columns of (n, runs) arrays, drawn from one seeded generator.
"""

from __future__ import annotations

import numpy as np

from etlqg import ModelError
from etlqg.analysis import checked_lambdas, condition_step
from etlqg.control import _gain_step
from etlqg.estimation import filter_step
from etlqg.model import psd_sqrt, symmetrize


def riccati_backward(model, N: int):
    """Backward recursion over horizon N starting from the terminal weight.

    Returns (S_seq, L_seq, M_seq): S_0..S_N, each symmetrized, and
    L_0..L_{N-1} with their cost matrices M_0..M_{N-1}. N must be an integer
    >= 1, else ModelError names it.
    """
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 1:
        raise ModelError(f"N must be an integer >= 1, got {N!r}")
    S_rev = [symmetrize(model.Qf)]
    L_rev, M_rev = [], []
    for _ in range(N):
        L, S, M = _gain_step(S_rev[-1], model)
        L_rev.append(L)
        S_rev.append(S)
        M_rev.append(M)
    return tuple(tuple(reversed(seq)) for seq in (S_rev, L_rev, M_rev))


def chain_step(dist: np.ndarray, p_i0: np.ndarray) -> np.ndarray:
    """dist P for the counter chain, in O(T): (dist P)[0] = dist . p_i0 and
    (dist P)[i+1] = dist[i] (1 - p_i0[i])."""
    return np.concatenate(([dist @ p_i0], dist[:-1] * (1.0 - p_i0[:-1])))


def finite_horizon_cost(model, lam: float, timeout: int, N: int) -> float:
    """Exact expected cost over horizon N, from any X0, at one lambda.

    The cost is xbar0' S_0 xbar0 + tr(S_0 X0) plus, per step k,
    tr(S_{k+1} W), the filter term tr(P_{k|k} M_k) and the trigger term
    sum_a dist_k[a] tr(M_k sigma_ka). `filter_step` walks from X0 and gives
    sym(P_{k|k}) and the correction covariance Pi_eta_k, which feeds one
    `condition_step` per step with the ages as its batch axis, until both
    repeat bit for bit; its send probabilities push the counter distribution
    through `chain_step`. lambda and timeout are checked as the pass checks
    them. The steady-gain loop started from X0 != P_inf is not covered: its
    filter corrections are not white.
    """
    lam, = checked_lambdas([lam], timeout)
    S_seq, _, M_seq = riccati_backward(model, N)
    xbar = model.x0_mean
    total = float(xbar @ S_seq[0] @ xbar) + float(np.trace(S_seq[0] @ model.X0))
    p = np.ones(timeout + 1)
    sigmas = np.zeros((timeout + 1,) + model.A.shape)  # held error by counter
    dist = np.zeros(timeout + 1)
    dist[0] = 1.0
    P_pred, settled = model.X0, False
    for k in range(N):
        if not settled:
            F, P_next, _, Pi_eta = filter_step(P_pred, model)
            step = condition_step(sigmas[:-1], model.A, Pi_eta,
                                  [lam] * timeout, k)
            settled = all(map(np.array_equal, (P_next, *step),
                              (P_pred, p[:-1], sigmas[1:])))
            p[:-1], sigmas[1:] = step
            P_pred = P_next
        dist = chain_step(dist, p)
        M = M_seq[k]
        total += float(np.trace(S_seq[k + 1] @ model.W))
        total += float(np.trace(F @ M))
        total += float(np.einsum("i,ijk,kj->", dist, sigmas, M))
    return total


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
