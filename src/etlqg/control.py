"""Certainty-equivalent controller synthesis and analytic cost evaluation.

The finite-horizon backward Riccati recursion and its fixed point supply the
feedback gains; the cost formulas combine them with the filter and the
conditioning step of `analysis` into exact expected costs: the long-run
average from the steady state, and a finite horizon's total from any X0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (MarkovAnalysis, chain_step, checked_lambdas,
                       condition_step, conditional_error_cov, transition_matrix)
from .errors import ModelError
from .estimation import (SteadyStateFilter, filter_step, fixed_point,
                         kf_steady_state)
from .model import SystemModel, scheduler_lambdas, symmetrize


@dataclass(frozen=True)
class ControlSynthesis:
    """Fixed point of the backward recursion: S_inf, the steady gain L_inf
    and its cost matrix M_inf, with the solver's residual and iterations."""

    S_inf: np.ndarray
    L_inf: np.ndarray
    M_inf: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class CostBreakdown:
    """Infinite-horizon average cost split into its three sources.

    base: disturbance term Tr(S_inf W). filter_term: estimation term
    Tr(F_inf M_inf). trigger_term: communication penalty weighted by the
    stationary counter distribution. total: their sum.
    """

    base: float
    filter_term: float
    trigger_term: float
    total: float


def _gain_step(S_next: np.ndarray, model: SystemModel):
    """Gain L, S and the cost matrix M = sym(L'(B'S_next B + R)L) of a step."""
    G = model.B.T @ S_next @ model.B + model.R
    L = np.linalg.solve(G, model.B.T @ S_next @ model.A)
    S = symmetrize(model.A.T @ S_next @ model.A + model.Q
                   - model.A.T @ S_next @ model.B @ L)
    return L, S, symmetrize(L.T @ G @ L)


def riccati_backward(model: SystemModel, N: int):
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


def control_steady_state(model: SystemModel) -> ControlSynthesis:
    """Fixed point of the backward recursion, iterated from S = Q."""
    S, it = fixed_point(lambda S: _gain_step(S, model)[1], model.Q.copy(),
                        "steady-state control iteration")
    L, S_check, M = _gain_step(S, model)
    residual = float(np.max(np.abs(S_check - S)))
    return ControlSynthesis(S_inf=S, L_inf=L, M_inf=M,
                            residual=residual, iterations=it)


def infinite_horizon_cost(cs: ControlSynthesis, ss: SteadyStateFilter,
                          ma: MarkovAnalysis, model: SystemModel) -> CostBreakdown:
    """Closed-form long-run average cost; ma's pass was given cs.M_inf."""
    base = float(np.trace(cs.S_inf @ model.W))
    filter_term = float(np.trace(ss.F_inf @ cs.M_inf))
    # pi[i] multiplies Tr(M sigma(i)), which is 0 at i = 0
    trigger_term = float(ma.pi @ ma.trigger_by_age)
    return CostBreakdown(base=base, filter_term=filter_term,
                         trigger_term=trigger_term,
                         total=base + filter_term + trigger_term)


def finite_horizon_cost(model: SystemModel, lam: float, timeout: int,
                        N: int) -> float:
    """Exact expected cost over horizon N, from any X0, at one lambda.

    The loop modeled is the Kalman-gain one: gains K_k from X0, backward
    gains L_k from `riccati_backward`, counter 0 at step 0. The cost is
    xbar0' S_0 xbar0 + tr(S_0 X0) plus, per step k, tr(S_{k+1} W), the filter
    term tr(P_{k|k} M_k) and the trigger term sum_a dist_k[a] tr(M_k sigma_ka).
    `filter_step` walks from X0 and gives sym(P_{k|k}) and the correction
    covariance Pi_eta_k, which feeds `condition_step` per step, batched over
    the ages, until both repeat bit for bit; its send probabilities push
    the counter distribution through `chain_step`. The
    steady-gain loop started from X0 != P_inf is not covered: its filter
    corrections are not white.
    """
    lams = checked_lambdas([lam], timeout)
    S_seq, _, M_seq = riccati_backward(model, N)
    xbar = model.x0_mean
    total = float(xbar @ S_seq[0] @ xbar) + float(np.trace(S_seq[0] @ model.X0))
    p = np.ones((1, timeout + 1))
    sigmas = np.zeros((1, timeout + 1) + model.A.shape)  # held error by counter
    dist = np.zeros(timeout + 1)
    dist[0] = 1.0
    P_pred, settled = model.X0, False
    for k in range(N):
        if not settled:
            F, P_next, _, Pi_eta = filter_step(P_pred, model)
            step = condition_step(sigmas[:, :-1], model.A, Pi_eta, lams, k)
            settled = all(map(np.array_equal, (P_next, *step),
                              (P_pred, p[:, :-1], sigmas[:, 1:])))
            p[:, :-1], sigmas[:, 1:] = step
            P_pred = P_next
        dist = chain_step(dist, p[0])
        M = M_seq[k]
        total += float(np.trace(S_seq[k + 1] @ model.W))
        total += float(np.trace(F @ M))
        total += float(np.einsum("i,ijk,kj->", dist, sigmas[0], M))
    return total


def cost_tradeoff_curve(model: SystemModel, lambdas, timeout: int,
                        ss: SteadyStateFilter | None = None,
                        cs: ControlSynthesis | None = None) -> list[tuple]:
    """Full analytic pipeline over a lambda grid, sorted ascending.

    The filter and control fixed points and the conditioning pass are shared
    across the grid; each lambda gets its own chain analysis and cost, the
    pair (MarkovAnalysis, CostBreakdown).
    """
    lams = sorted(scheduler_lambdas(lambdas, timeout))
    if ss is None:
        ss = kf_steady_state(model)
    if cs is None:
        cs = control_steady_state(model)
    points = []
    for row in zip(lams, *conditional_error_cov(ss, model.A, lams, timeout,
                                                cs.M_inf)):
        ma = transition_matrix(*row)
        points.append((ma, infinite_horizon_cost(cs, ss, ma, model)))
    return points
