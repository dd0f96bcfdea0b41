"""Certainty-equivalent controller synthesis and analytic cost evaluation.

The finite-horizon backward Riccati recursion and its fixed point supply the
feedback gains; the cost formulas combine them with the steady-state filter
and the transmission-chain analysis into exact expected costs for finite and
infinite horizons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (MarkovAnalysis, chain_step, conditional_error_cov,
                       transition_matrix)
from .errors import ModelError
from .estimation import (SteadyStateFilter, filter_step, fixed_point,
                         kf_steady_state)
from .model import SystemModel, scheduler_lambdas, symmetrize


@dataclass(frozen=True)
class ControlSynthesis:
    """Feedback gains from the backward recursion and/or its fixed point.

    Finite-horizon use fills S_seq (S_0..S_N), L_seq and M_seq (0..N-1);
    steady-state use fills S_inf, L_inf, M_inf plus solver diagnostics.
    """

    S_seq: tuple[np.ndarray, ...] | None = None
    L_seq: tuple[np.ndarray, ...] | None = None
    M_seq: tuple[np.ndarray, ...] | None = None
    S_inf: np.ndarray | None = None
    L_inf: np.ndarray | None = None
    M_inf: np.ndarray | None = None
    residual: float | None = None
    iterations: int | None = None


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


@dataclass(frozen=True)
class TradeoffPoint:
    lam: float
    rate: float
    cost: float
    breakdown: CostBreakdown
    markov: MarkovAnalysis


def _gain_step(S_next: np.ndarray, model: SystemModel):
    """Gain L, S and the cost matrix M = sym(L'(B'S_next B + R)L) of a step."""
    G = model.B.T @ S_next @ model.B + model.R
    L = np.linalg.solve(G, model.B.T @ S_next @ model.A)
    S = symmetrize(model.A.T @ S_next @ model.A + model.Q
                   - model.A.T @ S_next @ model.B @ L)
    return L, S, symmetrize(L.T @ G @ L)


def riccati_backward(model: SystemModel, N: int) -> ControlSynthesis:
    """Backward recursion over horizon N starting from the terminal weight.

    Returns S_0..S_N, L_0..L_{N-1} and M_0..M_{N-1}, each S symmetrized.
    """
    if N < 1:
        raise ValueError(f"horizon must be >= 1, got {N}")
    S_rev = [symmetrize(model.Qf)]
    L_rev, M_rev = [], []
    for _ in range(N):
        L, S, M = _gain_step(S_rev[-1], model)
        L_rev.append(L)
        S_rev.append(S)
        M_rev.append(M)
    return ControlSynthesis(S_seq=tuple(reversed(S_rev)),
                            L_seq=tuple(reversed(L_rev)),
                            M_seq=tuple(reversed(M_rev)))


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
    """Closed-form long-run average cost under the event-triggered loop."""
    if cs.S_inf is None or cs.M_inf is None:
        raise ModelError("infinite_horizon_cost needs a steady-state synthesis")
    base = float(np.trace(cs.S_inf @ model.W))
    filter_term = float(np.trace(ss.F_inf @ cs.M_inf))
    # pi[i] multiplies Tr(M sigma(i)); index 0 carries a zero matrix
    trigger_term = float(np.einsum("i,ijk,kj->", ma.pi, ma.sigmas, cs.M_inf))
    return CostBreakdown(base=base, filter_term=filter_term,
                         trigger_term=trigger_term,
                         total=base + filter_term + trigger_term)


def finite_horizon_cost(cs: ControlSynthesis, ss: SteadyStateFilter,
                        ma: MarkovAnalysis, model: SystemModel, N: int,
                        use_steady_filter_cov: bool = True) -> float:
    """Exact expected cost over horizon N.

    Sums the terminal/initial terms and, per step, the disturbance term, the
    filtering term and the trigger penalty weighted by the transient counter
    distribution: counter 0 pushed through each step's trigger, the step-0
    one first, by `chain_step` in O(T). With use_steady_filter_cov the
    filtering term uses the steady updated covariance; otherwise the
    transient filter covariances are recomputed from the initial covariance.
    """
    if cs.S_seq is None or cs.M_seq is None:
        raise ModelError("finite_horizon_cost needs the finite-horizon recursion")
    if len(cs.S_seq) != N + 1:
        raise ModelError(
            f"S_seq covers horizon {len(cs.S_seq) - 1}, requested N={N}")

    xbar = model.x0_mean
    total = float(xbar @ cs.S_seq[0] @ xbar) + float(np.trace(cs.S_seq[0] @ model.X0))

    if not use_steady_filter_cov:
        filt_covs = _transient_filter_covs(model, N)

    dist = np.zeros(len(ma.p_i0))
    dist[0] = 1.0
    for k in range(N):
        dist = chain_step(dist, ma.p_i0)
        M = cs.M_seq[k]
        P_filt = ss.F_inf if use_steady_filter_cov else filt_covs[k]
        total += float(np.trace(cs.S_seq[k + 1] @ model.W))
        total += float(np.trace(P_filt @ M))
        total += float(np.einsum("i,ijk,kj->", dist, ma.sigmas, M))
    return total


def _transient_filter_covs(model: SystemModel, N: int) -> list[np.ndarray]:
    """Updated filter covariances P_{k|k} for k = 0..N-1 from X0."""
    P_pred = model.X0.copy()
    out = []
    for _ in range(N):
        P_filt, P_pred = filter_step(P_pred, model)
        out.append(symmetrize(P_filt))
    return out


def cost_tradeoff_curve(model: SystemModel, lambdas, timeout: int,
                        ss: SteadyStateFilter | None = None,
                        cs: ControlSynthesis | None = None) -> list[TradeoffPoint]:
    """Full analytic pipeline over a lambda grid, sorted ascending.

    The filter and control fixed points and the conditioning pass are shared
    across the grid; each lambda gets its own chain analysis and cost.
    """
    lams = sorted(scheduler_lambdas(lambdas, timeout))
    if ss is None:
        ss = kf_steady_state(model)
    if cs is None:
        cs = control_steady_state(model)
    points = []
    for row in zip(lams, *conditional_error_cov(ss, model.A, lams, timeout)):
        ma = transition_matrix(*row)
        breakdown = infinite_horizon_cost(cs, ss, ma, model)
        points.append(TradeoffPoint(lam=ma.lam, rate=ma.rate, cost=breakdown.total,
                                    breakdown=breakdown, markov=ma))
    return points
