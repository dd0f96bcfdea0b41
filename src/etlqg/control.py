"""Certainty-equivalent controller synthesis and analytic cost evaluation.

The fixed point of the backward Riccati recursion supplies the steady
feedback gain; the cost formula combines it with the steady-state filter and
the conditioning pass of `analysis` into the exact long-run average cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import MarkovAnalysis, conditional_error_cov, transition_matrix
from .estimation import SteadyStateFilter, fixed_point, kf_steady_state
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
