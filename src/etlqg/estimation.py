"""Sensor-side Kalman filtering and its steady-state quantities.

The per-step predict/update recursions operate on FilterState values; the
steady-state solver iterates the predicted-covariance recursion to the fixed
point used by every analytic formula downstream (P_inf, K_inf, F_inf, Pi_eta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericalError
from .model import SystemModel, symmetrize

ARE_TOL = 1e-12
ARE_MAX_ITER = 10**6
# Converging filter and control iterations set a new minimum step at least
# every 12 iterations on the bundled model and 37 random models; a stalled
# one went up to 58776 iterations between minima, its residual hovering
# near 1e-4, and took about 45 s to reach ARE_MAX_ITER.
ARE_STALL_WINDOW = 1000
INNOVATION_COND_LIMIT = 1e12


@dataclass(frozen=True)
class FilterState:
    """One time slice of the filter: predicted and updated mean/covariance."""

    x_pred: np.ndarray
    x_filt: np.ndarray
    P_pred: np.ndarray
    P_filt: np.ndarray
    gain: np.ndarray


@dataclass(frozen=True)
class SteadyStateFilter:
    """Fixed point of the filtering recursion.

    P_inf:  steady predicted error covariance.
    K_inf:  steady Kalman gain.
    F_inf:  steady updated covariance (I - K C) P_inf.
    Pi_eta: covariance of the per-step filter correction K(C xtilde + v).
    residual: infinity-norm Riccati equation residual at P_inf.
    """

    P_inf: np.ndarray
    K_inf: np.ndarray
    F_inf: np.ndarray
    Pi_eta: np.ndarray
    iterations: int
    residual: float


def initial_filter_state(model: SystemModel) -> FilterState:
    """Prior at k=0: prediction is the initial-state distribution."""
    n, _, p = model.dims
    return FilterState(
        x_pred=model.x0_mean.copy(),
        x_filt=model.x0_mean.copy(),
        P_pred=model.X0.copy(),
        P_filt=model.X0.copy(),
        gain=np.zeros((n, p)),
    )


def kf_predict(state: FilterState, model: SystemModel,
               u_prev: np.ndarray | None = None) -> FilterState:
    """Time update: propagate the filtered estimate through the dynamics."""
    x = model.A @ state.x_filt
    if u_prev is not None:
        x = x + model.B @ np.asarray(u_prev, dtype=float).reshape(-1)
    P = symmetrize(model.A @ state.P_filt @ model.A.T + model.W)
    return FilterState(x_pred=x, x_filt=state.x_filt,
                       P_pred=P, P_filt=state.P_filt, gain=state.gain)


def kalman_gain(P_pred: np.ndarray, model: SystemModel) -> np.ndarray:
    """K = P C^T S^{-1}, S = C P C^T + V, through an LU solve of S K^T = C P.

    Raises NumericalError when S is not safely positive definite.
    """
    S = symmetrize(model.C @ P_pred @ model.C.T + model.V)
    ev = np.linalg.eigvalsh(S)
    if ev[0] <= 0 or ev[-1] / ev[0] > INNOVATION_COND_LIMIT:
        raise NumericalError(
            f"innovation covariance ill-conditioned (cond ~ {ev[-1] / max(ev[0], 1e-300):.3e})"
        )
    return np.linalg.solve(S, model.C @ P_pred).T


def fixed_point(step, start: np.ndarray, label: str, tol: float = ARE_TOL,
                max_iterations: int = ARE_MAX_ITER):
    """Iterate X <- step(X) from start until |X_next - X|_inf < tol.

    Returns (X, iterations). Raises ConvergenceError(label, ...) at the cap,
    or once ARE_STALL_WINDOW iterations in a row bring no new minimum of
    |X_next - X|_inf: a stalled iteration hovers above tol and would
    otherwise run to the cap.
    """
    X = start
    delta = best = np.inf
    it = best_it = 0
    for it in range(1, max_iterations + 1):
        X_next = step(X)
        delta = float(np.max(np.abs(X_next - X)))
        X = X_next
        if delta < tol:
            return X, it
        if delta < best:
            best, best_it = delta, it
        elif it - best_it >= ARE_STALL_WINDOW:
            break
    raise ConvergenceError(label, delta, it)


def kf_update(state: FilterState, model: SystemModel, y: np.ndarray) -> FilterState:
    """Measurement update: blend prediction and observation."""
    y = np.asarray(y, dtype=float).reshape(-1)
    gain = kalman_gain(state.P_pred, model)
    innovation = y - model.C @ state.x_pred
    x = state.x_pred + gain @ innovation
    n = model.A.shape[0]
    P = symmetrize((np.eye(n) - gain @ model.C) @ state.P_pred)
    return FilterState(x_pred=state.x_pred, x_filt=x,
                       P_pred=state.P_pred, P_filt=P, gain=gain)


def kf_steady_state(model: SystemModel, tol: float = ARE_TOL,
                    max_iterations: int = ARE_MAX_ITER) -> SteadyStateFilter:
    """Iterate the predicted-covariance recursion from X0 to its fixed point.

    Convergence is |P_next - P|_inf < tol. Returns the steady gain, the
    updated covariance F_inf and the correction covariance Pi_eta along with
    iteration diagnostics. Raises ConvergenceError when the cap is hit.
    """
    eye = np.eye(model.A.shape[0])

    def step(P):
        K = kalman_gain(P, model)
        return symmetrize(model.A @ ((eye - K @ model.C) @ P) @ model.A.T + model.W)

    P, it = fixed_point(step, model.X0.copy(), "steady-state filter iteration",
                        tol, max_iterations)
    K = kalman_gain(P, model)
    F = symmetrize((eye - K @ model.C) @ P)
    Pi = symmetrize(K @ model.C @ P)
    # Riccati residual at the fixed point, for the convergence contract
    residual = float(np.max(np.abs(symmetrize(model.A @ F @ model.A.T + model.W) - P)))
    return SteadyStateFilter(P_inf=P, K_inf=K, F_inf=F, Pi_eta=Pi,
                             iterations=it, residual=residual)


def eta_covariance(ss: SteadyStateFilter, model: SystemModel) -> np.ndarray:
    """Covariance of the steady-state filter correction.

    Computed as K C P and cross-checked against the equivalent quadratic
    form K (C P C^T + V) K^T; disagreement means the fixed point is bad.
    """
    direct = symmetrize(ss.K_inf @ model.C @ ss.P_inf)
    S = model.C @ ss.P_inf @ model.C.T + model.V
    quad = symmetrize(ss.K_inf @ S @ ss.K_inf.T)
    gap = float(np.max(np.abs(direct - quad)))
    if gap > 1e-9:
        raise NumericalError(
            f"filter-correction covariance identity violated: |KCP - KSK^T| = {gap:.3e}"
        )
    return direct
