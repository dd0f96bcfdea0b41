"""Sensor-side Kalman filtering and its steady-state quantities.

One covariance step, filter_step, defines the filter recursion; the
steady-state solver iterates it from X0 to the fixed point used by every
analytic formula downstream (P_inf, K_inf, F_inf, Pi_eta).
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
# Rounding noise, a few eps |X|_inf, can keep a step above ARE_TOL once |X|
# is in the thousands: a step below ARE_REL_TOL |X|_inf is at the float floor.
ARE_REL_TOL = 1e-14
INNOVATION_COND_LIMIT = 1e12


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


def fixed_point(step, start: np.ndarray, label: str):
    """Iterate X <- step(X) from start to its first step at the float floor,
    |X_next - X|_inf < max(ARE_TOL, ARE_REL_TOL |X_next|_inf); returns
    (X_next, iterations).

    A stall, ARE_STALL_WINDOW iterations in a row with no new least step,
    or the cap ARE_MAX_ITER raises ConvergenceError(label, ...).
    """
    X, best, best_it = start, np.inf, 0
    for it in range(1, ARE_MAX_ITER + 1):
        X_next = step(X)
        delta = float(np.max(np.abs(X_next - X)))
        X = X_next
        scale = np.max(np.abs(X))
        if delta < max(ARE_TOL, ARE_REL_TOL * scale):
            return X, it
        if delta < best:
            best, best_it = delta, it
        elif it - best_it >= ARE_STALL_WINDOW:
            break
    raise ConvergenceError(label, delta, it, float(delta / scale))


def filter_step(P_pred: np.ndarray, model: SystemModel):
    """One covariance step of the filter: (F, P_next, K, Pi_eta).

    K is the Kalman gain at P_pred and P_filt = (I - K C) P_pred the
    updated covariance; F = sym(P_filt), P_next = sym(A P_filt A^T + W) the
    next predicted covariance, and Pi_eta = sym(K C P_pred) the covariance
    of the correction K(C xtilde + v).
    """
    K = kalman_gain(P_pred, model)
    KC = K @ model.C
    P_filt = (np.eye(model.A.shape[0]) - KC) @ P_pred
    return (symmetrize(P_filt),
            symmetrize(model.A @ P_filt @ model.A.T + model.W), K,
            symmetrize(KC @ P_pred))


def kf_steady_state(model: SystemModel) -> SteadyStateFilter:
    """Iterate the predicted-covariance recursion from X0 to its fixed point.

    Convergence is fixed_point's. Returns the steady gain, the updated
    covariance F_inf and the correction covariance Pi_eta along with
    iteration diagnostics. Raises fixed_point's ConvergenceError.
    """
    P, it = fixed_point(lambda P: filter_step(P, model)[1], model.X0.copy(),
                        "steady-state filter iteration")
    F, P_next, K, Pi_eta = filter_step(P, model)
    return SteadyStateFilter(P_inf=P, K_inf=K, F_inf=F, Pi_eta=Pi_eta,
                             iterations=it,
                             residual=float(np.max(np.abs(P_next - P))))
