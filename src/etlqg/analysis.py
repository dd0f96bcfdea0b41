"""Closed-form analysis of the transmission process.

Everything here is a deterministic function of the steady-state filter and
the scheduler parameters. The held error stays zero-mean Gaussian under the
hold weight exp(-lam |e|^2), so one conditioning pass over a lambda grid
(`conditional_error_cov`) gives each lambda's per-age transmit probabilities
and held-error covariance per counter value; `transition_matrix` turns one
such result into the timeout-counter chain with its stationary distribution
and long-run rate. The stacked cumulative correction covariance and its joint
hold probabilities are an independent route to the same chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .estimation import SteadyStateFilter
from .model import SchedulerParams, symmetrize

STATIONARY_CROSSCHECK_TOL = 1e-8
_PROB_SLACK = 1e-9


@dataclass(frozen=True)
class CumulativeErrorCov:
    """Covariance of stacked cumulative correction sums.

    For the stacked zero-mean Gaussian vector whose block b is
    sum_{j=0}^{b} A^j eta_{b-j} over shared white corrections eta_0..eta_b
    (one block per age 0..order), `matrix` is the full ((order+1)*n)^2
    covariance. Block (a, b) with a <= b equals
    (sum_{j<=a} A^j Pi_eta A^j^T) (A^{b-a})^T.
    """

    matrix: np.ndarray
    order: int
    dim: int

    @property
    def blocks(self) -> np.ndarray:
        """4-D view: blocks[a, b] is the n x n block at block-row a, column b."""
        k = self.order + 1
        n = self.dim // k
        return self.matrix.reshape(k, n, k, n).swapaxes(1, 2)

    def block(self, a: int, b: int) -> np.ndarray:
        k = self.order + 1
        n = self.dim // k
        if not (0 <= a < k and 0 <= b < k):
            raise IndexError(f"block ({a},{b}) out of range for order {self.order}")
        return self.matrix[a * n:(a + 1) * n, b * n:(b + 1) * n]


@dataclass(frozen=True)
class ConditionalErrorCov:
    """Result of the conditioning pass at one (lam, timeout).

    sigmas[i]: covariance of the held comparison error given counter == i
    (sigmas[0] = 0), shape (timeout+1, n, n). p_i0[i]: probability of
    transmitting next step given counter value i (p_i0[timeout] = 1).
    """

    sigmas: np.ndarray
    p_i0: np.ndarray
    lam: float


@dataclass(frozen=True)
class MarkovAnalysis:
    """Timeout-counter chain at one (lam, timeout).

    p_i0 and sigmas: as in ConditionalErrorCov. P_lambda: full transition
    matrix. pi: stationary distribution. rate: long-run transmission rate
    (pi[0]).
    """

    p_i0: np.ndarray
    P_lambda: np.ndarray
    pi: np.ndarray
    rate: float
    sigmas: np.ndarray
    lam: float
    timeout: int


def _a_powers(A: np.ndarray, upto: int) -> list[np.ndarray]:
    powers = [np.eye(A.shape[0])]
    for _ in range(upto):
        powers.append(powers[-1] @ A)
    return powers


def cumulative_cov(ss: SteadyStateFilter, A: np.ndarray, i: int) -> CumulativeErrorCov:
    """Assemble the stacked covariance up to age i (dense, (i+1)*n square)."""
    if i < 0:
        raise ValueError(f"order must be nonnegative, got {i}")
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    powers = _a_powers(A, i)
    # running diagonal blocks: D_a = sum_{j<=a} A^j Pi A^j^T
    diag = [symmetrize(ss.Pi_eta)]
    for a in range(1, i + 1):
        diag.append(symmetrize(diag[-1] + powers[a] @ ss.Pi_eta @ powers[a].T))
    dim = (i + 1) * n
    full = np.zeros((dim, dim))
    for a in range(i + 1):
        for b in range(a, i + 1):
            blk = diag[a] if b == a else diag[a] @ powers[b - a].T
            full[a * n:(a + 1) * n, b * n:(b + 1) * n] = blk
            if b > a:
                full[b * n:(b + 1) * n, a * n:(a + 1) * n] = blk.T
    return CumulativeErrorCov(matrix=full, order=i, dim=dim)


def _logdet_shifted(matrix: np.ndarray, lam) -> np.ndarray:
    """log det(I + 2*lam*M) for PSD M (..., n, n) and lam (...), stably.

    Eigenvalues are taken at the scale of M itself (tiny negatives from
    roundoff clamped to zero), so neither end of the lam range cancels.
    """
    eigs = np.clip(np.linalg.eigvalsh(symmetrize(matrix)), 0.0, None)
    return np.sum(np.log1p(2.0 * np.asarray(lam)[..., None] * eigs), axis=-1)


def nontrigger_probability(cov: CumulativeErrorCov, lam: float) -> float:
    """P(no trigger for cov.order+1 consecutive steps) = exp(-logdet/2)."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    return float(np.exp(-0.5 * _logdet_shifted(cov.matrix, lam)))


def conditional_error_cov(ss: SteadyStateFilter, A: np.ndarray, lams,
                          timeout: int) -> list[ConditionalErrorCov]:
    """The conditioning pass over a lambda grid, one result per lambda.

    sigma_0 = 0, N_k = A sigma_k A^T + Pi_eta, ld_k = log det(I + 2 lam N_k),
    p_k0 = -expm1(-ld_k/2) and sigma_{k+1} = (I + 2 lam N_k)^{-1} N_k for
    k = 0..T-1: per age one eigvalsh and one LU solve, batched over the grid,
    so a lambda gets the same bits alone as in any grid. Accurate from
    lam = 1e-6 to 1e6, tested up to timeout 1000, and free of the O(1/lam)
    cancellation of the subtraction form (1/2lam)I - (1/4lam^2)(N + I/2lam)^-1.
    """
    lams = [SchedulerParams(lam, timeout).lam for lam in lams]
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    lam = np.array(lams)
    eye = np.eye(n)
    ld = np.empty((len(lams), timeout))
    sigmas = np.zeros((len(lams), timeout + 1, n, n))
    for k in range(timeout):
        inner = symmetrize(A @ sigmas[:, k] @ A.T + ss.Pi_eta)
        ld[:, k] = _logdet_shifted(inner, lam)
        sigmas[:, k + 1] = symmetrize(
            np.linalg.solve(eye + 2.0 * lam[:, None, None] * inner, inner))
    p_i0 = np.ones((len(lams), timeout + 1))
    p_i0[:, :timeout] = -np.expm1(-0.5 * ld)
    if np.any(p_i0 < -_PROB_SLACK) or np.any(p_i0 > 1 + _PROB_SLACK):
        raise NumericalError(
            f"transition probabilities escaped [0,1]: min {p_i0.min()}, max {p_i0.max()}"
        )
    return [ConditionalErrorCov(*point) for point in zip(sigmas, p_i0, lams)]


def transition_matrix(cec: ConditionalErrorCov) -> MarkovAnalysis:
    """Build the timeout-counter chain from the conditioning pass result."""
    p_i0 = cec.p_i0
    T = len(p_i0) - 1
    P = np.zeros((T + 1, T + 1))
    P[:, 0] = p_i0
    for i in range(T):
        P[i, i + 1] = 1.0 - p_i0[i]
    pi = stationary_distribution(p_i0, P)
    return MarkovAnalysis(p_i0=p_i0, P_lambda=P, pi=pi, rate=float(pi[0]),
                          sigmas=cec.sigmas, lam=cec.lam, timeout=T)


def _survivor_weights(p_i0: np.ndarray) -> np.ndarray:
    """[1, prod(1-p_00), prod(1-p_00)(1-p_10), ...], one entry per state."""
    T = len(p_i0) - 1
    out = np.empty(T + 1)
    out[0] = 1.0
    out[1:] = np.cumprod(1.0 - p_i0[:T])
    return out


def stationary_distribution(p_i0: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Stationary distribution of the counter chain.

    Primary path is the closed-form survivor product; an LU solve of the
    balance equations is an independent cross-check, and a singular system or
    disagreement beyond tolerance is an internal error (it would mean the
    transition matrix and the product formula came from different chains).
    """
    weights = _survivor_weights(p_i0)
    total = weights.sum()
    pi = weights / total

    k = len(pi)
    system = P.T - np.eye(k)
    system[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    try:
        pi_solve = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"stationary distribution cross-check failed: {exc}") from exc
    gap = float(np.max(np.abs(pi - pi_solve)))
    if gap > STATIONARY_CROSSCHECK_TOL:
        raise NumericalError(
            f"stationary distribution cross-check failed: max discrepancy {gap:.3e}"
        )
    return pi


def analysis_record(ma: MarkovAnalysis) -> dict:
    """JSON-ready summary of one analysis point."""
    return {
        "lambda": ma.lam,
        "timeout": ma.timeout,
        "rate": ma.rate,
        "p_i0": ma.p_i0.tolist(),
        "pi": ma.pi.tolist(),
        "sigma_e_trace": np.trace(ma.sigmas, axis1=1, axis2=2).tolist(),
    }
