"""Closed-form analysis of the transmission process.

Everything here is a deterministic function of the steady-state filter and
the scheduler parameters. The held error stays zero-mean Gaussian under the
hold weight exp(-lam |e|^2), so one conditioning recursion gives both the
timeout-counter chain (with its stationary distribution and long-run rate)
and the held-error covariance per counter value. The stacked cumulative
correction covariance and its joint hold probabilities are an independent
route to the same chain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
class MarkovAnalysis:
    """Timeout-counter chain at one (lam, timeout) setting.

    p_i0: probability of transmitting next step given counter value i
    (p_i0[timeout] = 1). P_lambda: full transition matrix. pi: stationary
    distribution. rate: long-run transmission rate (equals pi[0]).
    """

    p_i0: np.ndarray
    P_lambda: np.ndarray
    pi: np.ndarray | None
    rate: float | None
    lam: float
    timeout: int


@dataclass(frozen=True)
class ConditionalErrorCov:
    """sigmas[i] = covariance of the held comparison error given counter == i."""

    sigmas: tuple[np.ndarray, ...]
    lam: float


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


def _logdet_shifted(matrix: np.ndarray, lam: float) -> float:
    """log det(I + 2*lam*M) for PSD M, stable across extreme lam.

    Eigenvalues are taken at the scale of M itself (tiny negatives from
    roundoff clamped to zero), so neither end of the lam range cancels.
    """
    eigs = np.clip(np.linalg.eigvalsh(symmetrize(matrix)), 0.0, None)
    return float(np.sum(np.log1p(2.0 * lam * eigs)))


def nontrigger_probability(cov: CumulativeErrorCov, lam: float) -> float:
    """P(no trigger for cov.order+1 consecutive steps) = exp(-logdet/2)."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    return float(np.exp(-0.5 * _logdet_shifted(cov.matrix, lam)))


def _conditioning_pass(ss: SteadyStateFilter, A: np.ndarray,
                       params: SchedulerParams):
    """(ld_0..ld_{T-1}, sigma_0..sigma_T) of the held error after k holds.

    sigma_0 = 0, N_k = A sigma_k A^T + Pi_eta, ld_k = log det(I + 2 lam N_k)
    (so 1 - p_k0 = exp(-ld_k/2)) and sigma_{k+1} = (I + 2 lam N_k)^{-1} N_k.
    The solve form avoids the O(1/lam) cancellation of the equivalent
    subtraction form (1/2lam)I - (1/4lam^2)(N + (1/2lam)I)^{-1} at large lam.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    lam = params.lam
    eye = np.eye(n)
    ld = np.empty(params.timeout)
    sigmas = [np.zeros((n, n))]
    for k in range(params.timeout):
        inner = symmetrize(A @ sigmas[-1] @ A.T + ss.Pi_eta)
        ld[k] = _logdet_shifted(inner, lam)
        cf = cho_factor(eye + 2.0 * lam * inner, lower=True)
        sigmas.append(symmetrize(cho_solve(cf, inner)))
    return ld, sigmas


def transition_matrix(ss: SteadyStateFilter, A: np.ndarray,
                      params: SchedulerParams) -> MarkovAnalysis:
    """Build the timeout-counter chain for one (lam, timeout).

    p_i0 = -expm1(-ld_i/2) from the conditioning pass, one n x n step per
    age; accurate from lam = 1e-6 to 1e6 and tested up to timeout 1000.
    """
    T = params.timeout
    ld, _ = _conditioning_pass(ss, A, params)
    p_i0 = np.empty(T + 1)
    p_i0[:T] = -np.expm1(-0.5 * ld)
    p_i0[T] = 1.0
    if np.any(p_i0 < -_PROB_SLACK) or np.any(p_i0 > 1 + _PROB_SLACK):
        raise NumericalError(
            f"transition probabilities escaped [0,1]: min {p_i0.min()}, max {p_i0.max()}"
        )

    P = np.zeros((T + 1, T + 1))
    P[:, 0] = p_i0
    for i in range(T):
        P[i, i + 1] = 1.0 - p_i0[i]

    partial = MarkovAnalysis(p_i0=p_i0, P_lambda=P, pi=None, rate=None,
                             lam=params.lam, timeout=T)
    pi = stationary_distribution(partial)
    rate = communication_rate(partial)
    return replace(partial, pi=pi, rate=rate)


def _survivor_weights(p_i0: np.ndarray) -> np.ndarray:
    """[1, prod(1-p_00), prod(1-p_00)(1-p_10), ...], one entry per state."""
    T = len(p_i0) - 1
    out = np.empty(T + 1)
    out[0] = 1.0
    out[1:] = np.cumprod(1.0 - p_i0[:T])
    return out


def stationary_distribution(ma: MarkovAnalysis) -> np.ndarray:
    """Stationary distribution of the counter chain.

    Primary path is the closed-form survivor product; a direct linear solve
    of the balance equations is computed as an independent cross-check and
    disagreement beyond tolerance is an internal error (it would mean the
    transition matrix and the product formula came from different chains).
    """
    weights = _survivor_weights(ma.p_i0)
    total = weights.sum()
    pi = weights / total

    k = len(pi)
    system = ma.P_lambda.T - np.eye(k)
    system[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    pi_solve, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    gap = float(np.max(np.abs(pi - pi_solve)))
    if gap > STATIONARY_CROSSCHECK_TOL:
        raise NumericalError(
            f"stationary distribution cross-check failed: max discrepancy {gap:.3e}"
        )
    return pi


def communication_rate(ma: MarkovAnalysis) -> float:
    """Long-run fraction of transmitting steps, 1 / (1 + sum of survivors)."""
    weights = _survivor_weights(ma.p_i0)
    return float(1.0 / weights.sum())


def conditional_error_cov(ss: SteadyStateFilter, A: np.ndarray,
                          params: SchedulerParams) -> ConditionalErrorCov:
    """Held-error covariance conditioned on each counter value.

    sigma(0) is exactly zero; sigma(1..T) come from the conditioning pass.
    """
    _, sigmas = _conditioning_pass(ss, A, params)
    return ConditionalErrorCov(sigmas=tuple(sigmas), lam=params.lam)


def analysis_record(ma: MarkovAnalysis, cec: ConditionalErrorCov) -> dict:
    """JSON-ready summary of one analysis point."""
    return {
        "lambda": ma.lam,
        "timeout": ma.timeout,
        "rate": ma.rate,
        "p_i0": ma.p_i0.tolist(),
        "pi": None if ma.pi is None else ma.pi.tolist(),
        "sigma_e_trace": [float(np.trace(s)) for s in cec.sigmas],
    }
