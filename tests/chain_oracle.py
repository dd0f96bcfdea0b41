"""Two independent routes to the timeout-counter chain, kept as named oracles
for `etlqg.analysis`, which holds the chain as its reset column p_i0 alone.

The dense route builds the full (T+1)^2 transition matrix and solves its
balance equations by LU; criterion 8 and tests/test_analysis.py check the
survivor-product pi against it, and the O(T) `chain_step` of
tests/finite_horizon_oracle.py, which pushes the finite horizon's counter
distribution.

The stacked route assembles the covariance of the stacked cumulative
correction sums and integrates the hold weight over it in one piece, so the
survivor products of the conditioning pass telescope to its joint hold
probabilities (TestTelescoping, TestStackedOracleOnRandomModels, criterion 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from etlqg import NumericalError, SteadyStateFilter, stationary_distribution
from etlqg.analysis import _logdet_shifted
from etlqg.model import symmetrize

# the largest gap crosschecked_stationary allows between the survivor product
# and the LU solution of one chain's balance equations
STATIONARY_CROSSCHECK_TOL = 1e-8


def dense_transition_matrix(p_i0: np.ndarray) -> np.ndarray:
    """The (T+1)^2 matrix: reset column p_i0, survival superdiagonal 1 - p_i0."""
    T = len(p_i0) - 1
    P = np.zeros((T + 1, T + 1))
    P[:, 0] = p_i0
    for i in range(T):
        P[i, i + 1] = 1.0 - p_i0[i]
    return P


def balance_solve(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of P by an LU solve of pi P = pi, sum(pi) = 1.

    A singular system raises NumericalError.
    """
    k = len(P)
    system = P.T - np.eye(k)
    system[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"stationary distribution cross-check failed: {exc}") from exc


def crosschecked_stationary(p_i0: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The survivor-product pi of p_i0, cross-checked against balance_solve(P).

    A singular balance system or a disagreement beyond
    STATIONARY_CROSSCHECK_TOL (P and p_i0 describe different chains) raises
    NumericalError.
    """
    pi = stationary_distribution(p_i0)
    gap = float(np.max(np.abs(pi - balance_solve(P))))
    if gap > STATIONARY_CROSSCHECK_TOL:
        raise NumericalError(
            f"stationary distribution cross-check failed: max discrepancy {gap:.3e}"
        )
    return pi


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


def nontrigger_probability(cov: CumulativeErrorCov, lam: float) -> float:
    """P(no trigger for cov.order+1 consecutive steps) = exp(-logdet/2)."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    return float(np.exp(-0.5 * _logdet_shifted(cov.matrix, lam)))
