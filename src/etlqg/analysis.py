"""Closed-form analysis of the transmission process.

Everything here is a deterministic function of the steady-state filter and
the scheduler parameters. The held error stays zero-mean Gaussian under the
hold weight exp(-lam |e|^2), so one conditioning pass over a lambda grid
(`conditional_error_cov`) gives the grid's per-age arrays, a row per lambda:
transmit probabilities p_i0, and tr sigma and tr(M sigma) of the held error.
`transition_matrix` turns a row into `MarkovAnalysis`, the timeout-counter
chain with its stationary distribution and long-run rate. The chain is its
reset column p_i0 alone (from counter i it resets with probability p_i0[i],
else moves to i + 1), so no (T+1)^2 matrix is formed and every chain
operation is O(T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .estimation import SteadyStateFilter
from .model import scheduler_lambdas, symmetrize

# The largest lambda the pass accepts: the largest power of ten at which sigma
# kept within 1e-6 relative of a 60-digit mpmath pass on the bundled and 24
# random models (1.7e-7 at 1e7, 2.3e-6 at 1e8). Pi_eta has rank p < n, so
# det(I + 2 lam N) cancels its top power of lam; at 1e100 sigma is 75% off.
LAMBDA_MAX = 1e7


@dataclass(frozen=True)
class MarkovAnalysis:
    """Timeout-counter chain at one lambda, the one per-lambda result.

    p_i0[i]: probability of transmitting next step at counter value i, for
    i = 0..T with p_i0[T] = 1; it is the whole chain, as the module says.
    sigma_trace[i], trigger_by_age[i]: held-error tr sigma(i), tr(M sigma(i)).
    pi: stationary distribution. rate: long-run transmission rate (pi[0]).
    """

    p_i0: np.ndarray
    pi: np.ndarray
    rate: float
    sigma_trace: np.ndarray
    trigger_by_age: np.ndarray
    lam: float


def _logdet_shifted(matrix: np.ndarray, lam) -> np.ndarray:
    """log det(I + 2*lam*M) for PSD M (..., n, n) and lam (...), stably.

    Eigenvalues are taken at the scale of M itself (tiny negatives from
    roundoff clamped to zero), so neither end of the lam range cancels.
    """
    eigs = np.clip(np.linalg.eigvalsh(symmetrize(matrix)), 0.0, None)
    return np.sum(np.log1p(2.0 * np.asarray(lam)[..., None] * eigs), axis=-1)


def _solve_grid(M: np.ndarray, B: np.ndarray, lams, age: int) -> np.ndarray:
    """np.linalg.solve(M, B), batched over the grid; a singular M[g] (2 lam N
    overflowing inside the LU) raises NumericalError naming lams[g]."""
    try:
        return np.linalg.solve(M, B)
    except np.linalg.LinAlgError:
        for g, lam in enumerate(lams):
            try:
                np.linalg.solve(M[g], B[g])
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"lambda={lam!r}: I + 2 lambda N is singular at age "
                    f"{age}: {exc}") from None
        raise


def checked_lambdas(lams, timeout) -> list[float]:
    """scheduler_lambdas(lams, timeout), each at most LAMBDA_MAX (else
    NumericalError naming it): the conditioning pass's lambda check."""
    lams = scheduler_lambdas(lams, timeout)
    for lam in lams:
        if lam > LAMBDA_MAX:
            raise NumericalError(
                f"lambda={lam!r}: above LAMBDA_MAX={LAMBDA_MAX:g}, where the "
                f"conditioning pass loses sigma's accuracy")
    return lams


def condition_step(sigma: np.ndarray, A: np.ndarray, Pi_eta: np.ndarray,
                   lams: list[float], age: int):
    """The one conditioning step: held-error covariances sigma (G, n, n),
    row g at lams[g], to p = -expm1(-log det(I + 2 lam N) / 2) (G,) and
    sigma' = (I + 2 lam N)^{-1} N, N = A sigma A^T + Pi_eta. One eigvalsh and
    one LU solve over the batch, so no row's bits depend on another's; a
    singular solve raises NumericalError naming its lambda and age (the
    caller's label for the step)."""
    lam = np.asarray(lams, dtype=float)
    inner = symmetrize(A @ sigma @ A.T + Pi_eta)
    p = -np.expm1(-0.5 * _logdet_shifted(inner, lam))
    return p, symmetrize(_solve_grid(
        np.eye(A.shape[0]) + 2.0 * lam[..., None, None] * inner, inner, lams,
        age))


def conditional_error_cov(ss: SteadyStateFilter, A: np.ndarray, lams,
                          timeout: int, M: np.ndarray):
    """The conditioning pass over a lambda grid: arrays p_i0, sigma_trace and
    trigger_by_age (tr(M sigma(i))), each (G, T+1), one row per lambda in
    lams order (MarkovAnalysis).

    sigma_0 = 0, `condition_step` per age k < T, batched over the grid, gives
    p_k0 and sigma_{k+1}, of which only the running (G, n, n) is kept, and
    p_T0 = 1; so a lambda gets the same bits alone as in any grid. Accurate
    from lam = 1e-6 to LAMBDA_MAX, tested up to timeout 1000, and free of the
    O(1/lam) cancellation of (1/2lam)I - (1/4lam^2)(N + I/2lam)^-1. A lambda
    above LAMBDA_MAX, or whose solve is singular or sigma overflows, raises
    NumericalError.
    """
    lams = checked_lambdas(lams, timeout)
    A = np.asarray(A, dtype=float)
    p_i0 = np.ones((len(lams), timeout + 1))
    sigma_trace, trigger_by_age = np.zeros((2, len(lams), timeout + 1))
    sigma = np.zeros((len(lams),) + A.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for k in range(timeout):
            p_i0[:, k], sigma = condition_step(sigma, A, ss.Pi_eta, lams, k)
            sigma_trace[:, k + 1] = np.trace(sigma, axis1=1, axis2=2)
            trigger_by_age[:, k + 1] = np.einsum("gij,ji->g", sigma, M)
    # a non-finite entry of sigma makes tr(M sigma) non-finite (0 * inf is
    # NaN); a finite sigma keeps every p_i0 in [0, 1]
    finite = np.isfinite(trigger_by_age).all(axis=1)
    if not finite.all():
        raise NumericalError(
            f"lambda={lams[int(np.argmin(finite))]!r}: sigma is not finite")
    return p_i0, sigma_trace, trigger_by_age


def transition_matrix(lam: float, p_i0: np.ndarray, sigma_trace: np.ndarray,
                      trigger_by_age: np.ndarray) -> MarkovAnalysis:
    """The timeout-counter chain of one row of the conditioning pass.

    The chain is stochastic, and so its stationary distribution is the
    survivor product, exactly when every p_i0 lies in [0, 1] and p_i0[T] = 1
    (else mass leaks past the timeout); any other row raises NumericalError.
    """
    if not (((p_i0 >= 0.0) & (p_i0 <= 1.0)).all() and p_i0[-1] == 1.0):
        raise NumericalError(
            f"lambda={lam!r}: p_i0 must lie in [0, 1] with p_i0[T] = 1, got "
            f"min {np.min(p_i0)}, max {np.max(p_i0)}, p_i0[T] {p_i0[-1]}")
    pi = stationary_distribution(p_i0)
    return MarkovAnalysis(p_i0, pi, float(pi[0]), sigma_trace, trigger_by_age,
                          lam)


def stationary_distribution(p_i0: np.ndarray) -> np.ndarray:
    """Stationary distribution of the counter chain: the survivor weights
    [1, (1-p_00), (1-p_00)(1-p_10), ...], one per state, normalized."""
    weights = np.cumprod(np.concatenate(([1.0], 1.0 - p_i0[:-1])))
    return weights / weights.sum()


def analysis_record(ma: MarkovAnalysis) -> dict:
    """JSON-ready summary of one analysis point."""
    return {
        "lambda": ma.lam,
        "timeout": len(ma.p_i0) - 1,
        "rate": ma.rate,
        "p_i0": ma.p_i0.tolist(),
        "pi": ma.pi.tolist(),
        "sigma_e_trace": ma.sigma_trace.tolist(),
    }
