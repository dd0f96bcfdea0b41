"""50-digit reference for the trigger chain, the rate and the cost.

Independent of the etlqg package: everything is recomputed from the model
matrices in mpmath at 50 significant digits.

- Filter and control fixed points are iterated to 1e-45.
- The chain uses the Gaussian-conditioning recursion (Han et al., IEEE TAC
  2015). With sigma_0 = 0 and N_k = A sigma_k A^T + Pi_eta:
      1 - p_k0    = det(I + 2 lam N_k)^(-1/2)
      sigma_{k+1} = (I + 2 lam N_k)^(-1) N_k
  and p_T0 = 1 at the timeout T.
- rate = 1 / sum of survivor weights; the cost is
  Tr(S W) + Tr(F M) + sum_k pi_k Tr(M sigma_k).

`nested_p_i0` evaluates the same probabilities from nested determinants of
the stacked cumulative-error covariance, built from its definition, as a
second route for small timeouts.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath.ctx_mp import MPContext

DPS = 50
FIXED_POINT_TOL_EXP = -45
MAX_ITER = 10_000

mp = MPContext()
mp.dps = DPS


def _matrix(rows) -> "mp.matrix":
    """Exact copy of a matrix given as nested lists of doubles."""
    return mp.matrix([[mp.mpf(float(v)) for v in row] for row in rows])


def _trace(M) -> "mp.mpf":
    return mp.fsum(M[i, i] for i in range(M.rows))


def _converged(new, old) -> bool:
    return mp.mnorm(new - old, 1) < mp.mpf(10) ** FIXED_POINT_TOL_EXP


@dataclass(frozen=True)
class Reference:
    """Model-level fixed points at 50 digits."""

    A: "mp.matrix"
    W: "mp.matrix"
    Pi_eta: "mp.matrix"
    F: "mp.matrix"
    S: "mp.matrix"
    M: "mp.matrix"


def build(model: dict) -> Reference:
    """Fixed points for a config `model` block (A B C W V Q R X0 lists)."""
    A, B, C = (_matrix(model[k]) for k in ("A", "B", "C"))
    W, V, Q, R = (_matrix(model[k]) for k in ("W", "V", "Q", "R"))
    P = _matrix(model["X0"])
    for _ in range(MAX_ITER):
        K = P * C.T * mp.inverse(C * P * C.T + V)
        P_next = A * (P - K * C * P) * A.T + W
        done = _converged(P_next, P)
        P = P_next
        if done:
            break
    else:
        raise ArithmeticError("reference filter iteration did not converge")
    K = P * C.T * mp.inverse(C * P * C.T + V)
    Pi_eta = K * C * P
    F = P - Pi_eta

    S = Q.copy()
    for _ in range(MAX_ITER):
        S_next = (A.T * S * A + Q
                  - A.T * S * B * mp.inverse(B.T * S * B + R) * B.T * S * A)
        done = _converged(S_next, S)
        S = S_next
        if done:
            break
    else:
        raise ArithmeticError("reference control iteration did not converge")
    G = B.T * S * B + R
    L = mp.inverse(G) * B.T * S * A
    return Reference(A=A, W=W, Pi_eta=Pi_eta, F=F, S=S, M=L.T * G * L)


def chain(ref: Reference, lam: float, timeout: int):
    """(p_i0 for i = 0..T, sigma_i for i = 0..T) by the conditioning recursion."""
    n = ref.A.rows
    two_lam = 2 * mp.mpf(float(lam))
    eye = mp.eye(n)
    sigma = mp.zeros(n, n)
    p, sigmas = [], [sigma]
    for _ in range(timeout):
        N = ref.A * sigma * ref.A.T + ref.Pi_eta
        shifted = eye + two_lam * N
        p.append(1 - 1 / mp.sqrt(mp.det(shifted)))
        sigma = mp.inverse(shifted) * N
        sigmas.append(sigma)
    p.append(mp.mpf(1))
    return p, sigmas


def rate_and_cost(ref: Reference, p, sigmas):
    """Long-run transmission rate and average cost from a chain."""
    weights = [mp.mpf(1)]
    for p_i0 in p[:-1]:
        weights.append(weights[-1] * (1 - p_i0))
    total = mp.fsum(weights)
    trigger = mp.fsum(w * _trace(ref.M * s) for w, s in zip(weights, sigmas))
    cost = _trace(ref.S * ref.W) + _trace(ref.F * ref.M) + trigger / total
    return 1 / total, cost


def nested_p_i0(ref: Reference, lam: float, timeout: int):
    """p_i0 for i = 0..T-1 from nested determinants (small T only).

    Block b of the stacked error is sum_{t<=b} A^(b-t) eta_t, so block
    (a, b) of its covariance is sum_{t<=min(a,b)} A^(a-t) Pi_eta A^(b-t)^T,
    and P(no send in i+1 steps) = det(I + 2 lam Sigma_i)^(-1/2).
    """
    n = ref.A.rows
    two_lam = 2 * mp.mpf(float(lam))
    powers = [mp.eye(n)]
    for _ in range(timeout):
        powers.append(ref.A * powers[-1])
    dim = timeout * n
    stacked = mp.zeros(dim, dim)
    for a in range(timeout):
        for b in range(timeout):
            block = mp.zeros(n, n)
            for t in range(min(a, b) + 1):
                block += powers[a - t] * ref.Pi_eta * powers[b - t].T
            for i in range(n):
                for j in range(n):
                    stacked[a * n + i, b * n + j] = block[i, j]
    dets = [mp.mpf(1)]
    for k in range(1, timeout + 1):
        d = k * n
        dets.append(mp.det(mp.eye(d) + two_lam * stacked[0:d, 0:d]))
    return [1 - mp.sqrt(dets[i] / dets[i + 1]) for i in range(timeout)]
