"""Plant, noise, cost-weight and scheduler parameter definitions.

A SystemModel bundles the linear dynamics x' = Ax + Bu + w, the measurement
y = Cx + v, the noise covariances, and the quadratic cost weights.
Construction is the one check of a model's form: a non-finite, misshapen,
non-symmetric or non-definite matrix raises ModelError or DefinitenessError
naming the matrix, so `etlqg validate` exits 2 before any report. The
report of validate_model holds the four rank conditions the steady-state
theory needs, checked apart from construction so that deliberately
degenerate models (B = 0, W = 0) can still be built for unit-level work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DefinitenessError, ModelError

SYMMETRY_TOL = 1e-10
PSD_EIG_FLOOR = -1e-10
PD_EIG_MIN = 1e-10
MAX_DIM = 64


def symmetrize(M: np.ndarray) -> np.ndarray:
    return (M + np.swapaxes(M, -1, -2)) / 2


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root with negative eigenvalues clamped to zero.

    Inputs are PSD only up to tolerance, so eigh plus clamping is the
    robust factorization here.
    """
    vals, vecs = np.linalg.eigh(symmetrize(M))
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ModelError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{name} contains non-finite entries")
    return arr


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    asym = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if asym > SYMMETRY_TOL:
        raise DefinitenessError(
            f"{name} is not symmetric: max |M - M^T| = {asym:.3e} > {SYMMETRY_TOL:g}"
        )
    return symmetrize(M)


def _min_eig(M: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(M))) if M.size else 0.0


@dataclass(frozen=True)
class SystemModel:
    """Immutable LTI plant with Gaussian noise and quadratic cost weights.

    A: n x n dynamics, B: n x m input map, C: p x n output map.
    W, V: process/measurement noise covariances. Q, Qf, R: running state,
    terminal state and input cost weights. x0_mean, X0: initial state mean
    and covariance.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    W: np.ndarray
    V: np.ndarray
    Q: np.ndarray
    Qf: np.ndarray
    R: np.ndarray
    x0_mean: np.ndarray
    X0: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ModelError(f"A must be square, got {A.shape}")
        B = _as_matrix(self.B, "B")
        if B.shape[0] != n:
            raise ModelError(f"B must have {n} rows to match A, got {B.shape}")
        m = B.shape[1]
        C = _as_matrix(self.C, "C")
        if C.shape[1] != n:
            raise ModelError(f"C must have {n} columns to match A, got {C.shape}")
        p = C.shape[0]
        if max(n, m, p) > MAX_DIM:
            raise ModelError(
                f"dimensions (n={n}, m={m}, p={p}) exceed the supported cap {MAX_DIM}"
            )

        shapes = {"W": (n, n), "V": (p, p), "Q": (n, n), "Qf": (n, n),
                  "R": (m, m), "X0": (n, n)}
        mats = {}
        for name, want in shapes.items():
            M = _as_matrix(getattr(self, name), name)
            if M.shape != want:
                raise ModelError(f"{name} must be {want[0]}x{want[1]}, got {M.shape}")
            mats[name] = _check_symmetric(M, name)

        for name in ("W", "Q", "Qf", "X0"):
            ev = _min_eig(mats[name])
            if ev < PSD_EIG_FLOOR:
                raise DefinitenessError(
                    f"{name} must be positive semidefinite: min eigenvalue {ev:.3e}"
                )
        for name in ("V", "R"):
            ev = _min_eig(mats[name])
            if ev <= PD_EIG_MIN:
                raise DefinitenessError(
                    f"{name} must be positive definite: min eigenvalue {ev:.3e}"
                )

        x0 = np.asarray(self.x0_mean, dtype=float).reshape(-1)
        if x0.shape != (n,):
            raise ModelError(f"x0_mean must have length {n}, got {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ModelError("x0_mean contains non-finite entries")

        for name, M in {"A": A, "B": B, "C": C, **mats, "x0_mean": x0}.items():
            object.__setattr__(self, name, M)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(n, m, p) = state, input, output dimensions."""
        return self.A.shape[0], self.B.shape[1], self.C.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SystemModel):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("A", "B", "C", "W", "V", "Q", "Qf", "R", "x0_mean", "X0")
        )


def scheduler_lambdas(lams, timeout) -> list[float]:
    """The trigger sensitivities lams as floats, checked with the timeout.

    lams is a nonempty grid of reals (a single lambda is the grid [lam]). Each
    lambda is a positive finite scalar weight on the squared comparison error
    inside the non-transmit probability exp(-lam * |e|^2); timeout, the hard
    upper bound on consecutive non-transmissions, an integer >= 1.
    """
    if not isinstance(timeout, (int, np.integer)) or isinstance(timeout, bool):
        raise ModelError(f"timeout must be an integer, got {timeout!r}")
    if timeout < 1:
        raise ModelError(f"timeout must be >= 1, got {timeout}")
    try:  # a string is not a grid of its characters
        grid = [] if isinstance(lams, (str, bytes)) else list(lams)
    except TypeError:
        grid = []
    # nor is a list, a complex, a string or a bool a lambda
    if not grid or any(type(lam) is bool or not isinstance(
            lam, (int, float, np.integer, np.floating)) for lam in grid):
        raise ModelError(
            f"lams must be a nonempty grid of lambdas, got {lams!r}")
    lams = [float(lam) for lam in grid]
    for lam in lams:
        if not np.isfinite(lam) or lam <= 0:
            raise ModelError(f"lam must be a positive finite scalar, got {lam!r}")
    return lams


def controllability_rank(A: np.ndarray, B: np.ndarray) -> int:
    """Numerical rank of [B, AB, ..., A^(n-1)B].

    Uses the SVD threshold max(n, n*m) * sigma_max * eps, i.e. numpy's
    default relative tolerance for an n x (n*m) matrix.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n:
        raise ModelError(f"incompatible shapes for controllability test: {A.shape}, {B.shape}")
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return int(np.linalg.matrix_rank(np.hstack(blocks)))


def observability_rank(A: np.ndarray, C: np.ndarray) -> int:
    return controllability_rank(np.asarray(A, dtype=float).T,
                                np.asarray(C, dtype=float).T)


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    measured: int
    requirement: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: measured "
                f"{c.measured:g} ({c.requirement})" for c in self.checks]


def validate_model(model: SystemModel) -> ValidationReport:
    """The rank conditions of the steady-state theory, each as one check.

    In order: (A,B) controllable, (A,C) observable, (A,W^{1/2})
    controllable and (A,Q^{1/2}) observable, each at rank n. Form is not
    checked here: SystemModel construction already raised, naming the
    matrix, for a non-finite, misshapen, non-symmetric or non-definite
    one, so `etlqg validate` exits 2 before any report exists.
    Deterministic and side-effect free.
    """
    n = model.dims[0]
    ranks = {
        "controllable(A,B)": controllability_rank(model.A, model.B),
        "observable(A,C)": observability_rank(model.A, model.C),
        "controllable(A,sqrt(W))": controllability_rank(model.A, psd_sqrt(model.W)),
        "observable(A,sqrt(Q))": observability_rank(model.A, psd_sqrt(model.Q)),
    }
    return ValidationReport(tuple(
        ValidationCheck(name, rank == n, rank, f"rank == {n}")
        for name, rank in ranks.items()))
