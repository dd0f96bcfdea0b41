"""Exception hierarchy shared across the package."""


class EtlqgError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(EtlqgError):
    """Structural problem with a model definition (shapes, finiteness, caps)."""


class DefinitenessError(ModelError):
    """A covariance or cost weight violates its symmetry/definiteness contract."""


class ValidationFailure(EtlqgError):
    """A model failed one or more validation checks.

    Carries the full report so callers can render every failed check.
    """

    def __init__(self, report):
        self.report = report
        failed = ", ".join(c.name for c in report.checks if not c.passed)
        super().__init__(f"model validation failed: {failed}")


class ConvergenceError(EtlqgError):
    """An iterative solver hit its iteration cap.

    solver:   human-readable solver name
    residual: last observed residual
    """

    def __init__(self, solver: str, residual: float, iterations: int):
        self.solver = solver
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"{solver} did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class NumericalError(EtlqgError):
    """Internal numerical inconsistency that indicates a bug, not bad input."""


class DivergenceError(EtlqgError):
    """Simulated state exceeded the divergence guard."""

    def __init__(self, step: int, run: int, value: float, lam: float):
        self.step = step
        self.run = run        # run index within the lambda
        self.value = value
        self.lam = lam
        super().__init__(
            f"state diverged at step {step} (lambda {lam!r}, run {run}): "
            f"|x| = {value:.3e}"
        )


class ConfigError(EtlqgError):
    """Invalid experiment configuration; message names the offending field."""
