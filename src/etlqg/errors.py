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
    """An iterative solver stalled or hit its iteration cap.

    solver:   human-readable solver name
    residual: last observed residual
    relative: residual over the last iterate's largest entry
    """

    def __init__(self, solver: str, residual: float, iterations: int,
                 relative: float):
        self.solver = solver
        self.residual = residual
        self.iterations = iterations
        self.relative = relative
        super().__init__(
            f"{solver} did not converge after {iterations} iterations "
            f"(residual {residual:.3e}, {relative:.3e} relative)"
        )

    def __reduce__(self):
        # rebuild from the fields, so the error survives a process boundary
        return type(self), (self.solver, self.residual, self.iterations,
                            self.relative)


class NumericalError(EtlqgError):
    """A numerical inconsistency, or a lambda beyond the accurate range."""


class DivergenceError(EtlqgError):
    """Simulated state exceeded the divergence guard."""

    def __init__(self, step: int, run: int, value: float, lam: float):
        self.step = step
        self.run = run        # run index in range(cfg.runs)
        self.value = value
        self.lam = lam
        super().__init__(
            f"state diverged at step {step} (lambda {lam!r}, run {run}): "
            f"|x| = {value:.3e}"
        )

    def __reduce__(self):
        return type(self), (self.step, self.run, self.value, self.lam)


class ConfigError(EtlqgError):
    """Invalid experiment configuration; message names the offending field."""
