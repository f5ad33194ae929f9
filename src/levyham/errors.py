"""Exception hierarchy shared by all levyham modules."""


class LevyhamError(Exception):
    """Base class for all toolkit errors."""


class ShiftIsZero(LevyhamError):
    """An overlap quantity was requested at shift x = 0, where it is undefined."""


class NonPositiveRadius(LevyhamError):
    """A radius argument that must be strictly positive was not."""


class CutoffTooSmall(LevyhamError):
    """The jump cutoff produces an expected event count beyond the configured budget."""


class NonFiniteForce(LevyhamError):
    """The force evaluator returned NaN or infinity."""


class GrowthTestFailed(LevyhamError):
    """The potential does not pass the superquadratic-growth proxy test."""


class InvalidCross(LevyhamError):
    """The cross-term weight of a quadratic form violates |r0| < r."""


class MomentFailure(LevyhamError):
    """A required moment integral of the jump measure diverges."""


class EmptyWindow(LevyhamError):
    """No admissible value exists for the requested parameter window."""


class NoRoot(LevyhamError):
    """A scalar equation that must have a positive root does not."""


class SigmaNotIntegrable(LevyhamError):
    """1/sigma is not integrable at zero, so the distance profile cannot be built."""


class QuadratureBudgetExceeded(LevyhamError):
    """A node table of the quadrature scheme would exceed the node budget."""


class InsufficientDecay(LevyhamError):
    """The decay curve has no usable fit window."""


class EmptyMeasure(LevyhamError):
    """An empirical measure with no samples was passed where samples are required."""


class ConfigError(LevyhamError):
    """Experiment configuration is malformed or violates a type invariant."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
