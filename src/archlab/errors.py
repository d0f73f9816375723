"""Exception hierarchy.

Every error raised on purpose by this package derives from
:class:`ArchlabError`, so callers (and the CLI) can separate contract
violations from genuine bugs.
"""

from __future__ import annotations


class ArchlabError(Exception):
    """Base class for all errors raised by archlab."""


class DomainError(ArchlabError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ExhaustedSurvivalError(DomainError):
    """Survival mass has dropped below the representable floor.

    Raised where a hazard or cumulative hazard would be infinite or would
    overflow, e.g. the uniform hazard 1/(v - t) at t >= v.
    """


class OrderingViolationError(DomainError):
    """Inputs violate a required ordering, e.g. a joint CDF exceeding a marginal."""


class ConditioningError(DomainError):
    """A conditional probability was requested on a (numerically) null event."""


class DistSpecError(ArchlabError, ValueError):
    """A distribution spec string could not be parsed."""


class QuadratureConvergenceError(ArchlabError, ArithmeticError):
    """The quadrature reached its last level, on panels halved as often as
    it may halve them, before meeting the tolerance.

    Carries the best available estimate in :attr:`best_estimate`.
    """

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


class ConsistencyError(ArchlabError, ArithmeticError):
    """Two algebraically equivalent computation routes disagreed."""


class GridEvalError(ArchlabError):
    """A grid cell evaluation failed; coordinates are in the message."""

    def __init__(self, message: str, point: tuple[float, ...]):
        super().__init__(message)
        self.point = point


class DegenerateDataError(ArchlabError, ValueError):
    """Input data admit no finite estimate (e.g. all observations equal)."""


class McError(ArchlabError):
    """A Monte Carlo run could not produce the requested estimate."""


class UsageError(ArchlabError):
    """Command line invocation error."""
