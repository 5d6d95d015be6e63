"""Exception types shared across the numeric modules."""


class NumericsError(Exception):
    """Base class for numerical failures (as opposed to bad arguments)."""


class PoleError(ValueError):
    """A special function was evaluated at (or too close to) a pole."""


class SeriesConvergenceError(NumericsError):
    """A series did not reach its tolerance within its term cap (the 2F3
    series of specfun.hyp2f3, after 500 terms)."""


class QuadratureError(NumericsError):
    """Adaptive quadrature did not meet the requested tolerance."""


class FactorizationError(NumericsError):
    """Covariance factorization failed beyond the allowed jitter budget."""


class PlanError(ValueError):
    """A discretization plan is inconsistent with the requested simulation."""
