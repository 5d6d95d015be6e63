"""Exception types shared across the numeric modules: NumericsError and its
subclasses for failed numerics (NumericsError itself where a value cannot be
trusted, as a cancelled closed form), PoleError and PlanError for bad input."""


class NumericsError(Exception):
    """Base class for numerical failures (as opposed to bad arguments)."""


class PoleError(ValueError):
    """A special function was evaluated at (or too close to) a pole."""


class QuadratureError(NumericsError):
    """Adaptive quadrature did not meet the requested tolerance."""


class FactorizationError(NumericsError):
    """Covariance factorization failed beyond the allowed jitter budget."""


class PlanError(ValueError):
    """A discretization plan is inconsistent with the requested simulation."""
