"""Exception types shared across the package."""


class FaceflowError(Exception):
    """Base class for all package-specific errors."""


class NotOuterplanar(FaceflowError):
    pass


class NotBiconnected(FaceflowError):
    pass


class ChordTooLong(FaceflowError):
    pass


class LengthMismatch(FaceflowError):
    pass


class NonPositiveScale(FaceflowError):
    pass


class EmptyTarget(FaceflowError):
    pass


class FaceInvalid(FaceflowError):
    pass


class NotStarShaped(FaceflowError):
    pass


class SlackViolation(FaceflowError):
    pass


class HypothesisViolated(FaceflowError):
    pass


class NoSeparatedDemand(FaceflowError):
    pass


class TooLarge(FaceflowError):
    pass


class Infeasible(FaceflowError):
    pass


class Unbounded(FaceflowError):
    pass


class IterationLimit(FaceflowError):
    """The simplex hit its iteration limit; says nothing about the LP."""


class ZeroDenominator(FaceflowError):
    pass


class NegativeEntry(FaceflowError):
    pass


class BudgetExhausted(FaceflowError):
    pass


class InvariantViolation(FaceflowError):
    """A structural invariant that should hold per sample failed."""
