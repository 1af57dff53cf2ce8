"""Exception types shared across the package."""


class CodingError(Exception):
    """Base class for all klcodes errors."""


class NegativeProbabilityError(CodingError):
    pass


class NotNormalizedError(CodingError):
    pass


class ZeroProbabilityError(CodingError):
    pass


class TooFewSymbolsError(CodingError):
    pass


class AbsoluteContinuityError(CodingError):
    pass


class DimensionMismatchError(CodingError):
    pass


class DomainError(CodingError):
    pass


class ArityTooSmallError(DomainError):
    pass


class NonFiniteWeightError(CodingError):
    pass


class AllZeroWeightsError(CodingError):
    pass


class KraftViolationError(CodingError):
    pass


class SaturatedInputError(CodingError):
    pass


class BoundaryRegimeError(CodingError):
    pass


class NoConvergenceError(CodingError):
    pass


class LimitExceededError(CodingError):
    pass
