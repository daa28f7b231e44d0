"""Exception types shared across the package."""


class CircledynError(Exception):
    """Base class for all package-specific errors."""


class DegreeCapExceeded(CircledynError):
    pass


class RootFindingFailed(CircledynError):
    pass


class MapSyntaxError(CircledynError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DivisionByZeroPolynomial(CircledynError):
    pass


class NotOdd(CircledynError):
    pass


class DegeneratePoints(CircledynError):
    pass


class DegenerateCloud(CircledynError):
    pass


class PreimageSolveFailed(CircledynError):
    pass


class DerivativeSingular(CircledynError):
    pass


class NotFixed(CircledynError):
    pass


class PoleAtBasePoint(CircledynError):
    pass


class NotRepelling(CircledynError):
    pass


class ResonanceBreakdown(CircledynError):
    pass


class InsufficientRadii(CircledynError):
    pass


class BasePointPostcritical(CircledynError):
    pass


class SpecViolation(CircledynError):
    pass


class NewtonDiverged(CircledynError):
    """Inverse critical-value solve failed or missed its tolerance."""


class ParamOutOfRange(CircledynError):
    pass


class EX3ConstructionFailed(CircledynError):
    pass
