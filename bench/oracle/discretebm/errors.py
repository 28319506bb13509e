"""Exception types shared across the library."""


class LatticeError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LatticeError):
    """Operands live in spaces of different dimension."""


class EmptySupportError(LatticeError):
    """A measure or point set ended up with no support."""


class InvalidWeightError(LatticeError):
    """A weight is negative, non-rational, or violates a mass constraint."""


class MarginalMismatch(LatticeError):
    """A coupling's projections disagree with its declared marginals."""


class DomainError(LatticeError):
    """An argument lies outside the mathematical domain of an operation."""


class FormatError(LatticeError):
    """A JSON document or CLI value does not match the expected schema."""
