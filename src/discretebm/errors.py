"""Exception types shared across the library, and the bounded text of a
value that an error message names."""

import reprlib

# error texts name the value they reject by an abbreviated repr: at most
# 3 levels deep, a few items per container, and _BRIEF_CHARS characters
_BRIEF_CHARS = 200
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel = 3
_BRIEF.maxstring = _BRIEF.maxother = 60


def _brief(value) -> str:
    """``repr(value)`` cut to at most ``_BRIEF_CHARS`` characters, so that
    an error line stays short however large the rejected input is."""
    text = _BRIEF.repr(value)
    return text if len(text) <= _BRIEF_CHARS else text[: _BRIEF_CHARS - 3] + "..."


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
