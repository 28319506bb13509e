"""Verification outcomes.

Every checker in the library returns a :class:`VerificationReport`.  Checks
that compare rationals (hypothesis, conclusion, set counts, pointwise terms,
fiber shapes, marginals) are exact and carry ``tolerance_used == 0.0``.
Checks that live in the log domain (entropy gaps, log P, the log-Laplace
identity) carry the absolute tolerance that was applied.

Inequalities with rational exponents are decided through their
common-denominator integer powers; when such a comparison is reported, the
``lhs``/``rhs`` fields hold the powered quantities, which are exact
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .measures import _ratio_text

VERIFIED = "verified"
VIOLATED = "violated"
INAPPLICABLE = "inapplicable"

_OUTCOMES = (VERIFIED, VIOLATED, INAPPLICABLE)


def jsonable(value: Any) -> Any:
    """Recursively convert report payloads to JSON-serializable values.

    Fractions become exact ``p/q`` strings, of any length, and tuples
    become lists.
    """
    if isinstance(value, Fraction):
        return _ratio_text(value.numerator, value.denominator)
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class VerificationReport:
    check: str
    outcome: str
    lhs: Fraction | float | None = None
    rhs: Fraction | float | None = None
    log_p: float | None = None
    gap: float | None = None
    witness: dict | None = None
    tolerance_used: float = 0.0
    detail: str | None = None
    subchecks: tuple["VerificationReport", ...] = field(default=())

    def __post_init__(self) -> None:
        if self.outcome not in _OUTCOMES:
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.outcome == VIOLATED and self.witness is None:
            raise ValueError("a violated report must carry a witness")

    @property
    def ok(self) -> bool:
        return self.outcome == VERIFIED

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {"check": self.check, "outcome": self.outcome}
        if self.lhs is not None:
            out["lhs"] = jsonable(self.lhs)
        if self.rhs is not None:
            out["rhs"] = jsonable(self.rhs)
        if self.log_p is not None:
            out["log_p"] = self.log_p
        if self.gap is not None:
            out["gap"] = self.gap
        if self.witness is not None:
            out["witness"] = jsonable(self.witness)
        out["tolerance"] = self.tolerance_used
        if self.detail is not None:
            out["detail"] = self.detail
        if self.subchecks:
            out["subchecks"] = [r.to_json_dict() for r in self.subchecks]
        return out
