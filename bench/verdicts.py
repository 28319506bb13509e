"""Verdict digests: what must stay exactly the same, and what may drift.

A record is ``[digest, floats]`` for one item.  The digest hashes the
exact content of the item's JSON output: check names, outcomes, rational
strings such as ``lhs``/``rhs``, and integer or point witnesses.  Float
fields (``log_p``, ``gap``, entropy sides) are pulled out in document
order and compared with the reference to ``FLOAT_TOLERANCE`` instead of
being hashed.  ``detail`` (free text) and ``tolerance`` (a setting, not a
result) are left out, and so is any key a report may gain later that is
not listed in ``KEPT_KEYS``.
"""

from __future__ import annotations

import hashlib
import json

FLOAT_TOLERANCE = 1e-9

KEPT_KEYS = frozenset(
    {
        # reports
        "check", "outcome", "lhs", "rhs", "log_p", "gap", "witness", "subchecks",
        # suite rows and summary
        "instance", "reports", "summary", "seed", "instances", "passed", "failed",
        "checks", "worst_log_p", "worst_gap", "first_failure",
        # couplings and measures
        "dim", "atoms", "x", "y", "w",
        # bench-side wrappers
        "exit", "item", "error",
    }
)


# keys whose values are reports (or rows of reports), filtered like the top level
NESTED_REPORTS = ("reports", "subchecks", "first_failure", "summary")


def _split(value, floats: list[float], filtered: bool):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        floats.append(value)
        return "<float>"
    if isinstance(value, (list, tuple)):
        return [_split(v, floats, filtered) for v in value]
    if isinstance(value, dict):
        items = sorted(value.items())
        if filtered:
            # witness payloads below a report are kept whole
            items = [(k, v) for k, v in items if k in KEPT_KEYS]
        return {str(k): _split(v, floats, k in NESTED_REPORTS) for k, v in items}
    raise TypeError(f"cannot digest {type(value).__name__}")


def record(doc) -> list:
    """``[digest, floats]`` for one JSON-like output document."""
    floats: list[float] = []
    exact = _split(doc, floats, True)
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return [hashlib.sha256(text.encode()).hexdigest()[:16], floats]


def matches(got: list, want: list) -> bool:
    if got[0] != want[0] or len(got[1]) != len(want[1]):
        return False
    return all(abs(a - b) <= FLOAT_TOLERANCE for a, b in zip(got[1], want[1]))


def run_digest(records: list) -> str:
    """One digest for a whole round, for the log."""
    text = json.dumps([r[0] for r in records])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
