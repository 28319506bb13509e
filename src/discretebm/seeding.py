"""Counter-based derivation of random streams from one 64-bit seed.

Stream ``j`` of master seed ``s`` is an independent ``random.Random``
seeded with a mixed 64-bit value, so any instance of a batch can be
regenerated in isolation and parallel runs reproduce serial output
bit for bit.  :func:`check_seed` rejects a seed outside [0, 2^64), which
:func:`mix64` would alias to one inside, with :class:`DomainError`;
:func:`stream` and every reader of a seed call it.
"""

from __future__ import annotations

import random

from .errors import DomainError, _brief

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(seed: int, counter: int) -> int:
    """SplitMix64-style finalizer of seed advanced by ``counter`` steps."""
    z = (seed + (counter + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> int:
    """``seed``, if it lies in [0, 2^64)."""
    if not 0 <= seed <= _MASK64:
        raise DomainError(f"seed must lie in [0, 2^64), got {_brief(seed)}")
    return seed


def stream(seed: int, counter: int) -> random.Random:
    """Independent deterministic RNG for stream ``counter`` of ``seed``."""
    return random.Random(mix64(check_seed(seed), counter))
