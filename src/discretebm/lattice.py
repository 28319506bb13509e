"""Points of Z^n, additive total orders, and block decompositions.

Points are plain tuples of Python ints, so they hash, compare, and store
exactly at any magnitude.  An additive total order is a total order
preserved by translation: x < y implies x + z < y + z for every z.  The
orders implemented here compare the sign-adjusted, permuted coordinate
tuple of a point lexicographically.  Every such order has a computable
minimal positive element (the signed basis vector of the last compared
coordinate), which the coupling arithmetic relies on; additive orders
without a successor, such as irrational linear functionals, are out of
scope.

A decomposition splits Z^n into an ordered list of blocks Z^{d_1} x ... x
Z^{d_k}, each carrying its own order.  Triangular operations and Knothe
couplings are defined relative to a decomposition; block i occupies the
coordinates ``offset(i)`` to ``offset(i) + block_dim(i)`` of a point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import accumulate
from itertools import product as _cartesian
from typing import Iterable

from .errors import DimensionMismatch, DomainError, _brief

Point = tuple[int, ...]


def as_point(value, dim: int | None = None) -> Point:
    """Coerce an int (dimension 1) or an iterable of ints to a point.

    A tuple of plain ints of dimension ``dim`` is returned as it is, and a
    list of them as its tuple.
    """
    if type(value) is list:
        value = tuple(value)
    if type(value) is tuple and value and len(value) == dim:
        for c in value:
            if type(c) is not int:
                break
        else:
            return value
    if isinstance(value, int) and not isinstance(value, bool):
        pt: Point = (value,)
    else:
        try:
            pt = tuple(value)
        except TypeError:
            raise DomainError(f"cannot interpret {_brief(value)} as a point") from None
        for c in pt:
            if not isinstance(c, int) or isinstance(c, bool):
                raise DomainError(f"point coordinates must be integers, got {_brief(c)}")
    if not pt:
        raise DomainError("points must have dimension >= 1")
    if dim is not None and len(pt) != dim:
        raise DimensionMismatch(f"expected a point of dimension {dim}, got {len(pt)}")
    return pt


def point_add(x: Point, y: Point) -> Point:
    if len(x) != len(y):
        raise DimensionMismatch(f"cannot add points of dimensions {len(x)} and {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def point_sub(x: Point, y: Point) -> Point:
    if len(x) != len(y):
        raise DimensionMismatch(f"cannot subtract points of dimensions {len(x)} and {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


def zero_point(dim: int) -> Point:
    return (0,) * dim


def basis_point(dim: int, index: int, sign: int = 1) -> Point:
    coords = [0] * dim
    coords[index] = sign
    return tuple(coords)


def box_points(dim: int, radius: int) -> list[Point]:
    """All points of [-radius, radius]^dim in ascending lexicographic order."""
    if radius < 0:
        raise DomainError("box radius must be nonnegative")
    rng = range(-radius, radius + 1)
    return list(_cartesian(rng, repeat=dim))


class Ordering(enum.Enum):
    """Result of a three-way comparison."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True)
class AdditiveTotalOrder:
    """Signed-permutation lexicographic order on Z^dim.

    ``perm`` lists, 1-based, the source coordinate compared at each slot;
    ``signs`` flips the orientation of the matching slot.  x precedes y
    exactly when ``key(x)`` precedes ``key(y)`` in the ordinary tuple
    order.  Additivity is immediate: the key map is linear.  The plain
    lexicographic order (identity permutation, all signs +1) is recorded
    once: its key of a tuple is the tuple itself, and it sorts points,
    which are tuples, with plain ``sorted``.
    """

    dim: int
    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError("order dimension must be >= 1")
        if len(self.perm) != self.dim or sorted(self.perm) != list(range(1, self.dim + 1)):
            raise DomainError(f"perm must be a permutation of 1..{self.dim}, got {self.perm}")
        if len(self.signs) != self.dim or any(s not in (-1, 1) for s in self.signs):
            raise DomainError(f"signs must be a +-1 sequence of length {self.dim}")
        plain = tuple(self.perm) == tuple(range(1, self.dim + 1)) and all(
            s == 1 for s in self.signs
        )
        object.__setattr__(self, "_plain", plain)

    def key(self, x: Point) -> tuple[int, ...]:
        """Comparison key: permuted, sign-adjusted coordinates of ``x``."""
        if self._plain and type(x) is tuple:
            return x
        return tuple(s * x[p - 1] for p, s in zip(self.perm, self.signs))

    def compare(self, x: Point, y: Point) -> Ordering:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch(
                f"order on Z^{self.dim} cannot compare points of dimensions {len(x)}, {len(y)}"
            )
        kx, ky = self.key(x), self.key(y)
        if kx < ky:
            return Ordering.LESS
        if kx > ky:
            return Ordering.GREATER
        return Ordering.EQUAL

    def leq(self, x: Point, y: Point) -> bool:
        return self.compare(x, y) is not Ordering.GREATER

    def unit(self) -> Point:
        """The minimal element strictly greater than 0.

        The least positive comparison key is (0, ..., 0, 1), so the unit
        is the signed basis vector of the last compared coordinate.
        """
        return basis_point(self.dim, self.perm[-1] - 1, self.signs[-1])

    def sorted_points(self, points: Iterable[Point]) -> list[Point]:
        if self._plain:
            return sorted(points)
        return sorted(points, key=self.key)


def standard_order(dim: int) -> AdditiveTotalOrder:
    """Plain lexicographic order: identity permutation, all signs +1."""
    return AdditiveTotalOrder(dim, tuple(range(1, dim + 1)), (1,) * dim)


@dataclass(frozen=True)
class Decomposition:
    """Ordered block structure Z^n = Z^{d_1} x ... x Z^{d_k}.

    Block i carries its own additive total order of matching dimension.
    """

    blocks: tuple[tuple[int, AdditiveTotalOrder], ...]
    # offsets[i] is the start index of block i; offsets[-1] is the total dim
    _offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.blocks:
            raise DomainError("a decomposition needs at least one block")
        for bdim, order in self.blocks:
            if bdim < 1:
                raise DomainError("block dimensions must be positive")
            if order.dim != bdim:
                raise DimensionMismatch(
                    f"block of dimension {bdim} paired with an order on Z^{order.dim}"
                )
        offsets = tuple(accumulate((bdim for bdim, _ in self.blocks), initial=0))
        object.__setattr__(self, "_offsets", offsets)

    @property
    def total_dim(self) -> int:
        return self._offsets[-1]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def offset(self, i: int) -> int:
        """Start index of block ``i`` inside a full coordinate tuple."""
        return self._offsets[i]

    def order(self, i: int) -> AdditiveTotalOrder:
        return self.blocks[i][1]

    def block_dim(self, i: int) -> int:
        return self.blocks[i][0]


def singleton_decomposition(dim: int) -> Decomposition:
    """dim blocks of size 1, each with the standard order on Z."""
    one = standard_order(1)
    return Decomposition(tuple((1, one) for _ in range(dim)))
