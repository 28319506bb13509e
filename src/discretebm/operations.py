"""Complementing pairs of lattice operations on Z^n and their checkers.

A lattice operation here is a pair of total maps (T-, T+) on Z^n x Z^n
with the complement identity T-(x,y) + T+(x,y) = x + y.  The theorems
verified by this library additionally require two structural properties:

P1, translation equivariance
    T(x+z, y+z) = T(x,y) + z for every shift z.

P2, Knothe monotonicity
    Relative to a declared block decomposition, T is triangular (block i
    of the output depends only on the first i blocks of both arguments)
    and each block section, obtained by freezing the prefixes of both
    arguments, is weakly monotone in each of its two entries under the
    block order.

Every operation this module builds carries the difference map t it is
derived from, T-(x,y) = t(x-y) + y with T+ the complement, so P1 and the
complement identity hold by construction.  Z^n is infinite, so the box
checks (``check_p2``, and ``check_p1`` and ``check_complement`` for a
pair given directly) are sound but incomplete certificates.  ``check_p2``
reads each map once per x - y, as T(x, y) = T(x - y, 0) + y, which the
``check_p1`` scan certifies on the radius-(r+1) box.  Their work grows
with the (2r+3)^(2n) pairs of that box, so a radius whose box holds more
than ``MAX_BOX_PAIRS`` pairs is rejected before any map is evaluated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Callable, Collection

from .errors import DimensionMismatch, DomainError
from .lattice import (
    Decomposition,
    Point,
    basis_point,
    box_points,
    make_decomposition,
    point_add,
    point_sub,
    singleton_decomposition,
)
from .report import VERIFIED, VIOLATED, VerificationReport

PairMap = Callable[[Point, Point], Point]

_KINDS = ("meet_join", "midpoint", "product", "difference_map", "section")

# the default radius 4 in dimension 3 reads 11^6 = 1,771,561 pairs
MAX_BOX_PAIRS = 2_000_000

_BY_CONSTRUCTION = "by construction from the difference map"

@dataclass(frozen=True)
class LatticeOperation:
    """A complementing pair (t_minus, t_plus) with a declared decomposition.

    The maps must be total on Z^dim x Z^dim and are trusted to be pure.
    ``t`` is the difference map they are derived from (see ``_derived``),
    or None for a pair given directly, whose P1 and complement are scanned.
    """

    dim: int
    decomposition: Decomposition
    t_minus: PairMap
    t_plus: PairMap
    kind: str
    t: Callable[[Point], Point] | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DomainError("operation dimension must be >= 1")
        if self.kind not in _KINDS:
            raise DomainError(f"unknown operation kind {self.kind!r}")
        if self.decomposition.total_dim != self.dim:
            raise DimensionMismatch(
                f"decomposition of Z^{self.decomposition.total_dim} does not match operation on Z^{self.dim}"
            )


def _derived(dim: int, decomposition: Decomposition, t: Callable, kind: str) -> LatticeOperation:
    """The operation with difference map t: T-(x,y) = y + t(w) and
    T+(x,y) = x - t(w), w = x - y, with t evaluated once per difference."""
    t = functools.cache(t)

    def t_minus(x: Point, y: Point) -> Point:
        return tuple(map(add, t(tuple(map(sub, x, y))), y))

    def t_plus(x: Point, y: Point) -> Point:
        return tuple(map(sub, x, t(tuple(map(sub, x, y)))))

    return LatticeOperation(dim, decomposition, t_minus, t_plus, kind, t)


def _difference_map(op: LatticeOperation) -> Callable:
    if op.t is None:
        raise DomainError("a pair of maps given directly has no difference map")
    return op.t


def meet_join(dim: int) -> LatticeOperation:
    """Coordinatewise minimum and maximum: t(w) = min(w, 0)."""
    return _derived(
        dim, singleton_decomposition(dim), lambda w: tuple(min(c, 0) for c in w), "meet_join"
    )


def midpoint(dim: int) -> LatticeOperation:
    """Coordinatewise floor and ceiling of the average: t(w) = floor(w/2).

    Floor is toward minus infinity (max {m in Z : m <= r}), matching
    Python's // on negative sums; the ceiling is the complement.
    """
    return _derived(
        dim, singleton_decomposition(dim), lambda w: tuple(c // 2 for c in w), "midpoint"
    )


def product(a: LatticeOperation, b: LatticeOperation) -> LatticeOperation:
    """Blockwise product: ``a`` acts on the first dim(a) coordinates, ``b``
    on the rest; decompositions and difference maps are concatenated."""
    da, ta, tb = a.dim, _difference_map(a), _difference_map(b)
    decomposition = make_decomposition(a.decomposition.blocks + b.decomposition.blocks)
    return _derived(da + b.dim, decomposition, lambda w: ta(w[:da]) + tb(w[da:]), "product")


def from_difference_map(
    dim: int,
    decomposition: Decomposition | None,
    t: Callable[[Point], Point],
) -> LatticeOperation:
    """Operation determined by its single-variable section t(w) = T-(w, 0).

    Translation equivariance forces T-(x,y) = t(x-y) + y, and t_plus is
    the complement, so P1 and the complement identity hold for any t.
    P2 is NOT guaranteed and must be checked against the declared
    decomposition (singleton standard blocks when omitted).
    """
    d = decomposition if decomposition is not None else singleton_decomposition(dim)
    return _derived(dim, d, t, "difference_map")


def block_section(
    op: LatticeOperation, level: int, prefix_x: Point, prefix_y: Point
) -> LatticeOperation:
    """One-block operation obtained by freezing the leading blocks.

    Block ``level`` of T(prefix_x + u + 0, prefix_y + v + 0) is the
    operation with difference map t(p + w + 0)[block], p = prefix_x -
    prefix_y.  For a triangular operation the zero suffix is irrelevant;
    the section of a one-block operation is the operation itself.
    """
    d = op.decomposition
    bdim = d.block_dim(level)
    off = d.offset(level)
    if len(prefix_x) != off or len(prefix_y) != off:
        raise DimensionMismatch(
            f"block {level} expects prefixes of length {off}, got {len(prefix_x)}, {len(prefix_y)}"
        )
    t = _difference_map(op)
    if d.block_count == 1:
        return op
    p = tuple(map(sub, prefix_x, prefix_y))
    suffix = (0,) * (op.dim - off - bdim)
    section = make_decomposition([(bdim, d.order(level))])
    return _derived(bdim, section, lambda w: t(p + w + suffix)[off : off + bdim], "section")


def image_sets(
    op: LatticeOperation, points_a: Collection[Point], points_b: Collection[Point]
) -> tuple[set[Point], set[Point]]:
    """The image sets T-(A, B) and T+(A, B) over all pairs of A x B."""
    minus: set[Point] = set()
    plus: set[Point] = set()
    for x in points_a:
        for y in points_b:
            minus.add(op.t_minus(x, y))
            plus.add(op.t_plus(x, y))
    return minus, plus


@dataclass(frozen=True)
class ExponentQuadruple:
    """Positive rational exponents (alpha, beta, gamma, delta).

    The admissibility condition for every weighted inequality in this
    library is max(alpha, beta) <= min(gamma, delta); gamma always
    weighs the minus-operation image and delta the plus-operation image.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))
        for name in ("alpha", "beta", "gamma", "delta"):
            if getattr(self, name) <= 0:
                raise DomainError(f"exponent {name} must be positive")
        if max(self.alpha, self.beta) > min(self.gamma, self.delta):
            raise DomainError(
                "exponents must satisfy max(alpha, beta) <= min(gamma, delta); "
                f"got ({self.alpha}, {self.beta}, {self.gamma}, {self.delta})"
            )

    @classmethod
    def unit(cls) -> "ExponentQuadruple":
        one = Fraction(1)
        return cls(one, one, one, one)

    @property
    def common_denominator(self) -> int:
        return math.lcm(
            self.alpha.denominator,
            self.beta.denominator,
            self.gamma.denominator,
            self.delta.denominator,
        )

    def integer_exponents(self) -> tuple[int, int, int, int]:
        """(alpha, beta, gamma, delta) * N with N the common denominator.

        Raising both sides of an inequality of rational powers to the N-th
        power turns it into an exact comparison of integer powers.
        """
        n = self.common_denominator
        return (
            int(self.alpha * n),
            int(self.beta * n),
            int(self.gamma * n),
            int(self.delta * n),
        )


# ---------------------------------------------------------------------------
# box checkers


def _check_box_radius(dim: int, box_radius: int) -> None:
    """Reject a radius below 1, or one whose radius-(r+1) box holds more
    than ``MAX_BOX_PAIRS`` pairs."""
    if box_radius < 1:
        raise DomainError("box radius must be >= 1")
    side = 2 * box_radius + 3
    # side >= 5 and 5^10 > MAX_BOX_PAIRS, so ten factors decide the cap
    if side ** min(2 * dim, 10) > MAX_BOX_PAIRS:
        raise DomainError(
            f"box radius {box_radius} in dimension {dim} spans {side}^{2 * dim} pairs; "
            f"box checks scan at most {MAX_BOX_PAIRS}"
        )


def check_complement(op: LatticeOperation, box_radius: int = 4) -> VerificationReport:
    """Check of t_minus + t_plus = x + y: by construction when the operation
    carries its difference map, else exhaustively on the box."""
    _check_box_radius(op.dim, box_radius)
    if op.t is not None:
        return VerificationReport(check="complement", outcome=VERIFIED, detail=_BY_CONSTRUCTION)
    pts = box_points(op.dim, box_radius)
    tm, tp = op.t_minus, op.t_plus
    for x in pts:
        for y in pts:
            total = point_add(x, y)
            if point_add(tm(x, y), tp(x, y)) != total:
                return VerificationReport(
                    check="complement",
                    outcome=VIOLATED,
                    witness={
                        "x": x,
                        "y": y,
                        "t_minus": tm(x, y),
                        "t_plus": tp(x, y),
                        "sum": total,
                    },
                )
    return VerificationReport(
        check="complement", outcome=VERIFIED, detail=f"{len(pts) ** 2} pairs"
    )


def _difference_tables(op: LatticeOperation) -> list[tuple[str, PairMap, Callable]]:
    """Each pair map T with its tag and T(w, 0), evaluated once per difference w."""
    zero = (0,) * op.dim
    return [
        (tag, tmap, functools.cache(lambda w, tmap=tmap: tmap(w, zero)))
        for tag, tmap in (("minus", op.t_minus), ("plus", op.t_plus))
    ]


def check_p1(op: LatticeOperation, box_radius: int = 4) -> VerificationReport:
    """Translation-equivariance check: by construction when the operation
    carries its difference map, else exhaustively on the box.

    The scan checks T(x, y) = T(x - y, 0) + y for both maps at every pair
    of the radius-(r+1) box: it holds every unit or all-ones shift of a
    radius-r pair and every table entry ``check_p2`` reads at radius r.  A
    failure (x, y) is reported with z = -y, so T(x + z, y + z) != T(x, y) + z.
    """
    _check_box_radius(op.dim, box_radius)
    if op.t is not None:
        return VerificationReport(check="p1", outcome=VERIFIED, detail=_BY_CONSTRUCTION)
    pts = box_points(op.dim, box_radius + 1)
    tables = _difference_tables(op)
    for x in pts:
        for y in pts:
            w = tuple(map(sub, x, y))
            for _, tmap, t in tables:
                if tmap(x, y) != tuple(map(add, t(w), y)):
                    return VerificationReport(
                        check="p1",
                        outcome=VIOLATED,
                        witness={"x": x, "y": y, "z": tuple(-c for c in y)},
                    )
    detail = f"{len(pts) ** 2} pairs in the radius-{box_radius + 1} box"
    return VerificationReport(check="p1", outcome=VERIFIED, detail=detail)


def check_p2(op: LatticeOperation, box_radius: int = 4) -> VerificationReport:
    """Blockwise Knothe-monotonicity and triangularity check on the box.

    Relies on P1, T(x, y) = T(x - y, 0) + y, which holds by construction
    or is scanned by ``check_p1`` at the same radius beside it in
    ``check_operation`` and ``verify_dbm``: each map is evaluated once per
    difference w = x - y and every block section is read from that table.
    The section of block i at prefixes (a, b) of the box depends only on
    p = a - b; each p is scanned once, at the first pair (a, b) of the box
    in lexicographic order.  The section maps are scanned along
    consecutive points of the order-sorted block box, once per frozen
    value of the other argument; weak monotonicity of every pair in the
    box then follows by transitivity, and any violation surfaces as a
    consecutive violation.  Triangularity requires block i of the table
    to be unchanged by a unit step in any later coordinate, over the whole
    difference box, at any block count.
    """
    _check_box_radius(op.dim, box_radius)
    n, d = op.dim, op.decomposition
    tables = _difference_tables(op)
    differences = box_points(n, 2 * box_radius)
    for i in range(d.block_count):
        order = d.order(i)
        key = order.key
        lo = d.offset(i)
        hi = lo + d.block_dim(i)
        suffix = (0,) * (n - hi)
        block_pts = order.sorted_points(box_points(hi - lo, box_radius))
        # the first pair of the box with a - b = p has a = max(p, 0) - r
        firsts = sorted(
            (a, point_sub(a, p), p)
            for p in box_points(lo, 2 * box_radius)
            for a in [tuple(max(c, 0) - box_radius for c in p)]
        )
        for a, b, p in firsts:
            for tag, _, t in tables:
                for fixed in block_pts:
                    prev_u = prev = prev_keys = None
                    for u in block_pts:
                        # block i of T(a + u, b + fixed) and of T(a + fixed, b + u)
                        cur = (
                            point_add(t(p + point_sub(u, fixed) + suffix)[lo:hi], fixed),
                            point_add(t(p + point_sub(fixed, u) + suffix)[lo:hi], u),
                        )
                        cur_keys = (key(cur[0]), key(cur[1]))
                        for side in (0, 1):
                            if prev is not None and prev_keys[side] > cur_keys[side]:
                                steps = ((prev_u, u), (fixed, fixed))
                                (x1, x2), (y1, y2) = steps if side == 0 else steps[::-1]
                                return VerificationReport(
                                    check="p2",
                                    outcome=VIOLATED,
                                    witness={
                                        "kind": "monotonicity",
                                        "map": tag,
                                        "block": i + 1,
                                        "prefix_x": a,
                                        "prefix_y": b,
                                        "x1": x1,
                                        "x2": x2,
                                        "y1": y1,
                                        "y2": y2,
                                        "t1": prev[side],
                                        "t2": cur[side],
                                    },
                                )
                        prev_u, prev, prev_keys = u, cur, cur_keys
        # triangularity: block i must ignore coordinates of later blocks
        for tag, _, t in tables:
            for w in differences if hi < n else ():
                for j in range(hi, n):
                    for delta in (1, -1):
                        if t(point_add(w, basis_point(n, j, delta)))[lo:hi] != t(w)[lo:hi]:
                            y = tuple(-(c // 2) for c in w)  # x = w + y: both in the box
                            return VerificationReport(
                                check="p2",
                                outcome=VIOLATED,
                                witness={
                                    "kind": "triangularity",
                                    "map": tag,
                                    "block": i + 1,
                                    "argument": "first",
                                    "x": point_add(w, y),
                                    "y": y,
                                    "coordinate": j + 1,
                                    "delta": delta,
                                },
                            )
    evaluations = sum(t.cache_info().currsize for _, _, t in tables)
    return VerificationReport(check="p2", outcome=VERIFIED, detail=f"{evaluations} evaluations")


def check_operation(op: LatticeOperation, box_radius: int = 4) -> VerificationReport:
    """Run the complement, P1, and P2 checks and aggregate the outcome."""
    subs = (
        check_complement(op, box_radius),
        check_p1(op, box_radius),
        check_p2(op, box_radius),
    )
    bad = next((r for r in subs if not r.ok), None)
    if bad is None:
        return VerificationReport(check="op", outcome=VERIFIED, subchecks=subs)
    return VerificationReport(
        check="op",
        outcome=VIOLATED,
        witness=bad.witness,
        detail=f"{bad.check} failed",
        subchecks=subs,
    )
