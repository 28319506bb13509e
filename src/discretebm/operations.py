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

Every operation is built from its difference map t, T-(x,y) = t(x-y) + y
with T+ the complement, so P1 and the complement identity hold by
construction.  ``t`` must be pure: it is cached, and so are the block
sections built from it, one per (level, prefix difference), kept on the
operation; both caches grow with the distinct differences read.  The
library's checks read t once per support pair per coupling and
operation, and take both images from that value.  Z^n is infinite, so
``check_p2`` is a sound but incomplete certificate on a box; it reads t
once per x - y.  A radius whose radius-r box of pairs holds more than
``MAX_BOX_PAIRS`` pairs is rejected by every check before any map is
evaluated.

Both structure layers run in passes linear in what they read.
``check_p2`` reads t alone, as T+ = x + y - T-: it lists one step set
per block straight from the carry vectors of the block order, at most
k (4r+1)^k steps on a block of dim k, and checks each
prefix difference against it, with one rule for every block dimension;
only a prefix difference that breaks the rule is scanned pair by pair,
to name the witness.  Its triangularity pass reads t on the difference
box once, compares each block's list of values with itself one unit step
on, one slice per run of the box, and reads t off the box only at the
steps out of it; only a block that fails a comparison is scanned step by
step, to name the witness.  ``image_sets`` reads t once per distinct
difference w of A - B; by a stated cost rule it then takes int
arithmetic per pair of A x B or, on dense boxes, a few big-int
operations per w on bitsets, reusing the codes of A, B and A - B when
the images fit the radix of A - B.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, gt, mul, or_, sub
from typing import Callable, Collection, Iterable

from .errors import DimensionMismatch, DomainError
from .lattice import (
    AdditiveTotalOrder,
    Decomposition,
    Point,
    box_points,
    point_add,
    point_sub,
    singleton_decomposition,
)
from .measures import _rational_text
from .report import VERIFIED, VIOLATED, VerificationReport

PairMap = Callable[[Point, Point], Point]

# radius 5 in dimension 3 reads 11^6 = 1,771,561 pairs
MAX_BOX_PAIRS = 2_000_000

# the cost rule of image_sets, fitted to a sweep of 74 shapes in dims 1-3
_BIT_STEP_COST = 6000
_PAIR_STEP_COST = 2000

_BY_CONSTRUCTION = "by construction from the difference map"


@dataclass(frozen=True)
class LatticeOperation:
    """The complementing pair of the difference map t, with a declared
    decomposition: T-(x,y) = y + t(w) and T+(x,y) = x - t(w), w = x - y.

    ``t`` must be total on Z^dim, dim = ``decomposition.total_dim``, and is
    trusted to be pure; it is cached, so each pair map evaluates it once
    per difference.  The block sections :func:`block_section` builds are
    kept on the operation, one per (level, prefix difference).
    """

    decomposition: Decomposition
    t: Callable[[Point], Point]
    t_minus: PairMap = field(init=False, repr=False, compare=False)
    t_plus: PairMap = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = functools.cache(self.t)

        def t_minus(x: Point, y: Point) -> Point:
            return tuple(map(add, t(tuple(map(sub, x, y))), y))

        def t_plus(x: Point, y: Point) -> Point:
            return tuple(map(sub, x, t(tuple(map(sub, x, y)))))

        object.__setattr__(self, "t", t)
        object.__setattr__(self, "t_minus", t_minus)
        object.__setattr__(self, "t_plus", t_plus)
        object.__setattr__(self, "_sections", {})

    @property
    def dim(self) -> int:
        return self.decomposition.total_dim


def meet_join(dim: int) -> LatticeOperation:
    """Coordinatewise minimum and maximum: t(w) = min(w, 0)."""
    return LatticeOperation(singleton_decomposition(dim), lambda w: tuple([min(c, 0) for c in w]))


def midpoint(dim: int) -> LatticeOperation:
    """Coordinatewise floor and ceiling of the average: t(w) = floor(w/2).

    Floor is toward minus infinity (max {m in Z : m <= r}), matching
    Python's // on negative sums; the ceiling is the complement.
    """
    return LatticeOperation(singleton_decomposition(dim), lambda w: tuple([c // 2 for c in w]))


def product(a: LatticeOperation, b: LatticeOperation) -> LatticeOperation:
    """Blockwise product: ``a`` acts on the first dim(a) coordinates, ``b``
    on the rest; decompositions and difference maps are concatenated."""
    da, ta, tb = a.dim, a.t, b.t
    decomposition = Decomposition(a.decomposition.blocks + b.decomposition.blocks)
    return LatticeOperation(decomposition, lambda w: ta(w[:da]) + tb(w[da:]))


def from_difference_map(
    dim: int,
    decomposition: Decomposition | None,
    t: Callable[[Point], Point],
) -> LatticeOperation:
    """Operation determined by its single-variable section t(w) = T-(w, 0).

    Translation equivariance forces T-(x,y) = t(x-y) + y, and t_plus is
    the complement, so P1 and the complement identity hold for any t.
    P2 is NOT guaranteed and must be checked against the declared
    decomposition (singleton standard blocks when omitted), which must
    span Z^dim.
    """
    d = decomposition if decomposition is not None else singleton_decomposition(dim)
    if d.total_dim != dim:
        raise DimensionMismatch(
            f"decomposition of Z^{d.total_dim} does not match operation on Z^{dim}"
        )
    return LatticeOperation(d, t)


def block_section(
    op: LatticeOperation, level: int, prefix_x: Point, prefix_y: Point
) -> LatticeOperation:
    """One-block operation obtained by freezing the leading blocks.

    Block ``level`` of T(prefix_x + u + 0, prefix_y + v + 0) is the
    operation with difference map t(p + w + 0)[block], p = prefix_x -
    prefix_y.  For a triangular operation the zero suffix is irrelevant;
    the section of a one-block operation is the operation itself.

    The section depends only on (level, p), so it is built once per key
    and kept on ``op``: every prefix pair with that difference, in every
    check and every instance that holds ``op``, gets the same object, and
    the section's cached ``t`` stays warm.  Like ``t``'s own cache, this
    grows with the distinct prefix differences read, and relies on ``t``
    being pure.
    """
    d = op.decomposition
    bdim = d.block_dim(level)
    off = d.offset(level)
    if len(prefix_x) != off or len(prefix_y) != off:
        raise DimensionMismatch(
            f"block {level} expects prefixes of length {off}, got {len(prefix_x)}, {len(prefix_y)}"
        )
    if d.block_count == 1:
        return op
    p = tuple(map(sub, prefix_x, prefix_y))
    section = op._sections.get((level, p))
    if section is None:
        suffix = (0,) * (op.dim - off - bdim)
        t = op.t
        section = LatticeOperation(
            Decomposition((d.blocks[level],)), lambda w: t(p + w + suffix)[off : off + bdim]
        )
        op._sections[level, p] = section
    return section


def _images(op: LatticeOperation, pairs: Iterable[tuple[Point, Point]]) -> list[tuple[Point, Point]]:
    """(T-(x, y), T+(x, y)) for each pair, in order: t is read once per
    pair, at w = x - y, and both images y + t(w) and x - t(w) come from
    that one value."""
    t = op.t
    out = []
    for x, y in pairs:
        tw = t(tuple(map(sub, x, y)))
        out.append((tuple(map(add, y, tw)), tuple(map(sub, x, tw))))
    return out


def _bounds(points: Iterable[Point]) -> tuple[Point, Point]:
    """Coordinatewise minimum and maximum of a nonempty point set."""
    columns = list(zip(*points))
    return tuple(map(min, columns)), tuple(map(max, columns))


class _Code:
    """The linear code sum c_i R^i of p - low, for points p of Z^dim; injective
    on any set whose coordinates each spread over less than the radix R."""

    def __init__(self, radix: int, dim: int) -> None:
        self.radix = radix
        self.powers = [radix**i for i in range(dim)]

    def pack(self, points: Iterable[Point], low: Point) -> list[int]:
        """The codes of p - low, in order."""
        powers = self.powers
        offset = sum(map(mul, low, powers))
        return [sum(map(mul, p, powers)) - offset for p in points]

    def unpack(self, codes: Iterable[int], low: Point) -> list[Point]:
        """The points p in [low, low + R) with the given codes of p - low,
        in order."""
        radix, powers, codes = self.radix, self.powers, list(codes)
        # coordinate i is low_i plus the digit (code // R^i) % R
        columns = [[c + r // p % radix for r in codes] for c, p in zip(low, powers)]
        return list(zip(*columns))


def _ones(bits: int) -> list[int]:
    """The positions of the set bits of ``bits``, ascending."""
    return [i for i, b in enumerate(reversed(bin(bits))) if b == "1"]


def _bits_pay(differences: int, radix: int, dim: int, pairs: int) -> bool:
    """The cost rule of :func:`image_sets`."""
    return differences * (radix**dim + _BIT_STEP_COST) <= _PAIR_STEP_COST * pairs


def image_sets(
    op: LatticeOperation, points_a: Collection[Point], points_b: Collection[Point]
) -> tuple[set[Point], set[Point]]:
    """The image sets T-(A, B) and T+(A, B) over all pairs of A x B.

    Points are packed into ints by the linear code sum c_i R^i of their
    offset from a base point.  t is read once on each distinct difference
    w in D = A - B; then one radix R above the coordinate spreads of A - B,
    T-(A, B) and T+(A, B) codes the images for one of two passes:

    - the pair pass: per pair, one lookup of t(w) and two int additions;
    - the bit pass, on bitsets of A and B: Y_w = (A shifted down by the
      code of w) & B is the set of y in B with y + w in A, since the codes
      of x - w and y agree iff every coordinate of x - w - y, which lies
      in (-R, R), is 0.  Shifted up by the code of t(w), Y_w adds y + t(w)
      to T-; by that of w - t(w), it adds x - t(w) to T+.  The set bits
      are decoded once.

    The bit pass is taken iff |D| (R^dim + 6000) <= 2000 |A| |B|: a step
    costs a fixed overhead plus R^dim bits of big-int work, a pair about
    2000.  So it wins on dense boxes, and loses on sparse ones, on
    far-reaching images and on small sets.  When the rule holds already
    with R0, the radix of A - B, for R and R0^dim for |D|, D is listed by
    bits too, as B reflected and shifted by each x, for less than the
    |A| |B| subtractions.  When R = R0, the bit pass takes its codes from
    those already computed: A and B, coded from low_a and high_b, moved by
    the code of high_b - low_b, and the codes of w - low_d, which D is
    listed as.
    """
    if not points_a or not points_b:
        return set(), set()
    dim = op.dim
    pairs = len(points_a) * len(points_b)
    low_a, high_a = _bounds(points_a)
    low_b, high_b = _bounds(points_b)
    spread_a = tuple(map(sub, high_a, low_a))
    spread_b = tuple(map(sub, high_b, low_b))
    spread_d = tuple(map(add, spread_a, spread_b))
    low_d = tuple(map(sub, low_a, high_b))
    code = _Code(1 + max(spread_d), dim)
    codes_a, codes_b = code.pack(points_a, low_a), code.pack(points_b, high_b)
    if _bits_pay(code.radix**dim, code.radix, dim, pairs):
        # B reflected, at the codes of high_b - y, and shifted by each x
        reflected = sum(1 << -c for c in codes_b)
        differences = _ones(functools.reduce(or_, [reflected << x for x in codes_a]))
    else:
        differences = list({x - y for x in codes_a for y in codes_b})
    ws = code.unpack(differences, low_d)
    values = list(map(op.t, ws))
    low_t, high_t = _bounds(values)
    spread_t = tuple(map(sub, high_t, low_t))
    radix = 1 + max(map(max, spread_d, map(add, map(max, spread_a, spread_b), spread_t)))
    image_code = _Code(radix, dim)
    t_codes = image_code.pack(values, low_t)
    if _bits_pay(len(ws), radix, dim, pairs):
        # x at the code of x - low_d - low_b, moved by s to that of x - w - low_b
        kb, kt = image_code.pack([spread_b, spread_t], (0,) * dim)
        if radix == code.radix:
            # low_d + low_b = low_a - spread_b and low_b = high_b - spread_b
            bits_a = sum(1 << c for c in codes_a) << kb
            bits_b = sum(1 << c + kb for c in codes_b)
            shifts = differences
        else:
            bits_a = sum(1 << c for c in image_code.pack(points_a, tuple(map(add, low_d, low_b))))
            bits_b = sum(1 << c for c in image_code.pack(points_b, low_b))
            shifts = image_code.pack(ws, low_d)
        minus_bits = plus_bits = 0
        for s, c in zip(shifts, t_codes):
            both = bits_a >> s & bits_b
            minus_bits |= both << c
            plus_bits |= both << s + kt - c
        minus, plus = _ones(minus_bits), _ones(plus_bits >> kb)
    else:
        t_code = dict(zip(differences, t_codes))
        image_a = image_code.pack(points_a, tuple(map(sub, low_a, spread_t)))
        image_b = image_code.pack(points_b, low_b)
        minus, plus = set(), set()
        for x, image_x in zip(codes_a, image_a):
            row = [t_code[x - y] for y in codes_b]
            minus.update(map(add, image_b, row))
            plus.update([image_x - c for c in row])
    return (
        set(image_code.unpack(minus, tuple(map(add, low_b, low_t)))),
        set(image_code.unpack(plus, tuple(map(sub, low_a, high_t)))),
    )


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
    common_denominator: int = field(init=False, repr=False, compare=False)
    _integer: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = ("alpha", "beta", "gamma", "delta")
        for name in names:
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))
        values = (self.alpha, self.beta, self.gamma, self.delta)
        # denominators are positive, so the numerators over the common
        # denominator n have the signs and the order of the exponents
        n = math.lcm(*[v.denominator for v in values])
        integer = tuple([v.numerator * (n // v.denominator) for v in values])
        for name, k in zip(names, integer):
            if k <= 0:
                raise DomainError(f"exponent {name} must be positive")
        a, b, c, d = integer
        if max(a, b) > min(c, d):
            raise DomainError(
                "exponents must satisfy max(alpha, beta) <= min(gamma, delta); "
                f"got ({', '.join(map(_rational_text, values))})"
            )
        object.__setattr__(self, "common_denominator", n)
        object.__setattr__(self, "_integer", integer)

    @classmethod
    def unit(cls) -> "ExponentQuadruple":
        one = Fraction(1)
        return cls(one, one, one, one)

    def integer_exponents(self) -> tuple[int, int, int, int]:
        """(alpha, beta, gamma, delta) * N with N the common denominator.

        Raising both sides of an inequality of rational powers to the N-th
        power turns it into an exact comparison of integer powers.
        """
        return self._integer


# ---------------------------------------------------------------------------
# box checkers


def _check_box_radius(dim: int, box_radius: int) -> None:
    """Reject a radius below 1, or one whose radius-r box of pairs holds
    more than ``MAX_BOX_PAIRS`` pairs.

    The cap bounds the box a certificate speaks for, not the work of a
    verified check: ``check_p2`` reads t on the (4r+1)^n differences of
    the box (and the triangularity neighbours), and only its witness scan
    of a broken prefix difference grows with pairs, |block box|^2 of them.
    """
    if box_radius < 1:
        raise DomainError("box radius must be >= 1")
    side = 2 * box_radius + 1
    # side >= 3 and 3^14 > MAX_BOX_PAIRS, so fourteen factors decide the cap
    if side ** min(2 * dim, 14) > MAX_BOX_PAIRS:
        raise DomainError(
            f"box radius {box_radius} in dimension {dim} spans {side}^{2 * dim} pairs; "
            f"box checks scan at most {MAX_BOX_PAIRS}"
        )


def _by_construction(check: str, op: LatticeOperation, box_radius: int) -> VerificationReport:
    _check_box_radius(op.dim, box_radius)
    return VerificationReport(check=check, outcome=VERIFIED, detail=_BY_CONSTRUCTION)


def check_complement(op: LatticeOperation, box_radius: int = 4) -> VerificationReport:
    """t_minus + t_plus = x + y, which holds by construction from the
    difference map; only the radius is checked."""
    return _by_construction("complement", op, box_radius)


def check_p1(op: LatticeOperation, box_radius: int = 4) -> VerificationReport:
    """Translation equivariance, which holds by construction from the
    difference map; only the radius is checked."""
    return _by_construction("p1", op, box_radius)


def _scan_section(
    t, order: AdditiveTotalOrder, r: int, a: Point, b: Point, suffix: Point, lo: int, hi: int
) -> dict:
    """The witness fields of the first consecutive violation of T- at the
    prefixes (a, b); ``check_p2`` calls it only where one exists.

    The section of T- is scanned along consecutive points of the
    order-sorted block box, in each argument, once per frozen value of the
    other.  T+ needs no scan of its own: T+ = x + y - T- is monotone in
    one argument iff T- is monotone in the other.
    """
    p = point_sub(a, b)
    key = order.key
    block_pts = order.sorted_points(box_points(order.dim, r))
    for fixed in block_pts:
        prev_u = prev = prev_keys = None
        for u in block_pts:
            # block i of T-(a + u, b + fixed) and of T-(a + fixed, b + u)
            cur = (
                point_add(t(p + point_sub(u, fixed) + suffix)[lo:hi], fixed),
                point_add(t(p + point_sub(fixed, u) + suffix)[lo:hi], u),
            )
            cur_keys = (key(cur[0]), key(cur[1]))
            for side in (0, 1):
                if prev is not None and prev_keys[side] > cur_keys[side]:
                    steps = ((prev_u, u), (fixed, fixed))
                    (x1, x2), (y1, y2) = steps if side == 0 else steps[::-1]
                    return {
                        "prefix_x": a,
                        "prefix_y": b,
                        "x1": x1,
                        "x2": x2,
                        "y1": y1,
                        "y2": y2,
                        "t1": prev[side],
                        "t2": cur[side],
                    }
            prev_u, prev, prev_keys = u, cur, cur_keys
    raise AssertionError("a step of the section decreases, so a consecutive pair does")


def _block_steps(order: AdditiveTotalOrder, r: int) -> tuple[list[int], list[int]]:
    """The step set of a block with ``order`` at radius r, as (tail, head)
    index pairs into the lexicographic difference box [-2r, 2r]^k.

    A step is (u - v, u' - v) with u, u' consecutive in the order-sorted
    block box [-r, r]^k and v in the box.  In key coordinates the
    successor of u adds the carry vector c_j = e_j - 2r (e_{j+1} + ... +
    e_k) of the last slot j where the key of u is below r.  Those u form
    the sub-box with slot j in [-r, r - 1], the later slots at r and the
    earlier ones free, so the tails u - v of carry j fill the box with key
    slots [-2r, 2r] before j, [-2r, 2r - 1] at j and [0, 2r] after it, and
    are listed straight from it.  Steps of distinct carries differ, so no
    step is listed twice: carry j has (4r+1)^(j-1) 4r (2r+1)^(k-j) steps.
    """
    k = order.dim
    side = 4 * r + 1
    # the index of a difference w is sum_i (w_i + 2r) side^(k-1-i), and key
    # slot s holds sign_s w_(perm_s), so the index is linear in the key
    weights = [sign * side ** (k - p) for p, sign in zip(order.perm, order.signs)]
    centre = 2 * r * sum(side**i for i in range(k))
    spans = (range(-2 * r, 2 * r + 1), range(-2 * r, 2 * r), range(2 * r + 1))
    tails: list[int] = []
    heads: list[int] = []
    for j in range(k):
        starts = [centre]
        for s, weight in enumerate(weights):
            span = spans[0 if s < j else 1 if s == j else 2]
            starts = [c + weight * v for c in starts for v in span]
        shift = weights[j] - 2 * r * sum(weights[j + 1 :])
        tails += starts
        heads += [c + shift for c in starts]
    return tails, heads


def _triangularity_break(t, differences: list[Point], lo: int, hi: int, r: int) -> dict | None:
    """The first break of triangularity of block [lo, hi) of t, or None.

    ``differences`` is the lexicographic difference box [-2r, 2r]^n, and
    ``rows[k]`` below is t(w)[lo:hi] at its k-th point w.  The block must
    be unchanged by every unit step in a later coordinate from a point of
    the box, also by the steps out of it.  A step in coordinate j moves
    the index by s = (4r+1)^(n-1-j), within a run of s (4r+1) indices
    that agree before j; in a run, index k below its last s pairs with
    k + s.  So the in-box steps of a run are one comparison of two slices,
    and t is read only at the outward steps, from the faces w_j = 2r and
    w_j = -2r: the same differences a scan step by step reads.  Only a
    block that fails a comparison is scanned so, in box order, to name
    its first break.
    """
    n = len(differences[0])
    side = 4 * r + 1
    rows = [t(w)[lo:hi] for w in differences]
    for j in range(hi, n):
        s = side ** (n - 1 - j)
        run = s * side
        for start in range(0, len(rows), run):
            end = start + run
            if rows[start : end - s] != rows[start + s : end] or any(
                rows[face] != [t(w[:j] + (w[j] + delta,) + w[j + 1 :])[lo:hi] for w in differences[face]]
                for face, delta in ((slice(end - s, end), 1), (slice(start, start + s), -1))
            ):
                return _first_break(differences, t, lo, hi)
    return None


def _first_break(differences: list[Point], t, lo: int, hi: int) -> dict:
    """The witness fields of the first unit step, in box order, that
    changes block [lo, hi) of t; :func:`_triangularity_break` calls it
    only where one exists."""
    n = len(differences[0])
    for w in differences:
        base = t(w)[lo:hi]
        for j in range(hi, n):
            head, wj, tail = w[:j], w[j], w[j + 1 :]
            for delta in (1, -1):
                if t(head + (wj + delta,) + tail)[lo:hi] != base:
                    y = tuple(-(c // 2) for c in w)  # x = w + y: both in the box
                    return {"x": point_add(w, y), "y": y, "coordinate": j + 1, "delta": delta}
    raise AssertionError("a unit step changes the block, so a first one does")


def check_p2(op: LatticeOperation, box_radius: int = 4) -> VerificationReport:
    """Blockwise Knothe-monotonicity and triangularity check on the box.

    T-(x, y) = y + t(x - y) and T+ = x + y - T-, so the check reads t
    alone, through a cache of its own, once per difference; the verified
    detail counts 2 evaluations (one per map) per difference read.  The
    section of block i at prefixes (a, b) of the box depends only on
    p = a - b; each p is checked once, at the first pair (a, b) of the
    box in lexicographic order.

    Each block has one step set, listed once by :func:`_block_steps`: the
    pairs (u - v, u' - v) with u, u' consecutive in the order-sorted block
    box and v in the box.  Its endpoints fill the difference box
    [-2r, 2r]^k; on a 1-dim block it is the 4r unit steps of [-2r, 2r].
    The section maps at p are monotone on the box iff the block keys of
    t(w) and of w - t(w), at w = p + d + 0, do not decrease across any
    step (d, d'): a step of t is one of T- in its first argument, and,
    the box being symmetric, a step of w - t(w) is one of T- in its
    second; T+ is monotone in one argument iff T- is in the other.  Only a p that breaks the rule is
    scanned, by :func:`_scan_section`, to name the witness.

    Triangularity requires block i of t to be unchanged by a unit step in
    any later coordinate, over the whole difference box, at any block
    count; block i of w - t(w) then is too.  t is read on the box once,
    and block i of every value is checked by :func:`_triangularity_break`
    with slice comparisons; t is read off the box only at the steps out
    of it, so the detail counts the same differences as a scan of every
    step would.
    """
    _check_box_radius(op.dim, box_radius)
    n, d = op.dim, op.decomposition
    t = functools.cache(op.t)
    differences = box_points(n, 2 * box_radius)
    for i in range(d.block_count):
        order = d.order(i)
        key = order.key
        lo = d.offset(i)
        hi = lo + d.block_dim(i)
        suffix = (0,) * (n - hi)
        block_differences = box_points(hi - lo, 2 * box_radius)
        tails, heads = _block_steps(order, box_radius)
        # the first pair of the box with a - b = p has a = max(p, 0) - r
        firsts = sorted(
            (a, point_sub(a, p), p)
            for p in box_points(lo, 2 * box_radius)
            for a in [tuple(max(c, 0) - box_radius for c in p)]
        )
        for a, b, p in firsts:
            rows = [t(p + w + suffix)[lo:hi] for w in block_differences]
            minus_keys = list(map(key, rows))
            plus_keys = [key(tuple(map(sub, w, row))) for w, row in zip(block_differences, rows)]
            for keys in (minus_keys, plus_keys):
                if any(map(gt, map(keys.__getitem__, tails), map(keys.__getitem__, heads))):
                    return VerificationReport(
                        check="p2",
                        outcome=VIOLATED,
                        witness={
                            "kind": "monotonicity",
                            "map": "minus",
                            "block": i + 1,
                            **_scan_section(t, order, box_radius, a, b, suffix, lo, hi),
                        },
                    )
        broken = _triangularity_break(t, differences, lo, hi, box_radius) if hi < n else None
        if broken is not None:
            return VerificationReport(
                check="p2",
                outcome=VIOLATED,
                witness={"kind": "triangularity", "map": "minus", "block": i + 1, "argument": "first", **broken},
            )
    evaluations = 2 * t.cache_info().currsize
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
