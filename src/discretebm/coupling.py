"""Monotone (quantile) couplings, Knothe couplings, and fiber structure.

The monotone coupling of two finitely supported probability measures on
an ordered block pairs equal quantiles.  It is built deterministically:
sort both supports by the order, form the half-open quantile intervals
[F(previous), F(x)) of each atom, and give the pair (x, y) the exact
length of the overlap of their intervals.  No sampling happens anywhere;
half-open intervals make breakpoint ties unambiguous.  The support of
the result is a chain in the product order and has at most
|supp mu| + |supp nu| - 1 atoms.

The Knothe coupling relative to a block decomposition couples the first
block marginals monotonically, then recurses on the conditional measures
of each support prefix pair, block by block in decomposition order.

Which couplings are certified.  Certifying a coupling means requiring
its exact projections to equal its declared marginals; the
:class:`Coupling` constructor does it, after validating every atom, and
is the only place that does.  Certified are every coupling a caller or
:mod:`discretebm.jsonio` constructs, :func:`monotone_coupling`,
:func:`product_coupling`, the coupling :func:`knothe_coupling` assembles
(on one block also the monotone coupling it is assembled from), and
level 0 of a walk that :func:`iter_conditional_couplings` groups (on one
block, the coupling itself).  :meth:`Coupling._trusted` checks nothing
and builds the two other kinds of coupling, whose marginals hold by
construction: the walk of a multi-block Knothe build, which is the
construction of the certified coupling (each entry is the quantile merge
of the two conditionals it declares, and the assembled coupling is the
product of those merges along each prefix path), built from the kept
merges when the walk is first read; and the levels below 0 of a grouped
walk, whose declared marginals are their own projections, summed in the
pass that sums their weights.

A coupling stores its weights in the form of a measure (see
:mod:`discretebm.measures`): integer numerators keyed by (x, y) over one
denominator, in lowest terms, so certification is plain equality of a
projection's fields with a marginal's.  The builders of this module pass
integer numerators with the constructor's ``den`` keyword and build no
``Fraction``; plain integer atoms are validated and projected in one
pass, and any other input is coerced entry by entry as a measure's is.
Marginals and pushforwards are summed on those integers and built as
trusted measures.  Two things are computed once and kept on a coupling,
so that the transport, pointwise and fiber checks share them: its walk
of conditional block couplings per decomposition, built on first read,
and the images (T-(x, y), T+(x, y)) of its support under the last
difference map read, one read of ``t`` per support pair.

For a coupling and a complementing operation pair,
:func:`check_fiber_structure` verifies the following shape claims about
the fibers S(a) = {(x, y) in supp pi : T(x, y) = a} of a monotone
coupling on one ordered block.  On a single block it checks the coupling
itself; on several it checks every conditional block coupling of two or
more pairs against the operation's block section at the same prefixes
(one section object per prefix difference, kept on the operation).  Both
fiber groupings and the clauses below read the kept support images:

* every fiber has at most two elements;
* a two-element fiber is {(x0, y0), (x0, y0+u)} or {(x0, y0), (x0+u, y0)}
  with u the minimal positive element of the order.  x + y moves by u
  across such a fiber, so by T- + T+ = x + y the complementary map moves
  by exactly u too; that needs no check of its own;
* whenever the minus- and plus-fibers through a support pair both have
  two elements they are aligned: each element of one lies within a
  diagonal unit step of an element of the other.

The claims are checked, not assumed, because they are not theorems for
every monotone pair: the cardinality clause holds for strictly
sum-monotone pairs such as the floor/ceiling average (distinct chain
pairs have distinct coordinate sums, and each fiber covers at most two
consecutive sums) but fails for min/max, where min(x, y) ignores however
far y rises above x; the alignment clause can fail even for the
floor-average pair when both fibers step in the same argument.
Violations are reported with the offending fiber as witness.

Point-mass blocks are counted and not evaluated.  A one-pair block has
single-pair fibers, which break no clause.  If the block conditionals of
mu and nu (not only the block coupling) are point masses, so are the
coupling and its pushforwards, and the term is 1^c 1^d / (1^a 1^b) = 1.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptySupportError,
    InvalidWeightError,
    MarginalMismatch,
    _brief,
)
from .lattice import (
    AdditiveTotalOrder,
    Decomposition,
    Point,
    as_point,
    point_add,
    point_sub,
    zero_point,
)
from .measures import (
    ZERO,
    ProbabilityMeasure,
    _check_den,
    _exact_weights,
    _rational_text,
    _reduced,
)
from .operations import LatticeOperation, _images, block_section
from .report import INAPPLICABLE, VERIFIED, VIOLATED, VerificationReport


class Coupling:
    """Probability measure on Z^n x Z^n with certified marginals.

    Atom keys are (x, y) pairs, stored in ascending order of the
    concatenated coordinates; the weight of a pair is
    ``_atoms[(x, y)] / _den`` in lowest terms.  The constructor validates
    every atom and requires both projections to equal the declared
    marginals exactly (:class:`MarginalMismatch` otherwise), which must be
    :class:`ProbabilityMeasure` instances (:class:`DomainError`
    otherwise).  Each weight in ``atoms`` is read as a multiple of
    ``1/den``, a positive int.  The module docstring says which couplings
    are certified.
    """

    __slots__ = ("dim", "_atoms", "_den", "left", "right", "_conditionals", "_images")

    def __init__(
        self,
        dim: int,
        atoms,
        left: ProbabilityMeasure,
        right: ProbabilityMeasure,
        *,
        den: int = 1,
    ):
        if not (isinstance(left, ProbabilityMeasure) and isinstance(right, ProbabilityMeasure)):
            raise DomainError("the marginals of a coupling must be probability measures")
        if left.dim != dim or right.dim != dim:
            raise DimensionMismatch("marginals must live on Z^dim of the coupling")
        _check_den(den)
        entries = list(atoms.items() if hasattr(atoms, "items") else atoms)
        plain = _plain_pairs(entries, dim)
        if plain is None:
            nums, wden = _exact_weights(entries, lambda pair: _as_pair(pair, dim), den)
            den *= wden
            plain = nums, _pair_projection(nums.items(), 0), _pair_projection(nums.items(), 1)
        nums, xs, ys = plain
        if not nums:
            raise EmptySupportError("coupling has empty support")
        self._store(dim, nums, den, left, right)
        total = sum(xs.values())
        if total != den:
            raise InvalidWeightError(
                f"coupling must have total mass 1, got {_rational_text(Fraction(total, den))}"
            )
        for declared, projection in ((left, xs), (right, ys)):
            projected, pden = _reduced(projection, den)
            if pden != declared._den or projected != declared._atoms:
                raise MarginalMismatch("coupling projections do not match declared marginals")

    @classmethod
    def _trusted(
        cls,
        dim: int,
        nums: dict[tuple[Point, Point], int],
        den: int,
        left: ProbabilityMeasure,
        right: ProbabilityMeasure,
    ):
        """Coupling of weights nums[(x, y)] / den with the declared
        marginals ``left`` and ``right``; nothing is checked.

        ``nums`` maps pairs of points of Z^dim to positive integers, in any
        order and not necessarily in lowest terms.  Only this module calls
        it, on the couplings its docstring names as trusted.
        """
        pi = cls.__new__(cls)
        pi._store(dim, nums, den, left, right)
        return pi

    def _store(self, dim: int, nums: dict, den: int, left, right) -> None:
        nums, den = _reduced(nums, den)
        self.dim = dim
        self._atoms = {k: nums[k] for k in sorted(nums)}
        self._den = den
        self.left = left
        self.right = right
        self._conditionals = None
        self._images = {}

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coupling):
            return NotImplemented
        return (
            self.dim == other.dim and self._den == other._den and self._atoms == other._atoms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Coupling(dim={self.dim}, atoms={len(self._atoms)})"

    def items(self) -> Iterator[tuple[tuple[Point, Point], Fraction]]:
        den = self._den
        return ((pair, Fraction(n, den)) for pair, n in self._atoms.items())

    def support(self) -> list[tuple[Point, Point]]:
        return list(self._atoms)

    def weight_at(self, x, y) -> Fraction:
        """Exact weight of the pair (x, y) (0 off the support)."""
        n = self._atoms.get((as_point(x, self.dim), as_point(y, self.dim)))
        return ZERO if n is None else Fraction(n, self._den)

    def marginal(self, side: str) -> ProbabilityMeasure:
        """Exact projection onto the first or second factor."""
        if side not in ("first", "second"):
            raise DomainError(f"side must be 'first' or 'second', got {side!r}")
        projected = _pair_projection(self._atoms.items(), side == "second")
        return ProbabilityMeasure._trusted(self.dim, projected, self._den)

    def pushforward_by(self, pair_map) -> ProbabilityMeasure:
        """Image measure under a map (x, y) -> point of Z^m.

        ``pair_map`` must send support pairs to integer points, as the maps
        of a :class:`LatticeOperation` do; its images are not re-validated.
        """
        out: dict[Point, int] = {}
        out_dim = None
        for (x, y), n in self._atoms.items():
            z = tuple(pair_map(x, y))
            if out_dim is None:
                out_dim = len(z)
            elif len(z) != out_dim:
                raise DimensionMismatch("pair map produced points of mixed dimension")
            out[z] = out.get(z, 0) + n
        assert out_dim is not None
        return ProbabilityMeasure._trusted(out_dim, out, self._den)


def _as_pair(pair, dim: int) -> tuple[Point, Point]:
    try:
        x, y = pair
    except (TypeError, ValueError):
        raise DomainError(f"cannot interpret {_brief(pair)} as a pair of points") from None
    return as_point(x, dim), as_point(y, dim)


def _plain_pairs(entries: list, dim: int) -> tuple[dict, dict, dict] | None:
    """The integer weights of ``entries`` summed by (x, y), by x and by y,
    in one pass, if every entry is plain: ((x, y), n) with x and y tuples
    of ``dim`` ints and n a nonnegative int; zero weights are dropped.
    None if any entry is not plain, so that it goes through the
    coercing path and its checks."""
    nums: dict[tuple[Point, Point], int] = {}
    xs: dict[Point, int] = {}
    ys: dict[Point, int] = {}
    try:
        # only the unpacking of an entry or of its key can raise
        for pair, n in entries:
            x, y = pair
            if not (
                type(pair) is tuple
                and type(x) is tuple
                and type(y) is tuple
                and len(x) == dim
                and len(y) == dim
                and type(n) is int
                and n >= 0
            ):
                return None
            for c in x:
                if type(c) is not int:
                    return None
            for c in y:
                if type(c) is not int:
                    return None
            if n:
                nums[pair] = nums.get(pair, 0) + n
                xs[x] = xs.get(x, 0) + n
                ys[y] = ys.get(y, 0) + n
    except (TypeError, ValueError):
        return None
    return nums, xs, ys


def _pair_projection(weighted_pairs, side: int) -> dict[Point, int]:
    """Sum integer weights of ((x, y), n) items by x (side 0) or y (side 1)."""
    out: dict[Point, int] = {}
    for pair, n in weighted_pairs:
        p = pair[side]
        out[p] = out.get(p, 0) + n
    return out


def _quantile_merge(
    mu: ProbabilityMeasure, nu: ProbabilityMeasure, order: AdditiveTotalOrder
) -> tuple[dict[tuple[Point, Point], int], int]:
    """The quantile coupling of mu and nu as integer numerators over L.

    Returns (atoms, L), where L is the least common multiple of both
    measures' denominators and atoms[(x, y)] / L is the mass of (x, y).
    The pairs are inserted in chain order: each coordinate is
    nondecreasing along ``order`` from one pair to the next.
    """
    den = math.lcm(mu._den, nu._den)
    a, b = mu._atoms, nu._atoms
    # the stored support is already in the plain order
    xs = iter(a if order._plain else order.sorted_points(a))
    ys = iter(b if order._plain else order.sorted_points(b))
    sx, sy = den // mu._den, den // nu._den
    x, y = next(xs), next(ys)
    # the cumulative masses up to and including x and y, over den
    cx, cy = a[x] * sx, b[y] * sy
    atoms: dict[tuple[Point, Point], int] = {}
    prev = 0
    while True:
        cut = cx if cx < cy else cy
        atoms[(x, y)] = cut - prev
        if cut == den:
            return atoms, den
        prev = cut
        if cx == cut:
            x = next(xs)
            cx += a[x] * sx
        if cy == cut:
            y = next(ys)
            cy += b[y] * sy


def monotone_coupling(
    mu: ProbabilityMeasure, nu: ProbabilityMeasure, order: AdditiveTotalOrder
) -> Coupling:
    """Quantile coupling of mu and nu with respect to ``order``.

    Mass of (x_i, y_j) is the exact overlap length of their half-open
    cumulative intervals, computed by one merge over the supports in
    ``order`` with two running integer sums over L, the least common
    multiple of both measures' denominators.  The coupling is built from
    the merged numerators over L and certified.
    """
    if mu.dim != nu.dim or order.dim != mu.dim:
        raise DimensionMismatch(
            f"measures on Z^{mu.dim}, Z^{nu.dim} and order on Z^{order.dim} do not agree"
        )
    atoms, den = _quantile_merge(mu, nu, order)
    return Coupling(mu.dim, atoms, mu, nu, den=den)


def product_coupling(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> Coupling:
    """Independent coupling mu (x) nu; useful as a negative control."""
    if mu.dim != nu.dim:
        raise DimensionMismatch("product coupling needs marginals of equal dimension")
    atoms = {(x, y): wx * wy for x, wx in mu._atoms.items() for y, wy in nu._atoms.items()}
    return Coupling(mu.dim, atoms, mu, nu, den=mu._den * nu._den)


def knothe_coupling(
    mu: ProbabilityMeasure, nu: ProbabilityMeasure, decomposition: Decomposition
) -> Coupling:
    """Triangular coupling along the blocks of ``decomposition``.

    Couples the first-block marginals monotonically, then for every
    support pair of prefixes couples the conditional block measures of
    the measures' disintegrations, in decomposition order.  For a single
    block this is exactly :func:`monotone_coupling`; on several, the
    result keeps each merge (prefix pair, atoms, denominator and the two
    block conditionals), from which :func:`iter_conditional_couplings`
    builds its walk on first read; a caller that never reads the walk
    builds none of it.
    """
    if mu.dim != nu.dim or decomposition.total_dim != mu.dim:
        raise DimensionMismatch(
            f"measures on Z^{mu.dim}, Z^{nu.dim} and decomposition of Z^{decomposition.total_dim} do not agree"
        )
    if decomposition.block_count == 1:
        first = monotone_coupling(mu, nu, decomposition.order(0))
        return Coupling(mu.dim, first._atoms.items(), mu, nu, den=first._den)
    fam_mu = mu.disintegrate(decomposition)
    fam_nu = nu.disintegrate(decomposition)
    # (prefix_x, prefix_y, numerator, denominator) of every prefix pair so far
    frontier = [((), (), 1, 1)]
    merges = []
    for level in range(decomposition.block_count):
        order = decomposition.order(level)
        grown = []
        for px, py, wn, wd in frontier:
            # the merge is the prefix pair's conditional block coupling
            left, right = fam_mu[level][px], fam_nu[level][py]
            atoms, den = _quantile_merge(left, right, order)
            merges.append((level, px, py, atoms, den, left, right))
            wd *= den
            grown.extend((px + xb, py + yb, wn * n, wd) for (xb, yb), n in atoms.items())
        frontier = grown
    den = math.lcm(*[d for *_, d in frontier])
    atoms = [((px, py), n * (den // d)) for px, py, n, d in frontier]
    pi = Coupling(mu.dim, atoms, mu, nu, den=den)
    pi._conditionals = {decomposition: merges}
    return pi


def iter_conditional_couplings(pi: Coupling, decomposition: Decomposition) -> tuple:
    """Conditional block couplings of ``pi`` along ``decomposition``.

    Returns a tuple of (level, prefix_x, prefix_y, conditional coupling),
    one for every prefix pair of positive mass, level by level, each level
    in the order in which its prefix pairs first occur in ``pi``'s support.
    The conditional coupling at level i is the distribution of (x_i, y_i)
    given the prefixes; it declares its two projections as its marginals,
    and at level 0 the first-block marginals of ``pi.left`` and
    ``pi.right``.  On one block the single coupling has ``pi``'s atoms and
    shares its support images.  The tuple is computed once per
    decomposition, on first read, and kept on ``pi`` (from a multi-block
    Knothe build, out of the merges the build kept): treat it and its
    couplings as read-only.
    """
    if decomposition.total_dim != pi.dim:
        raise DimensionMismatch(
            f"decomposition of Z^{decomposition.total_dim} does not match coupling on Z^{pi.dim}"
        )
    if pi._conditionals is None:
        pi._conditionals = {}
    family = pi._conditionals.get(decomposition)
    if type(family) is list:
        # the merges a multi-block Knothe build kept; the x-points under a
        # prefix pair are all of mu's points with its prefix_x, so prefix
        # order is first occurrence in pi's support
        family = pi._conditionals[decomposition] = tuple(
            (level, px, py, Coupling._trusted(decomposition.block_dim(level), atoms, den, left, right))
            for level, px, py, atoms, den, left, right in sorted(family, key=lambda m: m[:3])
        )
    if family is not None:
        return family
    # level 0: one bucket, certified against the first-block marginals
    k = decomposition.block_dim(0)
    head: dict[tuple[Point, Point], int] = {}
    for (x, y), n in pi._atoms.items():
        pair = (x[:k], y[:k])
        head[pair] = head.get(pair, 0) + n
    left = pi.left.disintegrate(decomposition)[0][()]
    right = pi.right.disintegrate(decomposition)[0][()]
    walk = [(0, (), (), Coupling(k, head, left, right, den=pi._den))]
    if decomposition.block_count == 1:
        # same atoms, same order, same denominator: the same images
        walk[0][3]._images = pi._images
    for level in range(1, decomposition.block_count):
        bdim = decomposition.block_dim(level)
        lo = decomposition.offset(level)
        hi = lo + bdim
        # per prefix pair: the bucket's weights by block pair, by x and by y
        groups: dict[tuple[Point, Point], tuple[dict, dict, dict]] = {}
        for (x, y), n in pi._atoms.items():
            prefix = (x[:lo], y[:lo])
            sums = groups.get(prefix)
            if sums is None:
                sums = groups[prefix] = ({}, {}, {})
            nums, xs, ys = sums
            xb = x[lo:hi]
            yb = y[lo:hi]
            pair = (xb, yb)
            nums[pair] = nums.get(pair, 0) + n
            xs[xb] = xs.get(xb, 0) + n
            ys[yb] = ys.get(yb, 0) + n
        for (px, py), (nums, xs, ys) in groups.items():
            den = sum(xs.values())
            left = ProbabilityMeasure._trusted(bdim, xs, den)
            right = ProbabilityMeasure._trusted(bdim, ys, den)
            walk.append((level, px, py, Coupling._trusted(bdim, nums, den, left, right)))
    family = pi._conditionals[decomposition] = tuple(walk)
    return family


def check_support_monotone(pi: Coupling, order: AdditiveTotalOrder) -> VerificationReport:
    """Check that supp pi is a chain in the product order.

    Two pairs cross when one is strictly below the other in x and strictly
    above it in y.  Sorted by (x-key, y-key), the pairs have nondecreasing
    y-keys exactly when none cross, so the check costs O(n log n).  The
    witness is the first crossing pair in support order: the first pair
    that crosses any other, with its first partner after it.  Under the
    plain lexicographic order the stored support is already in
    (x-key, y-key) order, so nothing is keyed or sorted.
    """
    if order.dim != pi.dim:
        raise DimensionMismatch(
            f"order on Z^{order.dim} does not match coupling on Z^{pi.dim}"
        )
    witness = _crossing(pi, order)
    if witness is None:
        return VerificationReport(
            check="support-monotone", outcome=VERIFIED, detail=f"{len(pi)} support pairs"
        )
    return VerificationReport(check="support-monotone", outcome=VIOLATED, witness=witness)


def _crossing(pi: Coupling, order: AdditiveTotalOrder) -> dict | None:
    """The witness of :func:`check_support_monotone`: the first crossing
    pair in support order with its first partner after it, or None when
    supp pi is a chain."""
    pairs = pi.support()
    if order._plain:
        keys = ranked = pairs
    else:
        keys = [(order.key(x), order.key(y)) for x, y in pairs]
        ranked = sorted(keys)
    xk = [kx for kx, _ in ranked]
    yk = [ky for _, ky in ranked]
    if all(a <= b for a, b in zip(yk, yk[1:])):
        return None
    # a pair crosses another iff some pair with a smaller x-key has a larger
    # y-key, or some pair with a larger x-key has a smaller y-key
    highest_y = list(accumulate(yk, max))
    lowest_y = list(accumulate(reversed(yk), min))[::-1]

    def crosses_any(kx, ky) -> bool:
        below, above = bisect_left(xk, kx), bisect_right(xk, kx)
        return (below > 0 and highest_y[below - 1] > ky) or (
            above < len(yk) and lowest_y[above] < ky
        )

    i = next(i for i, (kx, ky) in enumerate(keys) if crosses_any(kx, ky))
    j = next(j for j in range(i + 1, len(keys)) if _cross(keys[i], keys[j]))
    (a, b), (c, d) = pairs[i], pairs[j]
    return {"pair1": {"x": a, "y": b}, "pair2": {"x": c, "y": d}}


def _cross(p, q) -> bool:
    (px, py), (qx, qy) = p, q
    return (px < qx and py > qy) or (px > qx and py < qy)


def fibers(
    pi: Coupling, op: LatticeOperation, sign: str
) -> dict[Point, tuple[tuple[Point, Point], ...]]:
    """Group supp pi by the image under t_minus (sign='minus') or t_plus.

    The groups partition the support: every support pair appears in
    exactly one fiber.
    """
    if sign not in ("minus", "plus"):
        raise DomainError(f"sign must be 'minus' or 'plus', got {sign!r}")
    return _fibers(pi, _support_images(pi, op))[sign == "plus"]


def _support_images(pi: Coupling, op: LatticeOperation) -> list[tuple[Point, Point]]:
    """(T-(x, y), T+(x, y)) at every support pair (x, y), in support order.

    Kept on ``pi`` for the last difference map read, keyed by ``op.t``; a
    read under another map replaces them.  Treat the list as read-only.
    """
    images = pi._images.get(op.t)
    if images is None:
        # cleared in place: a one-block level-0 coupling shares this dict
        pi._images.clear()
        images = pi._images[op.t] = _images(op, pi._atoms)
    return images


def _fibers(pi: Coupling, images: list) -> tuple[dict, dict]:
    """The support pairs of ``pi`` grouped by their T- image and by their
    T+ image, in support order, in one pass over ``images``."""
    minus: dict[Point, list[tuple[Point, Point]]] = {}
    plus: dict[Point, list[tuple[Point, Point]]] = {}
    for pair, (zm, zp) in zip(pi._atoms, images):
        minus.setdefault(zm, []).append(pair)
        plus.setdefault(zp, []).append(pair)
    return (
        {a: tuple(ps) for a, ps in minus.items()},
        {a: tuple(ps) for a, ps in plus.items()},
    )


def _fiber_sorted(pairs, order: AdditiveTotalOrder):
    return sorted(pairs, key=lambda p: (order.key(p[0]), order.key(p[1])))


def check_fiber_structure(pi: Coupling, op: LatticeOperation) -> VerificationReport:
    """Verify the fiber shape of ``pi`` on every block of ``op``.

    On a single block the shape is checked on ``pi`` itself.  On several
    blocks it is checked on every conditional block coupling of ``pi``
    along ``op.decomposition`` (the walk :func:`iter_conditional_couplings`
    keeps on ``pi``), against the block section of ``op`` at the matching
    prefixes; a violation adds ``block``, ``prefix_x`` and ``prefix_y``
    to its witness, and a one-pair block is counted, not evaluated.
    Preconditions: ``op`` is a complementing pair passing the P2 check.  A
    coupling, or conditional block coupling, whose support is not monotone
    yields an ``inapplicable`` report, not a shape violation.
    """
    if op.dim != pi.dim:
        raise DimensionMismatch("operation and coupling dimensions differ")
    d = op.decomposition
    if d.block_count > 1:
        walk = iter_conditional_couplings(pi, d)
        for level, px, py, cond in walk:
            if len(cond) == 1:
                continue
            flaw, _, _ = _fiber_flaw(cond, block_section(op, level, px, py), d.order(level))
            if flaw is None:
                continue
            if flaw.outcome == VIOLATED:
                return VerificationReport(
                    check="fibers",
                    outcome=VIOLATED,
                    witness={**flaw.witness, "block": level + 1, "prefix_x": px, "prefix_y": py},
                    detail=flaw.detail,
                )
            return flaw
        return VerificationReport(
            check="fibers", outcome=VERIFIED, detail=f"{len(walk)} conditional block couplings"
        )
    flaw, minus, plus = _fiber_flaw(pi, op, d.order(0))
    if flaw is not None:
        return flaw
    return VerificationReport(
        check="fibers", outcome=VERIFIED, detail=f"{minus} minus-fibers, {plus} plus-fibers"
    )


def _fiber_flaw(
    pi: Coupling, op: LatticeOperation, order: AdditiveTotalOrder
) -> tuple[VerificationReport | None, int, int]:
    """The fiber clauses of ``pi`` under the one-block operation ``op``.

    Returns the report of the first clause broken, or an ``inapplicable``
    one when supp pi is not a chain, with zero counts; or None, so that a
    passing block builds no report, with the numbers of minus- and
    plus-fibers.
    """
    crossing = _crossing(pi, order)
    if crossing is not None:
        inapplicable = VerificationReport(
            check="fibers",
            outcome=INAPPLICABLE,
            witness=crossing,
            detail="support is not monotone; fiber shape is only claimed for monotone couplings",
        )
        return inapplicable, 0, 0
    # the support images (one read of t per support pair, shared with the
    # other checks of pi under op) feed both groupings and the alignment
    images = _support_images(pi, op)
    minus_fibers, plus_fibers = _fibers(pi, images)
    if len(minus_fibers) == len(plus_fibers) == len(pi):
        # every fiber is a single pair, so no clause can fail
        return None, len(pi), len(pi)
    unit = order.unit()
    zero = zero_point(pi.dim)
    for sign, groups in (("minus", minus_fibers), ("plus", plus_fibers)):
        for a, pairs in groups.items():
            flaw = None
            if len(pairs) > 2:
                flaw = "fiber has more than two elements"
            elif len(pairs) == 2:
                (x1, y1), (x2, y2) = _fiber_sorted(pairs, order)
                dx, dy = point_sub(x2, x1), point_sub(y2, y1)
                if not ((dx == unit and dy == zero) or (dx == zero and dy == unit)):
                    flaw = "two-element fiber is not a single unit step in one argument"
            if flaw is not None:
                violated = VerificationReport(
                    check="fibers",
                    outcome=VIOLATED,
                    witness={"sign": sign, "image": a, "fiber": pairs},
                    detail=flaw,
                )
                return violated, 0, 0
    # alignment whenever both fibers through a support pair have two elements
    for (x, y), (zm, zp) in zip(pi._atoms, images):
        sm = minus_fibers[zm]
        sp = plus_fibers[zp]
        if len(sm) == 2 and len(sp) == 2:
            if not (_aligned(sm, sp, unit) and _aligned(sp, sm, unit)):
                violated = VerificationReport(
                    check="fibers",
                    outcome=VIOLATED,
                    witness={
                        "x": x,
                        "y": y,
                        "minus_fiber": sm,
                        "plus_fiber": sp,
                    },
                    detail="two-element fibers through a support pair are not aligned",
                )
                return violated, 0, 0
    return None, len(minus_fibers), len(plus_fibers)


def _aligned(first, second, unit: Point) -> bool:
    # each element of `first` matches an element of `second` up to a
    # diagonal unit step (both coordinates shifted by the same +-unit)
    for xp, yp in first:
        hit = False
        for xq, yq in second:
            if (xp, yp) == (xq, yq):
                hit = True
            elif xp == point_add(xq, unit) and yp == point_add(yq, unit):
                hit = True
            elif xp == point_sub(xq, unit) and yp == point_sub(yq, unit):
                hit = True
            if hit:
                break
        if not hit:
            return False
    return True
