"""Exact finitely supported measures on Z^n.

Weights are :class:`fractions.Fraction` values throughout, so masses,
cumulative distributions, quantiles, pushforwards, marginals, and
disintegrations are all computed without rounding.  Sums over many atoms
are taken on integer numerators over the least common denominator of the
weights, which gives the same exact result as chained ``Fraction``
additions at a fraction of the cost.  The only quantities that leave the
rational world are entropies, which are accumulated in double precision
from exact atoms.

Atoms are stored sorted by the ambient lexicographic order, so iteration,
equality, and serialization are deterministic.

Validation happens once, where outside input enters: the public
constructors coerce and check every point and weight and the total mass.
Measures derived inside the library (normalizations, pushforwards,
conditionals, coupling marginals) satisfy those invariants by
construction and are built by :meth:`FiniteMeasure._trusted`, which
checks nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptySupportError,
    InvalidWeightError,
)
from .lattice import AdditiveTotalOrder, Decomposition, Point, as_point

ZERO = Fraction(0)
ONE = Fraction(1)


def _as_weight(value) -> Fraction:
    """Coerce an outside weight to a nonnegative Fraction; floats are refused."""
    if type(value) is Fraction:
        w = value
    elif isinstance(value, float):
        raise InvalidWeightError(
            f"float weight {value!r} is not exact; pass a Fraction or an int"
        )
    else:
        try:
            w = Fraction(value)
        except (TypeError, ValueError) as exc:
            raise InvalidWeightError(f"cannot interpret weight {value!r}") from exc
    if w.numerator < 0:
        raise InvalidWeightError(f"negative weight {w}")
    return w


def _add_into(acc: dict, key, w) -> None:
    """acc[key] += w, without an addition for the first weight of a key."""
    prev = acc.get(key)
    acc[key] = w if prev is None else prev + w


def _numerators(weights: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``weights`` over their least common denominator.

    Returns (numerators, denominator); weight i equals
    Fraction(numerators[i], denominator) exactly.
    """
    ws = list(weights)
    # unpack a list, not a generator: CPython builds the argument tuple from
    # a generator by resizing, which allocates outside the tuple free list
    # but frees into it, so the free list would fill with up to 2000 dead
    # tuples of every support size and hold that memory
    den = math.lcm(*[w.denominator for w in ws])
    return [w.numerator * (den // w.denominator) for w in ws], den


def _log_fraction(w: Fraction) -> float:
    """log(w) of a positive rational, from its numerator and denominator.

    Stays finite where float(w) would underflow or overflow.
    """
    return math.log(w.numerator) - math.log(w.denominator)


class FiniteMeasure:
    """Finitely supported measure with positive rational weights.

    The constructor validates its input: points are coerced by
    :func:`as_point`, weights must be exact and nonnegative, zero-weight
    entries are dropped, duplicate points are summed, and the resulting
    support must be nonempty.
    """

    __slots__ = ("dim", "_atoms", "total_mass", "_families")

    def __init__(self, dim: int, entries: Iterable[tuple[object, object]]):
        if dim < 1:
            raise DomainError("measure dimension must be >= 1")
        acc: dict[Point, Fraction] = {}
        for raw_point, raw_weight in entries:
            pt = as_point(raw_point, dim)
            w = _as_weight(raw_weight)
            if w:
                _add_into(acc, pt, w)
        if not acc:
            raise EmptySupportError("measure has empty support")
        self.dim = dim
        self._atoms = {pt: acc[pt] for pt in sorted(acc)}
        nums, den = _numerators(self._atoms.values())
        self.total_mass = Fraction(sum(nums), den)
        self._families = None

    @classmethod
    def _trusted(cls, dim: int, atoms: dict[Point, Fraction], total_mass: Fraction):
        """Measure from atoms already known to be valid; nothing is checked.

        ``atoms`` maps points of Z^dim to positive Fractions, in any order,
        and ``total_mass`` is their exact sum.  Only the library calls
        this, on measures whose invariants hold by construction.
        """
        m = cls.__new__(cls)
        m.dim = dim
        m._atoms = {pt: atoms[pt] for pt in sorted(atoms)}
        m.total_mass = total_mass
        m._families = None
        return m

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, point) -> bool:
        return as_point(point, self.dim) in self._atoms

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return self.dim == other.dim and self._atoms == other._atoms

    __hash__ = None  # mutable-by-content semantics are not wanted as dict keys

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"{kind}(dim={self.dim}, atoms={len(self._atoms)}, mass={self.total_mass})"

    def items(self) -> Iterator[tuple[Point, Fraction]]:
        return iter(self._atoms.items())

    def support(self) -> list[Point]:
        return list(self._atoms)

    def weight_at(self, point) -> Fraction:
        """Exact weight of ``point`` (0 off the support)."""
        return self._atoms.get(as_point(point, self.dim), ZERO)

    # -- measure operations --------------------------------------------------

    def normalize(self) -> "ProbabilityMeasure":
        """Divide every weight exactly by the total mass."""
        nums, _ = _numerators(self._atoms.values())
        return _normalized(self.dim, dict(zip(self._atoms, nums)))

    def pushforward(self, mapping: Callable[[Point], object]) -> "FiniteMeasure":
        """Image measure under ``mapping``; total mass is preserved exactly.

        The images are outside input and are coerced by :func:`as_point`.
        """
        out: dict[Point, Fraction] = {}
        out_dim: int | None = None
        for x, w in self.items():
            y = as_point(mapping(x))
            if out_dim is None:
                out_dim = len(y)
            elif len(y) != out_dim:
                raise DimensionMismatch(
                    f"pushforward map produced points of dimensions {out_dim} and {len(y)}"
                )
            _add_into(out, y, w)
        assert out_dim is not None
        return type(self)._trusted(out_dim, out, self.total_mass)


class ProbabilityMeasure(FiniteMeasure):
    """Finitely supported measure with total mass exactly 1."""

    __slots__ = ()

    def __init__(self, dim: int, entries: Iterable[tuple[object, object]]):
        super().__init__(dim, entries)
        if self.total_mass != 1:
            raise InvalidWeightError(
                f"probability measure must have mass 1, got {self.total_mass}"
            )

    def cdf(self, order: AdditiveTotalOrder, point) -> Fraction:
        """Exact mass of the lower interval {g : g <= point} under ``order``."""
        x = as_point(point, self.dim)
        if order.dim != self.dim:
            raise DimensionMismatch(
                f"order on Z^{order.dim} does not match measure on Z^{self.dim}"
            )
        kx = order.key(x)
        return sum((w for g, w in self.items() if order.key(g) <= kx), ZERO)

    def quantile(self, order: AdditiveTotalOrder, t) -> Point:
        """Least support point whose cdf reaches ``t``, for t in (0, 1].

        Satisfies the Galois relation: quantile(t) <= x if and only if
        t <= cdf(x), for support points x.
        """
        if isinstance(t, float):
            raise DomainError("quantile levels must be exact rationals")
        level = Fraction(t)
        if not 0 < level <= 1:
            raise DomainError(f"quantile level must lie in (0, 1], got {level}")
        if order.dim != self.dim:
            raise DimensionMismatch(
                f"order on Z^{order.dim} does not match measure on Z^{self.dim}"
            )
        running = ZERO
        for x in order.sorted_points(self.support()):
            running += self._atoms[x]
            if running >= level:
                return x
        raise AssertionError("unreachable: cumulative mass reaches 1")

    def relative_entropy(self) -> float:
        """Sum of w*log(w) over atoms, in double precision; always <= 0.

        Equals 0 exactly for a Dirac measure.  Terms are accumulated in
        the deterministic stored (lexicographic) atom order.
        """
        return math.fsum(float(w) * _log_fraction(w) for w in self._atoms.values())

    def disintegrate(self, decomposition: Decomposition) -> tuple[dict, ...]:
        """Exact conditional tree along the blocks of ``decomposition``.

        Entry i maps each prefix (the coordinates of blocks 0..i-1) of
        positive mass to the conditional probability measure of block i
        given that prefix; prefixes of zero mass do not appear.  With a
        single block the only conditional is the measure itself.
        Multiplying conditionals along a full prefix path reproduces the
        original weight of every support point exactly.

        With several blocks the family is computed once per decomposition
        and kept on the measure, so every caller of one measure shares it:
        treat it as read-only.
        """
        if decomposition.total_dim != self.dim:
            raise DimensionMismatch(
                f"decomposition of Z^{decomposition.total_dim} does not match measure on Z^{self.dim}"
            )
        if decomposition.block_count == 1:
            return ({(): self},)
        if self._families is None:
            self._families = {}
        elif decomposition in self._families:
            return self._families[decomposition]
        nums, _ = _numerators(self._atoms.values())
        levels: list[dict[Point, ProbabilityMeasure]] = []
        for i in range(decomposition.block_count):
            bdim = decomposition.block_dim(i)
            lo = decomposition.offset(i)
            hi = lo + bdim
            groups: dict[Point, dict[Point, int]] = {}
            for x, n in zip(self._atoms, nums):
                bucket = groups.setdefault(x[:lo], {})
                b = x[lo:hi]
                bucket[b] = bucket.get(b, 0) + n
            levels.append({p: _normalized(bdim, bucket) for p, bucket in groups.items()})
        family = self._families[decomposition] = tuple(levels)
        return family


def _normalized(dim: int, weights: dict[Point, int]) -> ProbabilityMeasure:
    """The probability measure proportional to positive integer weights."""
    mass = sum(weights.values())
    return ProbabilityMeasure._trusted(
        dim, {p: Fraction(n, mass) for p, n in weights.items()}, ONE
    )


def cumulative_weights(
    measure: ProbabilityMeasure, order: AdditiveTotalOrder, den: int
) -> tuple[list[Point], list[int]]:
    """Support sorted by ``order`` with exact running cumulative masses.

    The masses are integer numerators over ``den``, which must be a
    multiple of every weight's denominator: the cumulative mass up to and
    including point i is Fraction(cums[i], den).
    """
    pts = order.sorted_points(measure.support())
    atoms = measure._atoms
    cums = list(
        accumulate(atoms[p].numerator * (den // atoms[p].denominator) for p in pts)
    )
    return pts, cums
