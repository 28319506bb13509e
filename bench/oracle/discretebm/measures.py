"""Exact finitely supported measures on Z^n.

Weights are :class:`fractions.Fraction` values throughout, so masses,
cumulative distributions, quantiles, pushforwards, marginals, and
disintegrations are all computed without rounding.  The only quantities
that leave the rational world are entropies, which are accumulated in
double precision from exact atoms.

Atoms are stored sorted by the ambient lexicographic order, so iteration,
equality, and serialization are deterministic.
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
    if isinstance(value, float):
        raise InvalidWeightError(
            f"float weight {value!r} is not exact; pass a Fraction or an int"
        )
    try:
        w = Fraction(value)
    except (TypeError, ValueError) as exc:
        raise InvalidWeightError(f"cannot interpret weight {value!r}") from exc
    if w < 0:
        raise InvalidWeightError(f"negative weight {w}")
    return w


class FiniteMeasure:
    """Finitely supported measure with positive rational weights.

    Zero-weight entries are dropped and duplicate points are summed at
    construction; the resulting support must be nonempty.
    """

    __slots__ = ("dim", "_atoms", "total_mass")

    def __init__(self, dim: int, entries: Iterable[tuple[object, object]]):
        if dim < 1:
            raise DomainError("measure dimension must be >= 1")
        acc: dict[Point, Fraction] = {}
        for raw_point, raw_weight in entries:
            pt = as_point(raw_point, dim)
            w = _as_weight(raw_weight)
            if w == 0:
                continue
            acc[pt] = acc.get(pt, ZERO) + w
        if not acc:
            raise EmptySupportError("measure has empty support")
        self.dim = dim
        self._atoms = {pt: acc[pt] for pt in sorted(acc)}
        self.total_mass = sum(self._atoms.values())

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, point: Point) -> bool:
        return point in self._atoms

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
        mass = self.total_mass
        return ProbabilityMeasure(self.dim, [(x, w / mass) for x, w in self.items()])

    def pushforward(self, mapping: Callable[[Point], object]) -> "FiniteMeasure":
        """Image measure under ``mapping``; total mass is preserved exactly."""
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
            out[y] = out.get(y, ZERO) + w
        assert out_dim is not None
        return type(self)(out_dim, out.items())


def make_measure(dim: int, entries: Iterable[tuple[object, object]]) -> FiniteMeasure:
    return FiniteMeasure(dim, entries)


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
        return math.fsum(
            float(w) * (math.log(w.numerator) - math.log(w.denominator))
            for w in self._atoms.values()
        )

    def disintegrate(self, decomposition: Decomposition) -> "ConditionalFamily":
        """Exact conditional tree along the blocks of ``decomposition``.

        Level i maps each prefix of positive mass to the conditional
        probability measure of block i given that prefix.  Prefixes of
        zero mass do not appear.
        """
        if decomposition.total_dim != self.dim:
            raise DimensionMismatch(
                f"decomposition of Z^{decomposition.total_dim} does not match measure on Z^{self.dim}"
            )
        levels: list[dict[Point, ProbabilityMeasure]] = []
        for i in range(decomposition.block_count):
            bdim = decomposition.block_dim(i)
            groups: dict[Point, dict[Point, Fraction]] = {}
            masses: dict[Point, Fraction] = {}
            for x, w in self.items():
                p = decomposition.prefix(x, i)
                b = decomposition.block(x, i)
                bucket = groups.setdefault(p, {})
                bucket[b] = bucket.get(b, ZERO) + w
                masses[p] = masses.get(p, ZERO) + w
            levels.append(
                {
                    p: ProbabilityMeasure(
                        bdim, [(b, w / masses[p]) for b, w in bucket.items()]
                    )
                    for p, bucket in groups.items()
                }
            )
        return ConditionalFamily(decomposition, tuple(levels))


class ConditionalFamily:
    """Per-block conditional measures of a disintegrated measure.

    Multiplying conditionals along a full prefix path reproduces the
    original weight of every support point exactly.
    """

    __slots__ = ("decomposition", "levels")

    def __init__(
        self,
        decomposition: Decomposition,
        levels: tuple[dict[Point, ProbabilityMeasure], ...],
    ):
        self.decomposition = decomposition
        self.levels = levels

    def prefixes(self, level: int) -> list[Point]:
        return list(self.levels[level])

    def conditional(self, level: int, prefix: Point) -> ProbabilityMeasure:
        try:
            return self.levels[level][prefix]
        except KeyError:
            raise DomainError(
                f"prefix {prefix} has zero mass at level {level}; no conditional exists"
            ) from None

    def recombined_weight(self, point) -> Fraction:
        """Product of conditional weights along the prefix path of ``point``."""
        x = as_point(point, self.decomposition.total_dim)
        w = ONE
        for i in range(self.decomposition.block_count):
            prefix = self.decomposition.prefix(x, i)
            cond = self.levels[i].get(prefix)
            if cond is None:
                return ZERO
            w *= cond.weight_at(self.decomposition.block(x, i))
            if w == 0:
                return ZERO
        return w


def cumulative_weights(
    measure: ProbabilityMeasure, order: AdditiveTotalOrder
) -> tuple[list[Point], list[Fraction]]:
    """Support sorted by ``order`` with exact running cumulative masses."""
    pts = order.sorted_points(measure.support())
    cums = list(accumulate(measure.weight_at(p) for p in pts))
    return pts, cums
