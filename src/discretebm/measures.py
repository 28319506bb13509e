"""Exact finitely supported measures on Z^n.

A measure stores its weights in one exact form: integer numerators
``_atoms[p]`` over one denominator ``_den``, in lowest common terms
(``gcd(_den, *numerators) == 1``), so two equal measures have equal
fields.  Masses, normalizations and disintegrations are integer sums
over that denominator, and :func:`_reduced` restores the form wherever
one is made.  ``Fraction`` stays the public weight type: it is built only
where a weight leaves the library (``items``, ``weight_at``,
``total_mass``).  The only quantities that leave the rational world are
entropies, which are accumulated in double precision from exact atoms.

Atoms are stored sorted by the ambient lexicographic order, so iteration,
equality, and serialization are deterministic.

Validation happens once, where outside input enters: the public
constructors check every point and weight and the total mass.  Entries
that are already plain (int tuples of the measure's dimension with
nonnegative int weights, as the JSON reader passes them with ``den=``)
are checked and summed in one pass; any other input is coerced entry by
entry through :func:`_exact_weights`.  The
:class:`~discretebm.coupling.Coupling` constructor validates the same
way: plain integer pairs in one pass, any other input through the same
:func:`_exact_weights`, so its coercions and error texts are a
measure's.  Measures derived inside the library (normalizations,
pushforwards, conditionals, coupling marginals) satisfy those invariants
by construction and are built by :meth:`FiniteMeasure._trusted`, which
checks nothing; :mod:`discretebm.coupling` names the couplings it builds
unchecked the same way.  Only :mod:`discretebm.measures`
and :mod:`discretebm.coupling` build anything unchecked: outside input
always reaches a validating constructor.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptySupportError,
    InvalidWeightError,
    _brief,
)
from .lattice import Decomposition, Point, as_point

ZERO = Fraction(0)


def _as_weight(value, den: int = 1) -> Fraction | int:
    """Coerce an outside weight to a nonnegative Fraction or int; floats are
    refused.  A negative weight is named as the weight ``value / den``."""
    if type(value) is Fraction or type(value) is int:
        w = value
    elif isinstance(value, float):
        raise InvalidWeightError(
            f"float weight {value!r} is not exact; pass a Fraction or an int"
        )
    else:
        try:
            w = Fraction(value)
        except (TypeError, ValueError) as exc:
            raise InvalidWeightError(f"cannot interpret weight {_brief(value)}") from exc
    if w.numerator < 0:
        raise InvalidWeightError(f"negative weight {_rational_text(Fraction(w, den))}")
    return w


def _exact_weights(entries, key: Callable, den: int = 1) -> tuple[dict, int]:
    """Outside (key, weight) entries as integer numerators over the least
    common denominator of the weights: keys are coerced by ``key`` and
    weights by :func:`_as_weight`, zero weights dropped and keys summed.
    ``den`` is the caller's denominator of the weights, used only to name a
    negative one."""
    weighted = [(key(k), _as_weight(w, den)) for k, w in entries]
    # unpack a list, not a generator: CPython builds the argument tuple from
    # a generator by resizing, which allocates outside the tuple free list
    # but frees into it, so the free list would fill with dead tuples
    den = math.lcm(*[w.denominator for _, w in weighted])
    nums: dict = {}
    for k, w in weighted:
        if w:
            nums[k] = nums.get(k, 0) + w.numerator * (den // w.denominator)
    return nums, den


def _plain_points(entries: list, dim: int) -> dict[Point, int] | None:
    """The integer weights of ``entries`` summed by point, in one pass, if
    every entry is plain: (x, n) with x a tuple of ``dim`` ints and n a
    nonnegative int; zero weights are dropped.  None if any entry is not
    plain, so that it goes through the coercing path and its checks."""
    nums: dict[Point, int] = {}
    try:
        # only the unpacking of an entry can raise
        for x, n in entries:
            if not (type(x) is tuple and len(x) == dim and type(n) is int and n >= 0):
                return None
            for c in x:
                if type(c) is not int:
                    return None
            if n:
                nums[x] = nums.get(x, 0) + n
    except (TypeError, ValueError):
        return None
    return nums


def _check_den(den) -> None:
    """``den``, the denominator a constructor reads its weights over, must
    be a positive int."""
    if type(den) is not int:
        raise InvalidWeightError(f"den must be an int, got {type(den).__name__}")
    if den < 1:
        raise InvalidWeightError(f"den must be positive, got {_rational_text(den)}")


def _reduced(nums: dict, den: int) -> tuple[dict, int]:
    """The stored weight form: ``nums`` and ``den`` divided by their gcd."""
    g = math.gcd(den, *nums.values())
    return (nums, den) if g == 1 else ({k: n // g for k, n in nums.items()}, den // g)


def _log_ratio(n: int, d: int) -> float:
    """log(n / d) of positive integers, taken in lowest terms as a
    ``Fraction`` holds them, so it matches to the last bit and stays
    finite where n / d would underflow or overflow."""
    g = math.gcd(n, d)
    return math.log(n // g) - math.log(d // g)


def _entropy(nums: dict, den: int) -> float:
    """Sum of w log w over the weights nums[p] / den, in lowest common
    terms; ``math.fsum`` is correctly rounded, so the order of ``nums``
    does not change the float."""
    return math.fsum(n / den * _log_ratio(n, den) for n in nums.values())


def _int_text(n: int) -> str:
    """The decimal digits of ``n``, also past the interpreter's
    int-to-str digit limit: ``Decimal`` holds an int exactly and prints
    it without that limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))``, without building the Fraction and with
    no limit on the number of digits."""
    g = math.gcd(n, d)
    return _int_text(n // g) if d == g else f"{_int_text(n // g)}/{_int_text(d // g)}"


def _rational_text(q: Fraction | int) -> str:
    """``str(q)`` for an error message, or its bit sizes where it has more
    digits than int-to-str may print."""
    try:
        return str(q)
    except ValueError:
        return (
            f"a ratio of a {q.numerator.bit_length()}-bit numerator "
            f"and a {q.denominator.bit_length()}-bit denominator"
        )


class FiniteMeasure:
    """Finitely supported measure with positive rational weights.

    The constructor validates its input: points are coerced by
    :func:`as_point`, weights must be exact and nonnegative, zero-weight
    entries are dropped, duplicate points are summed, and the resulting
    support must be nonempty.  Each given weight is read as a multiple of
    ``1/den``: callers holding integer numerators over a denominator pass
    them with ``den``, a positive int, and others keep ``den=1``.  If every
    entry is plain, a tuple of ``dim`` ints with a nonnegative int weight,
    the entries are checked and summed in one pass; otherwise the whole
    input is coerced entry by entry.  The weight of ``p`` is stored as
    ``_atoms[p] / _den`` in lowest common terms (see the module
    docstring).
    """

    __slots__ = ("dim", "_atoms", "_den", "_families")

    def __init__(self, dim: int, entries: Iterable[tuple[object, object]], *, den: int = 1):
        if dim < 1:
            raise DomainError("measure dimension must be >= 1")
        _check_den(den)
        entries = list(entries)
        nums = _plain_points(entries, dim)
        if nums is None:
            nums, wden = _exact_weights(entries, lambda p: as_point(p, dim), den)
            den *= wden
        if not nums:
            raise EmptySupportError("measure has empty support")
        self._store(dim, nums, den)

    @classmethod
    def _trusted(cls, dim: int, nums: dict[Point, int], den: int):
        """Measure of weights nums[p] / den; nothing is checked.

        ``nums`` maps points of Z^dim to positive integers, in any order
        and not necessarily in lowest terms.  Only the library calls this,
        on measures whose invariants hold by construction.
        """
        m = cls.__new__(cls)
        m._store(dim, nums, den)
        return m

    def _store(self, dim: int, nums: dict[Point, int], den: int) -> None:
        nums, den = _reduced(nums, den)
        self.dim = dim
        self._atoms = {pt: nums[pt] for pt in sorted(nums)}
        self._den = den
        self._families = None

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._atoms)

    def __contains__(self, point) -> bool:
        return as_point(point, self.dim) in self._atoms

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return (
            self.dim == other.dim and self._den == other._den and self._atoms == other._atoms
        )

    __hash__ = None  # mutable-by-content semantics are not wanted as dict keys

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"{kind}(dim={self.dim}, atoms={len(self._atoms)}, mass={self.total_mass})"

    @property
    def total_mass(self) -> Fraction:
        return Fraction(sum(self._atoms.values()), self._den)

    def items(self) -> Iterator[tuple[Point, Fraction]]:
        den = self._den
        return ((pt, Fraction(n, den)) for pt, n in self._atoms.items())

    def support(self) -> list[Point]:
        return list(self._atoms)

    def weight_at(self, point) -> Fraction:
        """Exact weight of ``point`` (0 off the support)."""
        n = self._atoms.get(as_point(point, self.dim))
        return ZERO if n is None else Fraction(n, self._den)

    # -- measure operations --------------------------------------------------

    def normalize(self) -> "ProbabilityMeasure":
        """Divide every weight exactly by the total mass."""
        return _normalized(self.dim, self._atoms)


class ProbabilityMeasure(FiniteMeasure):
    """Finitely supported measure with total mass exactly 1."""

    __slots__ = ()

    def __init__(self, dim: int, entries: Iterable[tuple[object, object]], *, den: int = 1):
        super().__init__(dim, entries, den=den)
        if sum(self._atoms.values()) != self._den:
            raise InvalidWeightError(
                f"probability measure must have mass 1, got {_rational_text(self.total_mass)}"
            )

    def relative_entropy(self) -> float:
        """Sum of w*log(w) over atoms, in double precision; always <= 0.

        Equals 0 exactly for a Dirac measure.  Terms are accumulated in
        the deterministic stored (lexicographic) atom order; n / den is
        the float of each weight, and its log is taken in lowest terms.
        """
        return _entropy(self._atoms, self._den)

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
        levels: list[dict[Point, ProbabilityMeasure]] = []
        for i in range(decomposition.block_count):
            bdim = decomposition.block_dim(i)
            lo = decomposition.offset(i)
            hi = lo + bdim
            groups: dict[Point, dict[Point, int]] = {}
            for x, n in self._atoms.items():
                bucket = groups.setdefault(x[:lo], {})
                b = x[lo:hi]
                bucket[b] = bucket.get(b, 0) + n
            levels.append({p: _normalized(bdim, bucket) for p, bucket in groups.items()})
        family = self._families[decomposition] = tuple(levels)
        return family


def _normalized(dim: int, nums: dict[Point, int]) -> ProbabilityMeasure:
    """The probability measure proportional to positive integer weights."""
    return ProbabilityMeasure._trusted(dim, nums, sum(nums.values()))
