"""Exact finitely supported measures on Z^n.

Stored form.  A measure stores its weights in one exact form: integer
numerators ``_atoms[p]`` over one denominator ``_den``, in lowest common
terms (``gcd(_den, *numerators) == 1``), keyed in ascending lexicographic
order, so two equal measures have equal fields, and iteration, equality
and serialization are deterministic.  Masses, normalizations and
disintegrations are integer sums over that denominator, and
:func:`_reduced` restores the form wherever one is made.  ``Fraction``
stays the public weight type: it is built only where a weight leaves the
library (``items``, ``weight_at``, ``total_mass``).  The only quantities
that leave the rational world are entropies, which are accumulated in
double precision from exact atoms.  A
:class:`~discretebm.coupling.Coupling` stores its weights in the same
form, keyed by (x, y) pairs of points; the container methods the two
share are on :class:`_Atoms`.

Input rule.  Validation happens once, where outside input enters, and
the public constructors of measures and couplings read their entries in
one loop.  The entries are (key, weight) pairs, or a mapping of them
whose items are read.  Every entry must be such a pair (a malformed
entry raises :class:`DomainError` naming it), and each weight is read as
a multiple of ``1/den``, a positive int: callers holding integer
numerators over a denominator pass it, others keep ``den=1``.  A plain
entry, whose key is a tuple of ``dim`` ints (for a coupling, a tuple of
two such tuples) and whose weight is a nonnegative int, is taken as it
is; only a non-plain entry is coerced, its points by :func:`as_point`
and its weight by :func:`_as_weight` (exact and nonnegative; floats are
refused).  Zero weights are dropped, duplicate keys are summed, and the
support must be nonempty.  A coerced weight is a ``Fraction``; if there
are any, :func:`_integer_sums` rescales the integer sums to their least
common denominator and adds them.  The coupling constructor sums both
projections in the same loop.

Measures derived inside the library (normalizations, pushforwards,
conditionals, coupling marginals) satisfy those invariants by
construction and are built by :meth:`FiniteMeasure._trusted`, which
checks nothing; :mod:`discretebm.coupling` names the couplings it builds
unchecked the same way.  Only :mod:`discretebm.measures` and
:mod:`discretebm.coupling` build anything unchecked: outside input
always reaches a validating constructor.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator

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


def _integer_sums(nums: dict, coerced: list) -> tuple[dict, int]:
    """The integer sums ``nums`` of the plain weights plus the coerced
    (key, ``Fraction``) entries, as integer numerators over L, the least
    common denominator of the coerced weights, and L.  Zero weights are
    dropped."""
    # unpack a list, not a generator: CPython builds the argument tuple from
    # a generator by resizing, which allocates outside the tuple free list
    # but frees into it, so the free list would fill with dead tuples
    den = math.lcm(*[w.denominator for _, w in coerced])
    nums = {k: n * den for k, n in nums.items()}
    for k, w in coerced:
        if w:
            nums[k] = nums.get(k, 0) + w.numerator * (den // w.denominator)
    return nums, den


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


class _Atoms:
    """The container protocol of measures and couplings: ``dim``, and the
    stored weights ``_atoms`` over ``_den`` (see the module docstring)."""

    __slots__ = ("dim", "_atoms", "_den")

    def __len__(self) -> int:
        return len(self._atoms)

    def __eq__(self, other) -> bool:
        # a measure's keys are points and a coupling's are pairs of points,
        # so a measure never equals a coupling
        if not isinstance(other, _Atoms):
            return NotImplemented
        return self.dim == other.dim and self._den == other._den and self._atoms == other._atoms

    __hash__ = None  # mutable-by-content semantics are not wanted as dict keys

    def items(self) -> Iterator[tuple[object, Fraction]]:
        den = self._den
        return ((key, Fraction(n, den)) for key, n in self._atoms.items())

    def support(self) -> list:
        return list(self._atoms)


class FiniteMeasure(_Atoms):
    """Finitely supported measure with positive rational weights.

    The constructor reads ``entries``, (point, weight) pairs or a mapping
    of them with each weight a multiple of ``1/den``, by the input rule of
    the module docstring, which also gives the stored form.
    """

    __slots__ = ("_families",)

    def __init__(self, dim: int, entries: Iterable[tuple[object, object]], *, den: int = 1):
        if dim < 1:
            raise DomainError("measure dimension must be >= 1")
        _check_den(den)
        nums: dict[Point, int] = {}
        coerced = []
        for entry in entries.items() if hasattr(entries, "items") else entries:
            try:
                x, n = entry
            except (TypeError, ValueError):
                raise DomainError(
                    f"cannot interpret {_brief(entry)} as a (point, weight) entry"
                ) from None
            if type(x) is tuple and len(x) == dim:
                for c in x:
                    if type(c) is not int:
                        x = as_point(x, dim)
                        break
            else:
                x = as_point(x, dim)
            if type(n) is not int or n < 0:
                coerced.append((x, _as_weight(n, den)))
            elif n:
                nums[x] = nums.get(x, 0) + n
        if coerced:
            nums, scale = _integer_sums(nums, coerced)
            den *= scale
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

    def __contains__(self, point) -> bool:
        return as_point(point, self.dim) in self._atoms

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"{kind}(dim={self.dim}, atoms={len(self._atoms)}, mass={self.total_mass})"

    @property
    def total_mass(self) -> Fraction:
        return Fraction(sum(self._atoms.values()), self._den)

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
