import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discretebm import (
    AdditiveTotalOrder,
    Coupling,
    Decomposition,
    DimensionMismatch,
    DomainError,
    EmptySupportError,
    ExponentQuadruple,
    FiniteMeasure,
    InvalidWeightError,
    ProbabilityMeasure,
    singleton_decomposition,
    standard_order,
)
from helpers import dirac, uniform


small_measures = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(1, 20)), min_size=1, max_size=8
).map(lambda entries: FiniteMeasure(1, [((x,), F(w)) for x, w in entries]).normalize())


def test_make_measure_basics():
    m = FiniteMeasure(1, [(0, F(1, 2)), (1, F(1, 2))])
    assert m.total_mass == 1
    assert m.weight_at(0) == F(1, 2)

    merged = FiniteMeasure(1, [(0, F(1, 3)), (0, F(1, 3))])
    assert len(merged) == 1
    assert merged.weight_at(0) == F(2, 3)

    dropped = FiniteMeasure(1, [(0, 0), (1, 1)])
    assert dropped.support() == [(1,)]

    # plain entries, from an iterator, equal their coerced forms
    plain = FiniteMeasure(1, zip([(1,), (0,), (1,), (2,)], [1, 2, 1, 0]))
    assert plain == FiniteMeasure(1, [([0], F(2)), (1, F(4, 2))])
    assert plain.support() == [(0,), (1,)]

    # a mapping's items are read, as the coupling constructor reads them:
    # its keys were once read as entries, so {(0,): 1} was refused and
    # {(0, 1): 1} built the measure on (0,) in dimension 1
    for cls in (FiniteMeasure, ProbabilityMeasure):
        assert cls(1, {(0,): 1}) == cls(1, [((0,), 1)])
        assert cls(1, {(1,): F(1, 4), (0,): F(3, 4)}) == cls(1, [((0,), F(3, 4)), ((1,), F(1, 4))])
        with pytest.raises(DimensionMismatch, match="^expected a point of dimension 1, got 2$"):
            cls(1, {(0, 1): 1})
        with pytest.raises(DimensionMismatch, match="^expected a point of dimension 2, got 1$"):
            cls(2, {(0,): 1})


def test_make_measure_errors():
    with pytest.raises(EmptySupportError, match="^measure has empty support$"):
        FiniteMeasure(1, [(0, 0)])
    with pytest.raises(EmptySupportError, match="^measure has empty support$"):
        FiniteMeasure(1, iter([]))
    with pytest.raises(InvalidWeightError, match="^negative weight -1/2$"):
        FiniteMeasure(1, [(0, F(-1, 2))])
    with pytest.raises(InvalidWeightError, match="^float weight 0.5 is not exact; pass a Fraction or an int$"):
        FiniteMeasure(1, [(0, 0.5)])
    with pytest.raises(DimensionMismatch, match="^expected a point of dimension 2, got 1$"):
        FiniteMeasure(2, [((0,), 1)])
    with pytest.raises(DomainError, match="^point coordinates must be integers, got 0.0$"):
        FiniteMeasure(1, [((0,), 1), ((0.0,), 1)])
    # a bool is not a lattice point, even though bool subclasses int
    with pytest.raises(DomainError, match="^cannot interpret True as a point$"):
        ProbabilityMeasure(1, [(True, 1)])
    with pytest.raises(DomainError, match="^point coordinates must be integers, got False$"):
        ProbabilityMeasure(1, [((False,), 1)])
    # an entry that is not a (point, weight) pair is named; it once escaped
    # as a bare TypeError or ValueError
    for entries, entry in (([5], "5"), ([(0,)], "(0,)"), ([((0,), 1), None], "None")):
        with pytest.raises(DomainError) as caught:
            FiniteMeasure(1, entries)
        assert str(caught.value) == f"cannot interpret {entry} as a (point, weight) entry"


def test_den_reads_every_weight_over_it():
    # plain entries are taken as they are; a list point or a Fraction among
    # them is coerced, with the same result
    expected = FiniteMeasure(1, [(0, F(1, 4)), (1, F(3, 4))])
    for entries in (
        [((0,), 3), ((1,), 9)],
        [((1,), 4), ((0,), 3), ((1,), 5), ((2,), 0)],
        [([0], 3), ((1,), 9)],
        [((0,), F(3)), ((1,), 9)],
        [((0,), F(3, 2)), ((0,), F(3, 2)), ((1,), 9)],
    ):
        assert FiniteMeasure(1, entries, den=12) == expected
        assert ProbabilityMeasure(1, iter(entries), den=12) == expected
    assert FiniteMeasure(1, zip([(1,), (0,)], [9, 3]), den=12) == expected
    with pytest.raises(InvalidWeightError, match="^probability measure must have mass 1, got 1/2$"):
        ProbabilityMeasure(1, [((0,), 3)], den=6)
    # a negative weight is named as the weight, not as its numerator
    with pytest.raises(InvalidWeightError, match="^negative weight -1/2$"):
        FiniteMeasure(1, [((1,), 9), ((0,), -3)], den=6)
    with pytest.raises(InvalidWeightError, match="^negative weight -1/6$"):
        FiniteMeasure(1, [((0,), F(-1, 3))], den=2)
    for den in (0, -3, True, 2.0, F(1, 2)):
        with pytest.raises(InvalidWeightError, match="^den must be"):
            FiniteMeasure(1, [((0,), 1)], den=den)


# (entries, den, expected): the weights of the result, or the error type and
# text; plain and coerced entries in either order, each read as if all
# entries had been coerced
_MIXED_ENTRY_CASES = [
    # a plain entry before a coerced one, and a coerced one before a plain one
    ([((0,), 1), ((1,), F(3))], 4, {(0,): F(1, 4), (1,): F(3, 4)}),
    ([((1,), F(3)), ((0,), 1)], 4, {(0,): F(1, 4), (1,): F(3, 4)}),
    ([([1], 3), ((0,), 1)], 4, {(0,): F(1, 4), (1,): F(3, 4)}),
    ([((0,), 1), ([1], 3)], 4, {(0,): F(1, 4), (1,): F(3, 4)}),
    # plain and coerced weights summed on one point, a coerced zero dropped
    ([((1,), 1), ((1,), F(1, 2)), ((0,), 2), ((1,), F(1, 2)), ((2,), F(0))], 4, {(0,): F(1, 2), (1,): F(1, 2)}),
    ([((0,), F(1, 3)), ((1,), 1), ((0,), F(2, 3))], 2, {(0,): F(1, 2), (1,): F(1, 2)}),
    # a Fraction before a negative int, and the reverse
    ([((0,), F(1, 2)), ((1,), -1)], 1, (InvalidWeightError, "negative weight -1")),
    ([((0,), F(1, 2)), ((1,), -1)], 2, (InvalidWeightError, "negative weight -1/2")),
    ([((1,), -1), ((0,), F(1, 2))], 2, (InvalidWeightError, "negative weight -1/2")),
    # a malformed zero-weight entry after a valid one, plain or coerced
    ([((0,), 1), ((0.0,), 0)], 1, (DomainError, "point coordinates must be integers, got 0.0")),
    ([((0,), F(1)), ((True,), 0)], 1, (DomainError, "point coordinates must be integers, got True")),
    ([((0,), 1), ((0, 0), F(0))], 1, (DimensionMismatch, "expected a point of dimension 1, got 2")),
    ([([0], 1), ((0,), 0.0)], 1, (InvalidWeightError, "float weight 0.0 is not exact; pass a Fraction or an int")),
]


@pytest.mark.parametrize("entries, den, expected", _MIXED_ENTRY_CASES)
def test_plain_and_coerced_entries_in_any_order(entries, den, expected):
    # the same entries as a measure, a probability measure, and the atoms
    # (x, x) of a coupling on the diagonal
    diagonal = [((x, x), w) for x, w in entries]
    marginal = ProbabilityMeasure(1, expected.items()) if isinstance(expected, dict) else dirac(0)
    builds = (
        lambda: FiniteMeasure(1, entries, den=den),
        lambda: ProbabilityMeasure(1, iter(entries), den=den),
        lambda: Coupling(1, diagonal, marginal, marginal, den=den),
    )
    if isinstance(expected, dict):
        pairs = {(x, x): w for x, w in expected.items()}
        assert [dict(build().items()) for build in builds] == [expected, expected, pairs]
    else:
        error, message = expected
        for build in builds:
            with pytest.raises(error) as caught:
                build()
            assert str(caught.value) == message


def test_atoms_stored_sorted():
    m = FiniteMeasure(2, [((1, 0), 1), ((0, 5), 1), ((0, -1), 2)])
    assert m.support() == [(0, -1), (0, 5), (1, 0)]


def test_normalize():
    assert uniform([0, 1]).weight_at(0) == F(1, 2)
    assert FiniteMeasure(1, [(0, F(2, 3))]).normalize().weight_at(0) == 1
    m = FiniteMeasure(1, [(0, 1), (1, 2)]).normalize()
    assert m.weight_at(0) == F(1, 3) and m.weight_at(1) == F(2, 3)


def test_entropy_examples():
    assert dirac(0).relative_entropy() == 0.0
    assert uniform(range(5)).relative_entropy() == pytest.approx(-math.log(5), abs=1e-12)
    m = ProbabilityMeasure(1, [(0, F(1, 3)), (1, F(2, 3))])
    expected = (1 / 3) * math.log(1 / 3) + (2 / 3) * math.log(2 / 3)
    assert m.relative_entropy() == pytest.approx(expected, abs=1e-12)


@given(small_measures)
@settings(max_examples=80)
def test_entropy_nonpositive_zero_iff_dirac(m):
    h = m.relative_entropy()
    assert h <= 0.0
    assert (h == 0.0) == (len(m) == 1)


def test_disintegrate_single_block():
    m = uniform([(0, 0), (1, 2)])
    fam = m.disintegrate(Decomposition(((2, standard_order(2)),)))
    assert fam == ({(): m},)
    assert fam[0][()] is m


def test_disintegrate_example():
    m = uniform([(0, 0), (0, 1), (1, 0)])
    fam = m.disintegrate(singleton_decomposition(2))
    root = fam[0][()]
    assert root == ProbabilityMeasure(1, [(0, F(2, 3)), (1, F(1, 3))])
    assert fam[1][(0,)] == uniform([0, 1])
    assert fam[1][(1,)] == dirac(0)
    # prefixes of zero mass have no conditional
    with pytest.raises(KeyError):
        fam[1][(7,)]


def test_disintegrate_product_measure():
    rho = uniform([0, 3])
    sigma = ProbabilityMeasure(1, [(0, F(1, 4)), (1, F(3, 4))])
    prod = ProbabilityMeasure(
        2, [((a, b), wa * wb) for (a,), wa in rho.items() for (b,), wb in sigma.items()]
    )
    fam = prod.disintegrate(singleton_decomposition(2))
    assert list(fam[1]) == [(0,), (3,)]
    for prefix in fam[1]:
        assert fam[1][prefix] == sigma


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 9)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=80)
def test_recombination_identity(entries):
    m = FiniteMeasure(2, [((a, b), F(w)) for a, b, w in entries]).normalize()
    d = singleton_decomposition(2)
    fam = m.disintegrate(d)
    for x, w in m.items():
        recombined = F(1)
        for i in range(d.block_count):
            lo = d.offset(i)
            recombined *= fam[i][x[:lo]].weight_at(x[lo : lo + d.block_dim(i)])
        assert recombined == w
    with pytest.raises(KeyError):
        fam[1][(99,)]


def test_contains_coerces_like_weight_at():
    m = ProbabilityMeasure(1, [(0, F(1, 2)), (1, F(1, 2))])
    assert 0 in m and (1,) in m and [0] in m
    assert 2 not in m
    assert m.weight_at(0) == F(1, 2)
    with pytest.raises(DimensionMismatch):
        (0, 0) in m
    with pytest.raises(DomainError):
        "a" in m


def _fresh_family(m, d):
    # the family of an equal measure that has never been disintegrated
    return ProbabilityMeasure(m.dim, list(m.items())).disintegrate(d)


measures_3d = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 9)),
    min_size=1,
    max_size=8,
).map(lambda e: FiniteMeasure(3, [((a, b, c), F(w)) for a, b, c, w in e]).normalize())


@given(measures_3d)
@settings(max_examples=40, derandomize=True)
def test_disintegration_is_computed_once_per_decomposition(m):
    singletons = singleton_decomposition(3)
    blocks = Decomposition(
        ((2, AdditiveTotalOrder(2, (2, 1), (-1, 1))), (1, standard_order(1)))
    )
    fam = m.disintegrate(singletons)
    assert m.disintegrate(singletons) is fam
    assert m.disintegrate(singleton_decomposition(3)) is fam  # an equal key
    assert fam == _fresh_family(m, singletons)
    other = m.disintegrate(blocks)
    assert m.disintegrate(blocks) is other
    assert other == _fresh_family(m, blocks)
    assert len(other) == 2 and len(fam) == 3
    assert other[1].keys() == {x[:2] for x in m.support()}
    # the first family is still the one handed out before
    assert m.disintegrate(singletons) is fam


def test_trusted_measures_disintegrate():
    d = singleton_decomposition(2)
    raw = FiniteMeasure(2, [((0, 0), 1), ((0, 1), 2), ((1, 0), 3)])
    normalized = raw.normalize()
    fam = normalized.disintegrate(d)
    assert fam == _fresh_family(normalized, d)
    assert fam[1][(0,)] == ProbabilityMeasure(1, [(0, F(1, 3)), (1, F(2, 3))])
    nu = uniform([(1, 1), (2, -1)])
    pi = Coupling(2, [(((0, 0), (1, 1)), F(1, 6)), (((0, 1), (1, 1)), F(1, 3)),
                      (((1, 0), (2, -1)), F(1, 2))], normalized, nu)
    for side in ("first", "second"):
        marginal = pi.marginal(side)
        assert marginal.disintegrate(d) == _fresh_family(marginal, d)


def test_cached_disintegration_keeps_equality_and_repr():
    m = uniform([(0, 0), (0, 1), (1, 0)])
    twin = uniform([(0, 0), (0, 1), (1, 0)])
    before = repr(m)
    m.disintegrate(singleton_decomposition(2))
    assert m == twin and twin == m
    assert repr(m) == before == "ProbabilityMeasure(dim=2, atoms=3, mass=1)"


def test_disintegrate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        uniform([0, 1]).disintegrate(singleton_decomposition(2))


def test_measure_equality_is_exact():
    a = ProbabilityMeasure(1, [(0, F(1, 3)), (1, F(2, 3))])
    b = ProbabilityMeasure(1, [(1, F(2, 3)), (0, F(1, 3))])
    assert a == b
    assert a != uniform([0, 1])


exact_entries = st.lists(
    st.tuples(st.integers(-3, 3), st.builds(F, st.integers(0, 12), st.integers(1, 12))),
    min_size=1,
    max_size=6,
).filter(lambda entries: any(w for _, w in entries))


@given(exact_entries, exact_entries)
@settings(max_examples=50, derandomize=True)
def test_stored_form_is_unique_lowest_common_terms(first, second):
    # numerators over one denominator, in lowest common terms: equal
    # measures have equal fields, and the form holds the summed weights
    def summed(entries):
        out = {}
        for x, w in entries:
            if w:
                out[(x,)] = out.get((x,), 0) + w
        return out

    a, b = FiniteMeasure(1, first), FiniteMeasure(1, second)
    for m, entries in ((a, first), (b, second)):
        assert math.gcd(m._den, *m._atoms.values()) == 1
        assert dict(m.items()) == summed(entries)
        assert m.total_mass == sum(summed(entries).values())
    assert (a == b) == (summed(first) == summed(second))
    assert FiniteMeasure(1, first + first[::-1]) == FiniteMeasure(1, [(x, 2 * w) for x, w in first])
    assert a.normalize() == FiniteMeasure(1, [(x, w / a.total_mass) for x, w in a.items()])


def test_error_messages_never_fail_to_format():
    # the mass has about 6000 digits, more than int-to-str allows
    big = 10**2999
    heavy = [(0, F(1, big + 1)), (1, F(1, big + 3))]
    bits = "a ratio of a 9964-bit numerator and a 19925-bit denominator"
    huge = "a ratio of a 16610-bit numerator and a 1-bit denominator"
    with pytest.raises(InvalidWeightError, match=f"negative weight {huge}"):
        FiniteMeasure(1, [(0, -F(10**5000))])
    with pytest.raises(DomainError, match=f"got \\({huge}, 1, 1, 1\\)"):
        ExponentQuadruple(F(10**5000), 1, 1, 1)
    with pytest.raises(InvalidWeightError, match=bits):
        ProbabilityMeasure(1, heavy)
    with pytest.raises(InvalidWeightError, match="must have mass 1, got 1/2$"):
        ProbabilityMeasure(1, [(0, F(1, 2))])
    mu = dirac(0)
    with pytest.raises(InvalidWeightError, match=bits):
        Coupling(1, [(((x,), (x,)), w) for x, w in heavy], mu, mu)
    with pytest.raises(InvalidWeightError, match="total mass 1, got 3/2$"):
        Coupling(1, [(((0,), (0,)), F(3, 2))], mu, mu)
