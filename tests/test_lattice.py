import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discretebm import (
    AdditiveTotalOrder,
    Decomposition,
    DimensionMismatch,
    DomainError,
    Ordering,
    as_point,
    box_points,
    point_add,
    point_sub,
    standard_order,
)


def test_as_point_coercion():
    assert as_point(3) == (3,)
    assert as_point([1, -2]) == (1, -2)
    with pytest.raises(DomainError):
        as_point([])
    with pytest.raises(DomainError):
        as_point([1.5])
    with pytest.raises(DimensionMismatch):
        as_point((1, 2), dim=3)


def test_as_point_returns_plain_points_and_keeps_its_errors():
    point = (4, -7)
    assert as_point(point, 2) is point
    assert as_point(point) == point
    Pair = collections.namedtuple("Pair", "a b")
    assert type(as_point(Pair(1, 2), 2)) is tuple and as_point(Pair(1, 2), 2) == (1, 2)
    big = (10**40,)
    assert as_point(big, 1) is big
    cases = [
        (((True, 1), 2), DomainError, "point coordinates must be integers, got True"),
        (((1, False), None), DomainError, "point coordinates must be integers, got False"),
        (((1.0,), 1), DomainError, "point coordinates must be integers, got 1.0"),
        (((2, 1.5), 2), DomainError, "point coordinates must be integers, got 1.5"),
        ((("1",), 1), DomainError, "point coordinates must be integers, got '1'"),
        (((1, 2), 3), DimensionMismatch, "expected a point of dimension 3, got 2"),
        (((1, 2, 3), 1), DimensionMismatch, "expected a point of dimension 1, got 3"),
        (((), 0), DomainError, "points must have dimension >= 1"),
        (((), None), DomainError, "points must have dimension >= 1"),
        ((None, 1), DomainError, "cannot interpret None as a point"),
        ((1.5, 1), DomainError, "cannot interpret 1.5 as a point"),
        ((True, 1), DomainError, "cannot interpret True as a point"),
    ]
    for (value, dim), error, message in cases:
        with pytest.raises(error) as caught:
            as_point(value, dim)
        assert str(caught.value) == message


def test_point_arithmetic():
    assert point_add((1, 2), (3, -4)) == (4, -2)
    assert point_sub((1, 2), (3, -4)) == (-2, 6)
    with pytest.raises(DimensionMismatch):
        point_add((1,), (1, 2))


def test_compare_standard_lex():
    order = standard_order(2)
    assert order.compare((0, 1), (1, -5)) is Ordering.LESS
    assert order.compare((3, 3), (3, 3)) is Ordering.EQUAL


def test_compare_signed():
    # flipping the first slot's sign reverses first-coordinate dominance
    order = AdditiveTotalOrder(2, (1, 2), (-1, 1))
    assert order.compare((0, 0), (1, 0)) is Ordering.GREATER
    assert order.compare((1, 0), (0, 0)) is Ordering.LESS


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        standard_order(2).compare((0, 0), (0, 0, 0))


def test_order_validation():
    with pytest.raises(DomainError):
        AdditiveTotalOrder(2, (1, 1), (1, 1))
    with pytest.raises(DomainError):
        AdditiveTotalOrder(2, (1, 2), (1, 2))
    # the lengths are compared first: no list of 1..dim is built
    with pytest.raises(DomainError, match="permutation"):
        AdditiveTotalOrder(10**18, (1,), (1,))


def test_unit_examples():
    assert standard_order(1).unit() == (1,)
    assert standard_order(2).unit() == (0, 1)
    assert AdditiveTotalOrder(1, (1,), (-1,)).unit() == (-1,)
    # last-compared coordinate under a permutation
    assert AdditiveTotalOrder(2, (2, 1), (1, -1)).unit() == (-1, 0)


def _random_orders():
    perms = {
        1: [(1,)],
        2: [(1, 2), (2, 1)],
        3: [(1, 2, 3), (3, 1, 2), (2, 3, 1)],
    }
    for dim, plist in perms.items():
        for perm in plist:
            for k in range(2**dim):
                signs = tuple(1 if k >> i & 1 else -1 for i in range(dim))
                yield AdditiveTotalOrder(dim, perm, signs)


@pytest.mark.parametrize("order", list(_random_orders()), ids=repr)
def test_unit_minimality_exhaustive(order):
    # the unit must be the least point strictly above 0 in the whole box
    u = order.unit()
    zero = (0,) * order.dim
    assert order.compare(zero, u) is Ordering.LESS
    for g in box_points(order.dim, 2):
        if g != zero and order.compare(zero, g) is Ordering.LESS:
            assert order.leq(u, g)


def _signed_permutation_key(order, x):
    return tuple(s * x[p - 1] for p, s in zip(order.perm, order.signs))


@pytest.mark.parametrize("order", list(_random_orders()), ids=repr)
def test_keys_and_sorting_follow_the_signed_permutation(order):
    points = box_points(order.dim, 2) + [tuple(range(-7, -7 + order.dim)), (10**30,) * order.dim]
    points = points[::-2] + points[::2]
    for x in points:
        assert order.key(x) == _signed_permutation_key(order, x)
        # a point given as a list is keyed, and compared, as its tuple
        assert order.key(list(x)) == _signed_permutation_key(order, x)
        assert order.compare(list(x), points[0]) is order.compare(x, points[0])
    ranked = order.sorted_points(points)
    assert ranked == sorted(points, key=lambda x: _signed_permutation_key(order, x))
    assert order.sorted_points(iter(points)) == ranked
    if order == standard_order(order.dim):
        # the plain lexicographic order keys a point by itself
        assert all(order.key(x) is x for x in points) and ranked == sorted(points)


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.permutations(range(1, d + 1)),
            st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d),
            st.lists(
                st.tuples(*[st.integers(-20, 20) for _ in range(d)]),
                min_size=3,
                max_size=3,
            ),
        )
    )
)
@settings(max_examples=150)
def test_totality_transitivity_additivity(data):
    perm, signs, (x, y, z) = data
    order = AdditiveTotalOrder(len(perm), tuple(perm), tuple(signs))
    cmp_xy = order.compare(x, y)
    # totality: exactly one relation holds, and it flips under swapping
    assert order.compare(y, x) is Ordering(-cmp_xy.value)
    if cmp_xy is Ordering.EQUAL:
        assert x == y
    # additivity: translation by z preserves the relation
    assert order.compare(point_add(x, z), point_add(y, z)) is cmp_xy
    # transitivity on the sampled triple
    if order.leq(x, y) and order.leq(y, z):
        assert order.leq(x, z)


def test_decomposition_validation():
    with pytest.raises(DimensionMismatch):
        Decomposition(((2, standard_order(1)),))
    with pytest.raises(DomainError):
        Decomposition(((0, standard_order(1)),))


def test_box_points_sorted_and_complete():
    pts = box_points(2, 1)
    assert len(pts) == 9
    assert pts == sorted(pts)
    assert (-1, -1) in pts and (1, 1) in pts
