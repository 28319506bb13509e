import dataclasses
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discretebm import (
    AdditiveTotalOrder,
    Decomposition,
    DimensionMismatch,
    DomainError,
    ExponentQuadruple,
    LatticeOperation,
    block_section,
    box_points,
    check_complement,
    check_operation,
    check_p1,
    check_p2,
    from_difference_map,
    meet_join,
    midpoint,
    point_add,
    point_sub,
    product,
    singleton_decomposition,
    standard_order,
)
from discretebm import jsonio, operations
from discretebm.lattice import basis_point
from discretebm.operations import _BY_CONSTRUCTION, MAX_BOX_PAIRS, _block_steps
import oracle


def negate_op(dim=1):
    return from_difference_map(dim, None, lambda w: tuple(-c for c in w))


def test_meet_join_examples():
    op = meet_join(2)
    assert op.t_minus((0, 3), (2, 1)) == (0, 1)
    assert op.t_plus((0, 3), (2, 1)) == (2, 3)
    assert op.t_minus((5, 5), (5, 5)) == (5, 5)
    assert point_add(op.t_minus((0, 3), (2, 1)), op.t_plus((0, 3), (2, 1))) == (2, 4)


def test_midpoint_examples():
    op = midpoint(1)
    assert op.t_minus((1,), (2,)) == (1,)
    assert op.t_plus((1,), (2,)) == (2,)
    # floor of a negative average goes toward minus infinity
    assert op.t_minus((-1,), (-2,)) == (-2,)
    assert op.t_plus((-1,), (-2,)) == (-1,)
    assert op.t_minus((4,), (4,)) == (4,)


def test_midpoint_floor_oracle():
    # floor is max {m in Z : 2m <= s}, checked against the builder on a box
    op = midpoint(1)
    for (x,) in box_points(1, 6):
        for (y,) in box_points(1, 6):
            s = x + y
            floor = max(m for m in range(-10, 11) if 2 * m <= s)
            assert op.t_minus((x,), (y,)) == (floor,)


def test_product_blockwise():
    op = product(midpoint(1), meet_join(1))
    assert op.t_minus((1, 0), (2, 3)) == (1, 0)
    assert op.t_plus((1, 0), (2, 3)) == (2, 3)
    assert op.decomposition == singleton_decomposition(2)
    x, y = (3, -1), (3, -1)
    assert op.t_minus(x, y) == x and op.t_plus(x, y) == x


def test_difference_map_reproduces_midpoint():
    op = from_difference_map(1, None, lambda w: (w[0] // 2,))
    ref = midpoint(1)
    for x in box_points(1, 5):
        for y in box_points(1, 5):
            assert op.t_minus(x, y) == ref.t_minus(x, y)
            assert op.t_plus(x, y) == ref.t_plus(x, y)


def test_difference_map_projection_and_negation():
    proj = from_difference_map(1, None, lambda w: w)
    assert proj.t_minus((4,), (9,)) == (4,)
    assert proj.t_plus((4,), (9,)) == (9,)
    neg = negate_op()
    assert neg.t_minus((1, ), (0,)) == (-1,)  # 2y - x
    assert neg.t_plus((1,), (0,)) == (2,)  # 2x - y


def test_builtin_ops_pass_checks():
    for op, radius in [
        (midpoint(1), 5),
        (meet_join(1), 5),
        (midpoint(2), 3),
        (meet_join(2), 3),
        (product(midpoint(1), meet_join(1)), 3),
        (meet_join(3), 2),
        (midpoint(3), 2),
        (product(midpoint(2), meet_join(1)), 2),
    ]:
        assert check_p1(op, radius).ok
        assert check_p2(op, radius).ok
        assert check_complement(op, radius).ok


def test_difference_map_always_p1_and_complement():
    for t in [lambda w: (0,), lambda w: (-w[0],), lambda w: (w[0] // 3,), lambda w: (5 * w[0],)]:
        op = from_difference_map(1, None, t)
        assert check_p1(op, 3).ok
        assert check_complement(op, 3).ok


def test_operation_derives_its_pair_maps_from_t():
    op = LatticeOperation(singleton_decomposition(1), lambda w: (w[0] // 3,))
    assert op.t((7,)) == (2,) and op.t((-1,)) == (-1,)
    for x in box_points(1, 4):
        for y in box_points(1, 4):
            low = (x[0] - y[0]) // 3 + y[0]
            assert op.t_minus(x, y) == (low,)
            assert op.t_plus(x, y) == (x[0] + y[0] - low,)


def test_operation_is_its_decomposition_and_difference_map():
    fields = [f.name for f in dataclasses.fields(LatticeOperation)]
    assert fields == ["decomposition", "t", "t_minus", "t_plus"]
    two = product(midpoint(1), meet_join(2))
    ops = [midpoint(3), meet_join(2), negate_op(2), two, product(two, midpoint(1))]
    ops += [block_section(two, 1, (4,), (-1,)), block_section(two, 2, (0, 1), (1, 0))]
    for op in ops:
        assert op.dim == op.decomposition.total_dim
    assert [op.dim for op in ops] == [3, 2, 2, 3, 4, 1, 1]
    message = r"decomposition of Z\^1 does not match operation on Z\^2"
    with pytest.raises(DimensionMismatch, match=message):
        from_difference_map(2, Decomposition(((1, standard_order(1)),)), lambda w: w)


def test_check_p2_negation_witness():
    rep = check_p2(negate_op(), 2)
    assert not rep.ok
    w = rep.witness
    assert w["kind"] == "monotonicity"
    # recompute the violation from the witness
    op = negate_op()
    tmap = op.t_minus if w["map"] == "minus" else op.t_plus
    t1 = tmap(tuple(w["prefix_x"]) + tuple(w["x1"]), tuple(w["prefix_y"]) + tuple(w["y1"]))
    t2 = tmap(tuple(w["prefix_x"]) + tuple(w["x2"]), tuple(w["prefix_y"]) + tuple(w["y2"]))
    assert t1 > t2


def test_check_p2_triangularity_witness():
    # block 1 reads the second coordinate, so the map is not triangular
    op = from_difference_map(2, None, lambda w: (w[0] + w[1], w[1]))
    rep = check_p2(op, 2)
    assert not rep.ok
    assert rep.witness["kind"] == "triangularity"


def test_product_p2_fails_iff_factor_fails():
    good = product(midpoint(1), meet_join(1))
    assert check_p2(good, 3).ok
    bad = product(midpoint(1), negate_op())
    rep = check_p2(bad, 2)
    assert not rep.ok
    assert rep.witness["block"] == 2


def test_check_operation_aggregate():
    assert check_operation(midpoint(1), 3).ok
    rep = check_operation(negate_op(), 2)
    assert not rep.ok
    assert any(sub.check == "p2" and not sub.ok for sub in rep.subchecks)


def test_block_section_matches_factor():
    op = product(midpoint(1), meet_join(1))
    sec = block_section(op, 1, (3,), (-2,))
    ref = meet_join(1)
    for u in box_points(1, 3):
        for v in box_points(1, 3):
            assert sec.t_minus(u, v) == ref.t_minus(u, v)
            assert sec.t_plus(u, v) == ref.t_plus(u, v)


def test_exponent_quadruple_validation():
    e = ExponentQuadruple(F(1, 2), F(1, 3), F(3, 4), F(1))
    assert e.common_denominator == 12
    assert e.integer_exponents() == (6, 4, 9, 12)
    assert ExponentQuadruple.unit().integer_exponents() == (1, 1, 1, 1)
    with pytest.raises(DomainError):
        ExponentQuadruple(F(2), F(1), F(1), F(1))
    with pytest.raises(DomainError):
        ExponentQuadruple(F(0), F(1), F(1), F(1))
    with pytest.raises(DomainError):
        ExponentQuadruple(F(1), F(1), F(1), F(-1))


_NAMES = ("alpha", "beta", "gamma", "delta")


def _fraction_form(values):
    """What the exponents give on Fraction arithmetic: the first error
    text, or the common denominator and the integer exponents."""
    for name, v in zip(_NAMES, values):
        if isinstance(v, float):
            return f"float exponent {name}={v!r} is not exact; pass a Fraction or an int"
    values = [F(v) for v in values]
    for name, v in zip(_NAMES, values):
        if v <= 0:
            return f"exponent {name} must be positive"
    if max(values[:2]) > min(values[2:]):
        return (
            "exponents must satisfy max(alpha, beta) <= min(gamma, delta); "
            f"got ({', '.join(map(str, values))})"
        )
    n = math.lcm(*(v.denominator for v in values))
    return n, tuple(int(v * n) for v in values)


_EXPONENT_INPUTS = [
    (1, 1, 1, 1),
    (1, 2, 3, 4),
    (F(1, 2), F(1, 3), F(3, 4), F(1)),
    ("1/2", "2/6", "3/4", "1"),
    ("0.25", 1, F(7, 5), "5/4"),
    (F(6, 4), "3/2", 2, F(3, 2)),
    (0, 1, 1, 1),
    (1, 1, 1, -1),
    (F(-1, 3), "0", 0, -2),
    ("1/2", 1, 1, F(-1, 10**30)),
    (2, 1, 1, 1),
    (1, F(3, 2), F(5, 4), 2),
    ("1/3", "1/2", "1/2", "1/3"),
    (F(10**20 + 1, 10**20), 1, 1, 1),
    # a float is refused: 0.3 once became a 55-bit binary Fraction
    (0.5, 0.3, 0.7, 0.7),
    (F(1, 2), "1/3", 1, 1.0),
]


def _assert_fraction_form(values):
    want = _fraction_form(values)
    if isinstance(want, str):
        with pytest.raises(DomainError) as caught:
            ExponentQuadruple(*values)
        assert str(caught.value) == want
    else:
        e = ExponentQuadruple(*values)
        assert (e.common_denominator, e.integer_exponents()) == want
        assert [e.alpha, e.beta, e.gamma, e.delta] == [F(v) for v in values]
        assert all(type(v) is F for v in (e.alpha, e.beta, e.gamma, e.delta))


@pytest.mark.parametrize("values", _EXPONENT_INPUTS, ids=repr)
def test_exponent_quadruple_follows_the_fraction_form(values):
    _assert_fraction_form(values)


@given(st.lists(st.fractions(min_value=-2, max_value=3, max_denominator=12), min_size=4, max_size=4))
@settings(max_examples=100, derandomize=True)
def test_random_exponents_follow_the_fraction_form(values):
    _assert_fraction_form(values)


def test_check_radius_validation():
    with pytest.raises(DomainError):
        check_p1(midpoint(1), 0)


def test_box_checks_reject_oversized_boxes_before_any_evaluation():
    def unreachable(w):
        raise AssertionError("a map was evaluated")

    for dim, radius in ((1, 10**8), (1, 2**63), (2, 20), (3, 6), (4, 3), (1000, 1)):
        op = from_difference_map(dim, None, unreachable)
        for check in (check_p1, check_p2, check_complement, check_operation):
            with pytest.raises(DomainError, match="box checks scan at most 2000000"):
                check(op, radius)
    # the largest boxes the cap admits: the radius-r pair box that check_p2
    # scans, radius 5 in dim 3 with 11^6 = 1,771,561 pairs
    assert MAX_BOX_PAIRS == 2_000_000 and 11**6 <= MAX_BOX_PAIRS < 13**6


def test_midpoint_dim3_verifies_at_the_largest_admitted_radius():
    rep = check_operation(midpoint(3), 5)
    assert rep.ok and [r.outcome for r in rep.subchecks] == ["verified"] * 3


def _three_block_t(w):
    # block 3 is negated at the single prefix difference (3, 0)
    return (w[0] // 2, w[1] // 2, -w[2] if (w[0], w[1]) == (3, 0) else w[2] // 2)


def three_block_op():
    return from_difference_map(3, None, _three_block_t)


def test_check_p2_scans_every_prefix_difference():
    # the prefix difference (3, 0) needs prefixes such as (2, 0) and (-1, 0),
    # outside the radius-1 prefix sub-box that three blocks once fell back to
    op = three_block_op()
    for rep in (check_p2(op, 2), check_operation(op, 2), check_p2(op, 3)):
        assert not rep.ok
        w = rep.witness
        assert w["kind"] == "monotonicity" and w["block"] == 3
        assert tuple(a - b for a, b in zip(w["prefix_x"], w["prefix_y"])) == (3, 0)


def _orders(dim):
    return st.tuples(
        st.permutations(range(1, dim + 1)), st.lists(st.sampled_from((-1, 1)), min_size=dim, max_size=dim)
    ).map(lambda ps: AdditiveTotalOrder(dim, tuple(ps[0]), tuple(ps[1])))


_BASES = (
    lambda w: tuple(c // 2 for c in w),
    lambda w: tuple(min(c, 0) for c in w),
    lambda w: w,
    lambda w: tuple(0 for _ in w),
    lambda w: tuple(-c for c in w),
)


@st.composite
def difference_map_ops(draw):
    """A difference map with a few table overrides near a base map, on a
    singleton, one-block or two-block decomposition, with a box radius."""
    dim = draw(st.integers(1, 3))
    radius = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("singleton", "one-block", "two-block")))
    if shape == "singleton":
        decomposition = singleton_decomposition(dim)
    elif shape == "one-block" or dim == 1:
        decomposition = Decomposition(((dim, draw(_orders(dim))),))
    else:
        k = draw(st.integers(1, dim - 1))
        decomposition = Decomposition(((k, draw(_orders(k))), (dim - k, draw(_orders(dim - k)))))
    base = draw(st.sampled_from(_BASES))
    coords = st.integers(-2 * radius, 2 * radius)
    keys = draw(st.lists(st.tuples(*[coords] * dim), max_size=3, unique=True))
    table = {
        w: point_add(base(w), draw(st.tuples(*[st.integers(-2, 2)] * dim))) for w in keys
    }
    return from_difference_map(dim, decomposition, lambda w: table.get(w, base(w))), radius


builtin_ops = st.tuples(
    st.sampled_from(
        [
            midpoint(1),
            meet_join(1),
            midpoint(2),
            meet_join(3),
            product(midpoint(1), meet_join(1)),
            product(midpoint(2), meet_join(1)),
            product(meet_join(1), midpoint(2)),
        ]
    ),
    st.integers(1, 3),
)


def _assert_witness_reproduces(op, w):
    tmap = op.t_minus if w["map"] == "minus" else op.t_plus
    d = op.decomposition
    lo = d.offset(w["block"] - 1)
    hi = lo + d.block_dim(w["block"] - 1)
    if w["kind"] == "triangularity":
        x, y = tuple(w["x"]), tuple(w["y"])
        bump = basis_point(op.dim, w["coordinate"] - 1, w["delta"])
        x2, y2 = (point_add(x, bump), y) if w["argument"] == "first" else (x, point_add(y, bump))
        assert tmap(x2, y2)[lo:hi] != tmap(x, y)[lo:hi]
    else:
        pad = (0,) * (op.dim - hi)

        def section(u, v):
            return tmap(tuple(w["prefix_x"]) + tuple(u) + pad, tuple(w["prefix_y"]) + tuple(v) + pad)[lo:hi]

        t1, t2 = section(w["x1"], w["y1"]), section(w["x2"], w["y2"])
        assert (t1, t2) == (tuple(w["t1"]), tuple(w["t2"]))
        key = d.order(w["block"] - 1).key
        assert key(t1) > key(t2)


def _oracle_radius(op, radius):
    # the largest radius up to ``radius`` whose box of pairs the oracle
    # scans in well under a second
    while (2 * radius + 1) ** (2 * op.dim) > 2500:
        radius -= 1
    return radius


def _steps_past_the_difference_box(w, radius):
    x, y = tuple(w["x"]), tuple(w["y"])
    j = w["coordinate"] - 1
    return abs(x[j] - y[j] + w["delta"]) > 2 * radius


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(difference_map_ops(), builtin_ops))
@example((from_difference_map(2, None, lambda w: (w[0] + w[1], w[1])), 2))
@example((three_block_op(), 2))
# T-(x, y) = 2x - y is monotone in x only
@example((from_difference_map(1, None, lambda w: (2 * w[0],)), 2))
# block 2 is negated at the prefix difference 1 only
@example((from_difference_map(2, None, lambda w: (w[0] // 2, -w[1] if w[0] == 1 else w[1] // 2)), 2))
# block 1 reads w1 only below the difference box, one step past its edge
@example((from_difference_map(2, None, lambda w: (w[0] // 2 - (w[1] < -4), w[1] // 2)), 2))
def test_check_p2_matches_the_oracle(case):
    op, radius = case
    rep = check_p2(op, radius)
    if not rep.ok:
        _assert_witness_reproduces(op, rep.witness)
    small = _oracle_radius(op, radius)
    holds = oracle.p2_holds(op, small)
    # a violation on a smaller box is one on the whole box
    assert holds or not rep.ok
    if small == radius and holds and not rep.ok:
        # check_p2 also steps one unit past the difference box
        assert rep.witness["kind"] == "triangularity"
        assert _steps_past_the_difference_box(rep.witness, radius)


_SIGNED_BLOCKS = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(st.just(dim), st.lists(st.sampled_from((-1, 1)), min_size=dim, max_size=dim))
)


@st.composite
def one_dim_block_ops(draw):
    """A difference map with up to three table overrides of a base map
    inside the difference box, on 1-dim blocks of either order sign."""
    dim, signs = draw(_SIGNED_BLOCKS)
    radius = draw(st.integers(1, {1: 3, 2: 2, 3: 1}[dim]))
    decomposition = Decomposition(tuple((1, AdditiveTotalOrder(1, (1,), (s,))) for s in signs))
    base = draw(st.sampled_from(_BASES))
    coords = st.integers(-2 * radius, 2 * radius)
    keys = draw(st.lists(st.tuples(*[coords] * dim), max_size=3, unique=True))
    table = {
        w: point_add(base(w), draw(st.tuples(*[st.integers(-2, 2)] * dim))) for w in keys
    }
    return from_difference_map(dim, decomposition, lambda w: table.get(w, base(w))), radius


@settings(max_examples=60, deadline=None, derandomize=True)
@given(one_dim_block_ops())
# block 2 reversed, not monotone at the prefix difference 2 only
@example(
    (
        from_difference_map(
            2,
            Decomposition(((1, AdditiveTotalOrder(1, (1,), (-1,))),) * 2),
            lambda w: (1, 2) if w == (2, 1) else (w[0] // 2, w[1] // 2),
        ),
        2,
    )
)
def test_check_p2_on_1dim_blocks_gives_the_oracle_verdict(case):
    # overrides stay inside the difference box and are too few to fill a
    # line of it, so the step past its edge cannot decide the verdict
    op, radius = case
    rep = check_p2(op, radius)
    assert rep.ok == oracle.p2_holds(op, radius)
    if not rep.ok:
        _assert_witness_reproduces(op, rep.witness)


_BLOCK_BASES = [jsonio._DIFFERENCE_DEFAULTS[name] for name in ("identity", "zero", "floor_half", "negate")]
_ONE = AdditiveTotalOrder(1, (1,), (-1,))
_TWO = AdditiveTotalOrder(2, (2, 1), (1, -1))
_THREE = AdditiveTotalOrder(3, (3, 1, 2), (-1, 1, -1))


def _multi_dim_block_cases():
    """Each base map on one 2-dim and one 3-dim block, and as the 2-dim
    first or second block of a two-block operation, with permuted, signed
    orders; then one map each that only a prefix difference, a later
    coordinate, the keys of w - t(w), the edge of the difference box, or
    the exact step set decides."""
    cases = []
    for base in _BLOCK_BASES:
        cases.append((from_difference_map(2, Decomposition(((2, _TWO),)), base), 2))
        cases.append((from_difference_map(3, Decomposition(((3, _THREE),)), base), 1))
        tail = Decomposition(((1, _ONE), (2, _TWO)))
        cases.append((from_difference_map(3, tail, lambda w, f=base: (w[0] // 2,) + f(w[1:])), 1))
        head = Decomposition(((2, _TWO), (1, _ONE)))
        cases.append((from_difference_map(3, head, lambda w, f=base: f(w[:2]) + (min(w[2], 0),)), 1))
    # block 2 negated at the prefix difference 1 only, and a first block
    # that reads the third coordinate
    cases.append(
        (from_difference_map(3, tail, lambda w: (w[0] // 2,) + (w[1:] if w[0] != 1 else (-w[1], -w[2]))), 1)
    )
    cases.append((from_difference_map(3, head, lambda w: (w[0], w[1] + w[2], 0)), 1))
    one_block = Decomposition(((2, _TWO),))
    # T-(x, y) = 2x - y is monotone in x only
    cases.append((from_difference_map(2, one_block, lambda w: (2 * w[0], 2 * w[1])), 1))
    # identity but at a corner of the difference box, outside the radius-1 box
    cases.append((from_difference_map(2, one_block, lambda w: (-2, -2) if w == (2, 2) else w), 1))
    # monotone on the box, though t drops from (1, 2) to (2, -2), consecutive
    # points of the difference box [-2, 2]^2 in its order
    lifted = {(1, 2), (2, 0), (2, 1), (2, 2)}
    lexicographic = Decomposition(((2, standard_order(2)),))
    cases.append((from_difference_map(2, lexicographic, lambda w: (0, 1) if w in lifted else (0, 0)), 1))
    return cases


@pytest.mark.parametrize("case", _multi_dim_block_cases())
def test_check_p2_on_blocks_of_dim_2_and_3_gives_the_oracle_verdict(case):
    op, radius = case
    rep = check_p2(op, radius)
    assert rep.ok == oracle.p2_holds(op, radius)
    if not rep.ok:
        _assert_witness_reproduces(op, rep.witness)


def _signed_permutation_orders(dim):
    for perm in itertools.permutations(range(1, dim + 1)):
        for signs in itertools.product((1, -1), repeat=dim):
            yield AdditiveTotalOrder(dim, perm, signs)


def test_block_steps_are_the_step_set_of_the_definition():
    # every signed permutation order of dims 1 and 2 at r = 1-3 and of dim
    # 3 at r = 1, and three orders of dim 3 at r = 2 and 3
    cases = [(o, r) for dim in (1, 2) for o in _signed_permutation_orders(dim) for r in (1, 2, 3)]
    cases += [(o, 1) for o in _signed_permutation_orders(3)]
    three = (standard_order(3), _THREE, AdditiveTotalOrder(3, (2, 3, 1), (1, -1, 1)))
    cases += [(o, r) for o in three for r in (2, 3)]
    for order, r in cases:
        block = order.sorted_points(box_points(order.dim, r))
        want = {(point_sub(u, v), point_sub(u2, v)) for u, u2 in zip(block, block[1:]) for v in block}
        differences = box_points(order.dim, 2 * r)
        tails, heads = _block_steps(order, r)
        steps = [(differences[a], differences[b]) for a, b in zip(tails, heads)]
        assert len(steps) == len(want) and set(steps) == want, (order, r)


def test_check_p2_verifies_a_3_dim_block_in_one_pass():
    # 13^3 differences of [-6, 6]^3, counted once for each map
    op = from_difference_map(3, Decomposition(((3, standard_order(3)),)), lambda w: w)
    rep = check_p2(op, 3)
    assert rep.ok and rep.detail == "4394 evaluations"


def _coordinatewise(f):
    return lambda x, y: tuple(map(f, x, y))


MIN_MAX = _coordinatewise(min), _coordinatewise(max)
FLOOR_CEILING = _coordinatewise(lambda a, b: (a + b) // 2), _coordinatewise(lambda a, b: -(-(a + b) // 2))


def _difference_formulas(t):
    # T-(x, y) = y + t(x - y) and T+(x, y) = x - t(x - y)
    return lambda x, y: point_add(y, t(point_sub(x, y))), lambda x, y: point_sub(x, t(point_sub(x, y)))


def _halved_prefix_sums(w):
    # each block of a section depends on the prefix difference
    return tuple(sum(w[: i + 1]) // 2 for i in range(len(w)))


def _section_case(case, level, px, py):
    # block ``level`` of the maps at the frozen prefixes px and py, later blocks at 0
    op, d, *maps = case
    lo = d.offset(level)
    hi = lo + d.block_dim(level)
    pad = (0,) * (op.dim - hi)
    frozen = [lambda u, v, f=f: f(px + u + pad, py + v + pad)[lo:hi] for f in maps]
    return block_section(op, level, px, py), Decomposition((d.blocks[level],)), *frozen


@st.composite
def built_ops(draw, max_dim=3, shapes=("base", "product", "difference_map", "mixing", "section")):
    """An operation built by the library, with the decomposition and T-, T+
    its constructor's docstring states: min/max (meet_join), floor/ceiling
    of the average (midpoint), the factors' maps concatenated (a nested
    product), y + t(x - y) and x - t(x - y) (a parsed difference-map spec
    with table overrides, or a map mixing the coordinates), or the maps at
    frozen prefixes (a block section of one of the last three)."""
    shape = draw(st.sampled_from(shapes))
    if shape == "base" or max_dim == 1 and shape == "product":
        dim = draw(st.integers(1, max_dim))
        new, maps = draw(st.sampled_from(((midpoint, FLOOR_CEILING), (meet_join, MIN_MAX))))
        return new(dim), singleton_decomposition(dim), *maps
    if shape == "product":
        k = draw(st.integers(1, max_dim - 1))
        (a, da, am, ap), (b, db, bm, bp) = draw(built_ops(k)), draw(built_ops(max_dim - k))
        n = a.dim
        maps = [
            lambda x, y, f=f, g=g: f(x[:n], y[:n]) + g(x[n:], y[n:]) for f, g in ((am, bm), (ap, bp))
        ]
        return product(a, b), Decomposition(da.blocks + db.blocks), *maps
    if shape == "difference_map":
        dim = draw(st.integers(1, max_dim))
        default = draw(st.sampled_from(sorted(jsonio._DIFFERENCE_DEFAULTS)))
        coords = st.tuples(*[st.integers(-3, 3)] * dim)
        rows = draw(st.lists(st.tuples(coords, coords), max_size=4, unique_by=lambda r: r[0]))
        spec = {
            "kind": "difference_map",
            "dim": dim,
            "default": default,
            "table": [{"w": list(w), "t": list(t)} for w, t in rows],
        }
        base, table = jsonio._DIFFERENCE_DEFAULTS[default], dict(rows)
        maps = _difference_formulas(lambda w: table.get(w, base(w)))
        return jsonio.parse_operation(spec), singleton_decomposition(dim), *maps
    if shape == "mixing":
        dim = draw(st.integers(1, max_dim))
        maps = _difference_formulas(_halved_prefix_sums)
        return from_difference_map(dim, None, _halved_prefix_sums), singleton_decomposition(dim), *maps
    case = draw(built_ops(max_dim, ("product", "difference_map", "mixing")))
    level = draw(st.integers(0, case[1].block_count - 1))
    prefix = st.tuples(*[st.integers(-2, 2)] * case[1].offset(level))
    return _section_case(case, level, draw(prefix), draw(prefix))


THREE_BLOCKS = three_block_op(), singleton_decomposition(3), *_difference_formulas(_three_block_t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(built_ops(), st.integers(1, 2))
# block 3 of three_block_op is negated at the prefix difference (3, 0) only
@example(_section_case(THREE_BLOCKS, 2, (2, 1), (-1, 1)), 1)
def test_constructors_follow_their_formulas(case, radius):
    op, decomposition, t_minus, t_plus = case
    assert (op.dim, op.decomposition) == (decomposition.total_dim, decomposition)
    pts = box_points(op.dim, radius if op.dim < 3 else 1)
    for x in pts:
        for y in pts:
            assert (op.t_minus(x, y), op.t_plus(x, y)) == (t_minus(x, y), t_plus(x, y))


BUILT_INS = [
    midpoint(1),
    meet_join(1),
    midpoint(2),
    meet_join(2),
    midpoint(3),
    meet_join(3),
    product(midpoint(1), meet_join(1)),
    product(meet_join(1), product(midpoint(1), meet_join(1))),
    product(product(midpoint(2), meet_join(1)), midpoint(1)),
    from_difference_map(2, None, lambda w: tuple(c // 2 for c in w)),
    block_section(product(midpoint(1), meet_join(2)), 2, (3, -1), (0, 2)),
]


def test_builtins_satisfy_p1_and_the_complement_identity_on_the_box():
    for op in BUILT_INS:
        for radius in (1, 2) if op.dim < 3 else (1,):
            assert oracle.p1_holds(op, radius)
            assert oracle.complement_holds(op, radius)
            assert check_p1(op, radius).detail == _BY_CONSTRUCTION
            assert check_complement(op, radius).detail == _BY_CONSTRUCTION


def test_by_construction_checks_evaluate_nothing_and_still_reject_huge_boxes():
    def unreachable(w):
        raise AssertionError("the difference map was evaluated")

    op = from_difference_map(2, None, unreachable)
    for check in (check_p1, check_complement):
        rep = check(op, 2)
        assert rep.ok and rep.detail == _BY_CONSTRUCTION and rep.witness is None
        with pytest.raises(DomainError, match="box checks scan at most"):
            check(op, 10**8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(difference_map_ops(), builtin_ops))
@example((from_difference_map(1, None, lambda w: (7,) if w == (4,) else (w[0] // 2,)), 2))
def test_p1_and_the_complement_identity_hold_on_the_box(case):
    op, radius = case
    assert check_p1(op, radius).ok and check_complement(op, radius).ok
    small = _oracle_radius(op, radius)
    assert oracle.p1_holds(op, small) and oracle.complement_holds(op, small)


def test_pair_maps_are_set_on_the_instance_not_given():
    op = midpoint(1)
    assert {"t_minus", "t_plus"} <= vars(op).keys()
    assert "t_minus" not in repr(op) and "t_plus" not in repr(op)
    with pytest.raises(TypeError):
        LatticeOperation(singleton_decomposition(1), op.t_minus, op.t_plus)
    with pytest.raises(TypeError):
        LatticeOperation(singleton_decomposition(1), op.t, t_minus=op.t_minus)
    with pytest.raises(AttributeError):
        op.t_minus = op.t_plus
    # a hook may still replace a pair map on the instance, as a profiler does
    object.__setattr__(op, "t_minus", lambda x, y: (99,))
    assert op.t_minus((0,), (0,)) == (99,)


def test_t_is_evaluated_once_per_difference():
    seen = []

    def t(w):
        seen.append(w)
        return (w[0] // 2,)

    op = from_difference_map(1, None, t)
    for x in box_points(1, 2):
        for y in box_points(1, 2):
            op.t_minus(x, y)
            op.t_plus(x, y)
            op.t_minus(x, y)
    assert sorted(seen) == box_points(1, 4)


def test_check_p2_counts_its_own_evaluations():
    fresh = check_p2(midpoint(2), 2)
    op = midpoint(2)
    for w in box_points(2, 5):
        op.t(w)
    assert check_p2(op, 2).detail == check_p2(op, 2).detail == fresh.detail
    assert fresh.detail.endswith(" evaluations")


@pytest.mark.parametrize(
    "op, radius, evaluations",
    [
        (midpoint(2), 3, 390),
        (product(midpoint(1), meet_join(1)), 3, 390),
        (product(midpoint(2), meet_join(1)), 2, 2106),
        (midpoint(3), 4, 12138),
        (meet_join(3), 5, 22050),
    ],
)
def test_check_p2_reads_the_box_and_its_outward_steps(op, radius, evaluations):
    # the (4r+1)^n differences of the box and, for each coordinate of a
    # later block, the steps out of the box along it; 2 per difference
    assert check_p2(op, radius).detail == f"{evaluations} evaluations"


def _reference_triangularity(t, differences, lo, hi, r):
    return oracle.triangularity_break(t, len(differences[0]), lo, hi, r)


def _assert_the_reference_scan_gives_the_same_report(op, radius):
    fast = check_p2(op, radius)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operations, "_triangularity_break", _reference_triangularity)
        reference = check_p2(op, radius)
    assert (fast.outcome, fast.witness, fast.detail) == (reference.outcome, reference.witness, reference.detail)
    return fast


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(difference_map_ops(), builtin_ops))
@example((midpoint(3), 2))
@example((three_block_op(), 2))
def test_triangularity_pass_gives_the_report_of_the_reference_scan(case):
    _assert_the_reference_scan_gives_the_same_report(*case)


@pytest.mark.parametrize(
    "dim, t, radius, block, coordinate, delta",
    [
        # block 1 reads w_2 inside the difference box [-4, 4]^2: at one
        # value, and only at the last or the first step inside the box
        (2, lambda w: (w[0] // 2 + (w[1] == 1), w[1] // 2), 2, 1, 2, 1),
        (2, lambda w: (w[0] // 2 + (w[1] >= 4), w[1] // 2), 2, 1, 2, 1),
        (2, lambda w: (w[0] // 2 - (w[1] > -4), w[1] // 2), 2, 1, 2, 1),
        # only one step past its +2r face, and only one past its -2r face
        (2, lambda w: (w[0] // 2 + (w[1] > 4), w[1] // 2), 2, 1, 2, 1),
        (2, lambda w: (w[0] // 2 - (w[1] < -4), w[1] // 2), 2, 1, 2, -1),
        # three blocks: block 2 reads w_3 at one value only
        (3, lambda w: (w[0] // 2, w[1] // 2 + (w[2] == -3), w[2] // 2), 2, 2, 3, 1),
        # and block 1 reads w_3 only past its -2r face
        (3, lambda w: (w[0] // 2 - (w[2] < -6), min(w[1], 0), w[2] // 2), 3, 1, 3, -1),
    ],
)
def test_triangularity_breaks_match_the_reference_scan(dim, t, radius, block, coordinate, delta):
    op = from_difference_map(dim, None, t)
    rep = _assert_the_reference_scan_gives_the_same_report(op, radius)
    w = rep.witness
    assert (w["kind"], w["block"], w["coordinate"], w["delta"]) == ("triangularity", block, coordinate, delta)
    _assert_witness_reproduces(op, w)


def test_section_of_a_single_block_is_the_operation():
    block = Decomposition(((2, AdditiveTotalOrder(2, (2, 1), (1, -1))),))
    op = from_difference_map(2, block, lambda w: w)
    assert block_section(op, 0, (), ()) is op
    with pytest.raises(DimensionMismatch):
        block_section(op, 0, (1,), ())



def _section_ops():
    # two products and a triangular difference map whose sections vary with
    # the prefix difference; built fresh, so no section is kept yet
    return [
        product(midpoint(1), meet_join(1)),
        product(midpoint(2), meet_join(1)),
        from_difference_map(3, None, _halved_prefix_sums),
    ]


def test_block_sections_are_built_once_per_prefix_difference():
    for op, twin in zip(_section_ops(), _section_ops()):
        d = op.decomposition
        for level in range(d.block_count):
            prefixes = box_points(d.offset(level), 1)
            block = box_points(d.block_dim(level), 1)
            by_difference = {}
            for a in prefixes:
                for b in prefixes:
                    sec = block_section(op, level, a, b)
                    assert by_difference.setdefault(point_sub(a, b), sec) is sec
                    # the section's maps are block ``level`` of the full maps
                    minus, plus = oracle.section(op, level, a, b)
                    for u in block:
                        for v in block:
                            assert (sec.t_minus(u, v), sec.t_plus(u, v)) == (minus(u, v), plus(u, v))
            assert len({id(s) for s in by_difference.values()}) == len(by_difference)
            # another operation, even with equal maps, keeps its own sections
            a = prefixes[0]
            assert block_section(twin, level, a, a) is not block_section(op, level, a, a)
