import dataclasses
from fractions import Fraction as F
from typing import Callable, NamedTuple

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
    Ordering,
    Point,
    VERIFIED,
    VIOLATED,
    VerificationReport,
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
    product,
    singleton_decomposition,
    standard_order,
)
from discretebm import jsonio
from discretebm.lattice import basis_point
from discretebm.operations import _BY_CONSTRUCTION, MAX_BOX_PAIRS, _check_box_radius
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


def three_block_op():
    # block 3 is negated at the single prefix difference (3, 0)
    return from_difference_map(
        3, None, lambda w: (w[0] // 2, w[1] // 2, -w[2] if (w[0], w[1]) == (3, 0) else w[2] // 2)
    )


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
        assert d.order(w["block"] - 1).compare(t1, t2) is Ordering.GREATER


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


# check_p1 as it was before it checked the difference identity, kept
# verbatim: unit and all-ones shifts of the pairs of the radius-r box.


def reference_check_p1(op: LatticeOperation, box_radius: int = 4) -> VerificationReport:
    """Exhaustive translation-equivariance check on the box.

    Shifts range over the signed basis vectors and the all-ones vector;
    both maps of the pair are tested.
    """
    if box_radius < 1:
        raise DomainError("box radius must be >= 1")
    pts = box_points(op.dim, box_radius)
    shifts: list[Point] = []
    for i in range(op.dim):
        shifts.append(basis_point(op.dim, i, 1))
        shifts.append(basis_point(op.dim, i, -1))
    shifts.append((1,) * op.dim)
    tm, tp = op.t_minus, op.t_plus
    for x in pts:
        for y in pts:
            base_m = tm(x, y)
            base_p = tp(x, y)
            for z in shifts:
                xz, yz = point_add(x, z), point_add(y, z)
                if tm(xz, yz) != point_add(base_m, z) or tp(xz, yz) != point_add(base_p, z):
                    return VerificationReport(
                        check="p1",
                        outcome=VIOLATED,
                        witness={"x": x, "y": y, "z": z},
                    )
    return VerificationReport(
        check="p1",
        outcome=VERIFIED,
        detail=f"{len(pts) ** 2} pairs x {len(shifts)} shifts",
    )


# The constructors as they were before every operation carried its
# difference map, kept verbatim but for the pair type: pair lambdas,
# product and section lambda chains, and from_difference_map's own T-/T+.


class ReferencePair(NamedTuple):
    """A pair of maps given directly, as LatticeOperation once allowed."""

    dim: int
    decomposition: Decomposition
    t_minus: Callable
    t_plus: Callable
    kind: str
    t: Callable | None = None


def reference_meet_join(dim: int) -> ReferencePair:
    """Coordinatewise minimum and maximum."""
    return ReferencePair(
        dim=dim,
        decomposition=singleton_decomposition(dim),
        t_minus=lambda x, y: tuple(map(min, x, y)),
        t_plus=lambda x, y: tuple(map(max, x, y)),
        kind="meet_join",
    )


def reference_midpoint(dim: int) -> ReferencePair:
    """Coordinatewise floor and ceiling of the average.

    Floor is toward minus infinity (max {m in Z : m <= r}), matching
    Python's // on negative sums; the ceiling is the complement.
    """
    return ReferencePair(
        dim=dim,
        decomposition=singleton_decomposition(dim),
        t_minus=lambda x, y: tuple((a + b) // 2 for a, b in zip(x, y)),
        t_plus=lambda x, y: tuple((a + b) - (a + b) // 2 for a, b in zip(x, y)),
        kind="midpoint",
    )


def reference_product(a: ReferencePair, b: ReferencePair) -> ReferencePair:
    """Blockwise product: ``a`` acts on the first dim(a) coordinates, ``b``
    on the rest.  The decomposition is the concatenation of the factors'.
    """
    da = a.dim
    am, ap, bm, bp = a.t_minus, a.t_plus, b.t_minus, b.t_plus
    return ReferencePair(
        dim=a.dim + b.dim,
        decomposition=Decomposition(a.decomposition.blocks + b.decomposition.blocks),
        t_minus=lambda x, y: am(x[:da], y[:da]) + bm(x[da:], y[da:]),
        t_plus=lambda x, y: ap(x[:da], y[:da]) + bp(x[da:], y[da:]),
        kind="product",
    )


def reference_from_difference_map(
    dim: int,
    decomposition,
    t,
) -> ReferencePair:
    """Operation determined by its single-variable section t(w) = T-(w, 0).

    Translation equivariance forces T-(x,y) = t(x-y) + y, and t_plus is
    the complement, so P1 and the complement identity hold for any t.
    P2 is NOT guaranteed and must be checked against the declared
    decomposition (singleton standard blocks when omitted).
    """
    d = decomposition if decomposition is not None else singleton_decomposition(dim)

    def t_minus(x: Point, y: Point) -> Point:
        return tuple(tw + b for tw, b in zip(t(tuple(a - b for a, b in zip(x, y))), y))

    def t_plus(x: Point, y: Point) -> Point:
        tm = t_minus(x, y)
        return tuple(a + b - m for a, b, m in zip(x, y, tm))

    return ReferencePair(
        dim=dim, decomposition=d, t_minus=t_minus, t_plus=t_plus, kind="difference_map"
    )


def reference_block_section(
    op: ReferencePair, level: int, prefix_x: Point, prefix_y: Point
) -> ReferencePair:
    """One-block operation obtained by freezing the leading blocks.

    Evaluates the full pair with the given prefixes and zero suffixes and
    extracts block ``level``.  For a triangular operation the suffix
    choice is irrelevant; the section of a complementing pair is itself
    complementing, and sections of P1 operations are P1 on their block.
    """
    d = op.decomposition
    bdim = d.block_dim(level)
    order = d.order(level)
    off = d.offset(level)
    if len(prefix_x) != off or len(prefix_y) != off:
        raise DimensionMismatch(
            f"block {level} expects prefixes of length {off}, got {len(prefix_x)}, {len(prefix_y)}"
        )
    suffix = (0,) * (op.dim - off - bdim)
    lo, hi = off, off + bdim
    tm, tp = op.t_minus, op.t_plus
    return ReferencePair(
        dim=bdim,
        decomposition=Decomposition(((bdim, order),)),
        t_minus=lambda u, v: tm(prefix_x + u + suffix, prefix_y + v + suffix)[lo:hi],
        t_plus=lambda u, v: tp(prefix_x + u + suffix, prefix_y + v + suffix)[lo:hi],
        kind="section",
    )


# check_complement as it was before the complement held by construction,
# kept verbatim.


def reference_check_complement(op: LatticeOperation, box_radius: int = 4) -> VerificationReport:
    """Exhaustive check of t_minus + t_plus = x + y on the box."""
    _check_box_radius(op.dim, box_radius)
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


def _halved_prefix_sums(w):
    # each block of a section depends on the prefix difference
    return tuple(sum(w[: i + 1]) // 2 for i in range(len(w)))


@st.composite
def built_pairs(draw, max_dim=3, shapes=("base", "product", "difference_map", "mixing", "section")):
    """An operation built by the library and the same operation built by the
    reference constructors: a midpoint or meet_join, a nested product in
    either order, a parsed difference-map spec with table overrides, a
    difference map mixing the coordinates, or a block section of one of
    the last three at a drawn level and prefixes."""
    shape = draw(st.sampled_from(shapes))
    if shape == "base" or max_dim == 1 and shape == "product":
        dim = draw(st.integers(1, max_dim))
        kind = draw(st.sampled_from(("midpoint", "meet_join")))
        new, ref = (midpoint, reference_midpoint) if kind == "midpoint" else (meet_join, reference_meet_join)
        return new(dim), ref(dim)
    if shape == "product":
        k = draw(st.integers(1, max_dim - 1))
        (a, ra), (b, rb) = draw(built_pairs(k)), draw(built_pairs(max_dim - k))
        return product(a, b), reference_product(ra, rb)
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
        ref = reference_from_difference_map(dim, None, lambda w: table.get(w, base(w)))
        return jsonio.parse_operation(spec), ref
    if shape == "mixing":
        dim = draw(st.integers(1, max_dim))
        return from_difference_map(dim, None, _halved_prefix_sums), reference_from_difference_map(
            dim, None, _halved_prefix_sums
        )
    op, ref = draw(built_pairs(max_dim, ("product", "difference_map", "mixing")))
    level = draw(st.integers(0, op.decomposition.block_count - 1))
    prefix = st.tuples(*[st.integers(-2, 2)] * op.decomposition.offset(level))
    px, py = draw(prefix), draw(prefix)
    return block_section(op, level, px, py), reference_block_section(ref, level, px, py)


THREE_BLOCKS = three_block_op(), reference_from_difference_map(3, None, three_block_op().t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(built_pairs(), st.integers(1, 2))
# block 3 of three_block_op is negated at the prefix difference (3, 0) only
@example(
    (
        block_section(THREE_BLOCKS[0], 2, (2, 1), (-1, 1)),
        reference_block_section(THREE_BLOCKS[1], 2, (2, 1), (-1, 1)),
    ),
    1,
)
def test_derived_operations_equal_the_reference_constructors(pair, radius):
    op, ref = pair
    assert op.t is not None and ref.t is None
    assert (op.dim, op.decomposition) == (ref.dim, ref.decomposition)
    pts = box_points(op.dim, radius if op.dim < 3 else 1)
    for x in pts:
        for y in pts:
            assert op.t_minus(x, y) == ref.t_minus(x, y)
            assert op.t_plus(x, y) == ref.t_plus(x, y)


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


def test_builtins_pass_the_kept_p1_and_complement_scans():
    for op in BUILT_INS:
        for radius in (1, 2) if op.dim < 3 else (1,):
            assert reference_check_p1(op, radius).ok
            assert reference_check_complement(op, radius).ok
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


def _reference_radius(op, radius):
    # the reference scans read every pair of the box; keep dim 3 at radius 1
    return radius if op.dim < 3 else 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(difference_map_ops(), builtin_ops))
@example((from_difference_map(1, None, lambda w: (7,) if w == (4,) else (w[0] // 2,)), 2))
def test_check_p1_implies_reference(case):
    op, radius = case
    radius = _reference_radius(op, radius)
    assert check_p1(op, radius).ok
    assert reference_check_p1(op, radius).ok


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(difference_map_ops(), builtin_ops))
def test_check_complement_implies_reference(case):
    op, radius = case
    radius = _reference_radius(op, radius)
    assert check_complement(op, radius).ok
    assert reference_check_complement(op, radius).ok


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


def test_section_of_a_single_block_is_the_operation():
    block = Decomposition(((2, AdditiveTotalOrder(2, (2, 1), (1, -1))),))
    op = from_difference_map(2, block, lambda w: w)
    assert block_section(op, 0, (), ()) is op
    with pytest.raises(DimensionMismatch):
        block_section(op, 0, (1,), ())
