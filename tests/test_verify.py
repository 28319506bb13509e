import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discretebm import (
    Coupling,
    DimensionMismatch,
    check_fiber_structure,
    ExponentQuadruple,
    FiniteMeasure,
    FunctionQuadruple,
    ProbabilityMeasure,
    entropy_gap,
    from_difference_map,
    iter_conditional_couplings,
    knothe_coupling,
    log_laplace_gap,
    marginal_exactness,
    meet_join,
    midpoint,
    monotone_coupling,
    p_value,
    pointwise_term_bound,
    product,
    product_coupling,
    set_dbm,
    singleton_decomposition,
    standard_order,
    verify_conclusion,
    verify_dbm,
    verify_hypothesis,
)
from discretebm import operations
from discretebm.operations import image_sets
from discretebm.suite import generate_instance, random_exponents, random_points, random_quadruple
from discretebm.seeding import stream
from discretebm.verify import DEFAULT_TOLERANCE, _term, _transport
from helpers import dirac, uniform
import oracle

ORDER1 = standard_order(1)
UNIT = ExponentQuadruple.unit()


def indicator(points, dim=1):
    return FiniteMeasure(dim, [(p, 1) for p in points])


def negate_op():
    return from_difference_map(1, None, lambda w: (-w[0],))


# -- hypothesis / conclusion ---------------------------------------------------


def test_hypothesis_indicator_interval():
    ind = indicator([0, 1])
    quad = FunctionQuadruple(ind, ind, ind, ind)
    assert verify_hypothesis(quad, UNIT, midpoint(1)).ok


def test_hypothesis_violation_witness():
    quad = FunctionQuadruple(
        indicator([0]), indicator([0]), indicator([1]), indicator([1])
    )
    rep = verify_hypothesis(quad, UNIT, midpoint(1))
    assert not rep.ok
    assert rep.witness == {"x": (0,), "y": (0,)}
    assert rep.lhs == 1 and rep.rhs == 0


def test_hypothesis_scaled_atoms():
    two = FiniteMeasure(1, [(0, 2)])
    one = indicator([0])
    quad = FunctionQuadruple(two, one, two, two)
    rep = verify_hypothesis(quad, UNIT, midpoint(1))
    assert rep.ok


def test_conclusion_examples():
    ind2 = indicator([0, 1])
    ind3 = indicator([0, 1, 2])
    assert verify_conclusion(FunctionQuadruple(ind2, ind2, ind3, ind3), UNIT).ok
    sums = verify_conclusion(FunctionQuadruple(ind2, ind2, ind3, ind3), UNIT)
    assert sums.lhs == 4 and sums.rhs == 9

    five = indicator([0, 1, 2, 3, 4])
    rep = verify_conclusion(FunctionQuadruple(five, indicator([0]), ind2, ind2), UNIT)
    assert not rep.ok
    assert rep.lhs == 5 and rep.rhs == 4
    assert rep.witness["sum_f"] == 5


def test_verify_dbm_paths():
    ind = indicator([0, 1])
    good = FunctionQuadruple(ind, ind, ind, ind)
    rep = verify_dbm(good, UNIT, midpoint(1), 3)
    assert rep.ok
    assert [s.check for s in rep.subchecks] == ["p1", "p2", "complement", "hypothesis", "conclusion"]

    bad_hyp = FunctionQuadruple(indicator([0]), indicator([0]), indicator([1]), indicator([1]))
    rep2 = verify_dbm(bad_hyp, UNIT, midpoint(1), 2)
    assert rep2.outcome == "inapplicable"

    rep3 = verify_dbm(good, UNIT, negate_op(), 2)
    assert rep3.outcome == "inapplicable"
    assert any(s.check == "p2" and not s.ok for s in rep3.subchecks)


# -- set inequality --------------------------------------------------------------


def test_set_dbm_singletons():
    rep = set_dbm([(0,)], [(0,)], midpoint(1), UNIT)
    assert rep.ok and rep.lhs == 1 and rep.rhs == 1


def test_set_dbm_meet_join_example():
    rep = set_dbm([(0, 0), (1, 1)], [(0, 1), (1, 0)], meet_join(2), UNIT)
    assert rep.ok
    assert rep.lhs == 4 and rep.rhs == 9


def test_set_dbm_midpoint_example():
    rep = set_dbm([(0,), (2,)], [(0,), (2,)], midpoint(1), UNIT)
    assert rep.ok
    assert rep.lhs == 4 and rep.rhs == 9


# difference maps whose images reach far outside the input box
_IMAGE_MAPS = (
    lambda w: tuple(c // 2 for c in w),
    lambda w: tuple(min(c, 0) for c in w),
    lambda w: tuple(-c for c in w),
    lambda w: tuple(10**40 * c for c in w),
    lambda w: tuple(-(10**40) * c + 7 for c in w),
    lambda w: tuple(5 - 3 * i for i in range(len(w))),
    lambda w: tuple(c // 2 + 10**12 for c in w),
    lambda w: (sum(w),) * len(w),
)


def _box(dim, low, high):
    return list(itertools.product(range(low, high + 1), repeat=dim))


# dense sets, on which image_sets takes its bit pass
_DENSE_CASES = (
    (_box(2, 0, 3), _box(2, 0, 3), midpoint(2)),
    (_box(2, 0, 3), _box(2, 0, 3), meet_join(2)),
    (_box(1, -5, 5), _box(1, 0, 9), midpoint(1)),
    (_box(3, -2, 2), _box(3, 0, 1), product(midpoint(1), meet_join(2))),
    (_box(3, 0, 2), _box(3, 0, 2), from_difference_map(3, None, _IMAGE_MAPS[2])),
    # 37 points of [-3, 3]^2 against 13 of [-2, 2]^2
    (
        [p for p in _box(2, -3, 3) if (3 * p[0] + p[1]) % 4],
        _box(2, -2, 2)[::2],
        product(meet_join(1), midpoint(1)),
    ),
)


@st.composite
def image_cases(draw):
    dim = draw(st.integers(1, 3))
    sparse = st.lists(st.tuples(*[st.integers(-6, 6)] * dim), min_size=1, max_size=7, unique=True)
    box = _box(dim, -2, 2)
    dense = st.lists(st.booleans(), min_size=len(box), max_size=len(box)).map(
        lambda keep: [p for p, k in zip(box, keep) if k] or box[:1]
    )
    points = draw(st.sampled_from((sparse, dense)))
    exponents = draw(st.sampled_from((UNIT, ExponentQuadruple(F(1, 2), F(1, 3), F(3, 4), F(1)))))
    t = draw(st.sampled_from(_IMAGE_MAPS))
    return draw(points), draw(points), from_difference_map(dim, None, t), exponents


def _with_dense_examples(test):
    for set_a, set_b, op in _DENSE_CASES:
        test = example((set_a, set_b, op, UNIT))(test)
    return test


@settings(max_examples=150, deadline=None, derandomize=True)
@given(image_cases())
@example(([(0, 0)], [(-3, 5)], from_difference_map(2, None, _IMAGE_MAPS[3]), UNIT))
@example(([(-6,), (6,)], [(6,), (-6,), (0,)], from_difference_map(1, None, _IMAGE_MAPS[4]), UNIT))
@example((_box(2, 0, 3), _box(2, 0, 3), from_difference_map(2, None, _IMAGE_MAPS[3]), UNIT))
@_with_dense_examples
def test_image_sets_and_set_dbm_follow_the_definition(case):
    set_a, set_b, op, exponents = case
    minus = {op.t_minus(x, y) for x in set_a for y in set_b}
    plus = {op.t_plus(x, y) for x in set_a for y in set_b}
    assert image_sets(op, set_a, set_b) == (minus, plus)
    a, b, c, d = exponents.integer_exponents()
    lhs, rhs = len(set_a) ** a * len(set_b) ** b, len(minus) ** c * len(plus) ** d
    cards = {"card_a": len(set_a), "card_b": len(set_b), "card_minus": len(minus), "card_plus": len(plus)}
    rep = set_dbm(set_a, set_b, op, exponents)
    expected = (lhs <= rhs, lhs, rhs, None if lhs <= rhs else cards)
    assert (rep.ok, rep.lhs, rep.rhs, rep.witness) == expected


@pytest.fixture
def bit_passes(monkeypatch):
    """The answers of the cost rule of image_sets, in call order; the last
    answer of a call picks its pass."""
    answers = []
    rule = operations._bits_pay

    def spy(*args):
        answers.append(rule(*args))
        return answers[-1]

    monkeypatch.setattr(operations, "_bits_pay", spy)
    return answers


# the shape of the benchmark's set_dbm items, and a sparse one
_BENCH_RNG = random.Random(7)
_BENCH_SETS = [random_points(_BENCH_RNG, 2, 200, 15) for _ in range(4)]
_SPARSE_RNG = random.Random(8)
_SPARSE_SETS = [random_points(_SPARSE_RNG, 2, 30, 10**6) for _ in range(2)]


@pytest.mark.parametrize(
    "set_a, set_b, op, bits",
    [
        (_BENCH_SETS[0], _BENCH_SETS[1], midpoint(2), True),
        (_BENCH_SETS[2], _BENCH_SETS[3], meet_join(2), True),
        *[(a, b, op, True) for a, b, op in _DENSE_CASES],
        (_SPARSE_SETS[0], _SPARSE_SETS[1], midpoint(2), False),
        (_box(2, 0, 3), _box(2, 0, 3), from_difference_map(2, None, _IMAGE_MAPS[3]), False),
    ],
)
def test_the_cost_rule_takes_the_bit_pass_on_dense_boxes_only(bit_passes, set_a, set_b, op, bits):
    image_sets(op, set_a, set_b)
    assert bit_passes[-1] is bits


def test_the_cube_subsets_of_criterion_2_take_the_pair_pass(bit_passes):
    # the rule's fixed cost alone, 6000 |D| > 2000 |A| |B|, refuses every
    # pair with a set of at most 4 of the 8 points, as |D| >= |A| + |B| - 1
    op = meet_join(3)
    cube = _box(3, 0, 1)
    subsets = [s for k in range(5, 9) for s in itertools.combinations(cube, k)]
    for set_a in subsets:
        for set_b in subsets:
            image_sets(op, set_a, set_b)
    assert len(bit_passes) == 2 * len(subsets) ** 2 and not any(bit_passes)


def test_the_dense_cases_take_the_bit_pass_at_both_radices(monkeypatch):
    # the rule is asked first with the radix R0 of A - B and last with the
    # image radix R; the bit pass reuses the codes of D when R = R0
    calls = []
    rule = operations._bits_pay

    def spy(differences, radix, dim, pairs):
        calls.append((radix, rule(differences, radix, dim, pairs)))
        return calls[-1][1]

    monkeypatch.setattr(operations, "_bits_pay", spy)
    radices = []
    for set_a, set_b, op in _DENSE_CASES:
        del calls[:]
        image_sets(op, set_a, set_b)
        (r0, _), (r, bits) = calls[0], calls[-1]
        assert bits
        radices.append((r0, r))
    # midpoint(2) on {0..3}^2, and the negation map on {0, 1, 2}^3
    assert radices[0] == (7, 7) and radices[4] == (5, 7)
    assert {r0 == r for r0, r in radices} == {True, False}


# -- pointwise bound and P -------------------------------------------------------


def equality_instance():
    mu, nu = uniform([0, 1, 2]), uniform([0, 1])
    pi = monotone_coupling(mu, nu, ORDER1)
    return mu, nu, pi


def test_pointwise_equality_instance():
    mu, nu, pi = equality_instance()
    rep = pointwise_term_bound(mu, nu, pi, midpoint(1), UNIT)
    assert rep.ok and rep.tolerance_used == 0.0
    # every term equals one exactly
    op = midpoint(1)
    terms = oracle.terms(mu, nu, pi, op.t_minus, op.t_plus, UNIT)
    assert all(top == bottom for top, bottom in terms.values())


def test_pointwise_negative_control():
    mu, nu = uniform([0, 1]), uniform([0, 2])
    pi = monotone_coupling(mu, nu, ORDER1)
    rep = pointwise_term_bound(mu, nu, pi, negate_op(), UNIT)
    assert not rep.ok
    assert rep.witness["x"] == (0,) and rep.witness["y"] == (0,)
    assert rep.lhs / rep.rhs == 2


def test_pointwise_bound_admits_organic_counterexample():
    # the per-pair bound is not a theorem: with mu on {5, 6, 7} against a
    # Dirac, both fibers through (6, 0) step in the first argument and the
    # term at (6, 0) is (3/5)(3/5)/(1/5) = 9/5 > 1, while the aggregated
    # P = 21/25 stays below 1
    mu = ProbabilityMeasure(1, [(5, F(2, 5)), (6, F(1, 5)), (7, F(2, 5))])
    nu = dirac(0)
    pi = monotone_coupling(mu, nu, ORDER1)
    rep = pointwise_term_bound(mu, nu, pi, midpoint(1), UNIT)
    assert not rep.ok
    assert rep.witness["x"] == (6,)
    assert rep.lhs / rep.rhs == F(9, 5)
    log_p, prep = p_value(mu, nu, pi, midpoint(1), UNIT)
    assert prep.ok
    assert math.isclose(log_p, math.log(21 / 25), abs_tol=1e-12)


def test_a_one_pair_conditional_coupling_can_break_the_pointwise_bound():
    # off a Knothe coupling, a conditional coupling with one pair need not
    # sit on point-mass block conditionals: given x_1 = 0 and y_1 = 0, pi
    # moves (0, 0) to (0, 5), while mu's second block given 0 is 1/2 (0) +
    # 1/2 (1), so the term there is 1 / (1/2)
    mu = uniform([(0, 0), (0, 1)])
    nu = uniform([(0, 5), (1, 5)])
    pi = Coupling(2, {((0, 0), (0, 5)): F(1, 2), ((0, 1), (1, 5)): F(1, 2)}, mu, nu)
    op = product(midpoint(1), meet_join(1))
    walk = iter_conditional_couplings(pi, op.decomposition)
    assert [len(cond) for level, *_, cond in walk if level == 1] == [1, 1]
    rep = pointwise_term_bound(mu, nu, pi, op, UNIT)
    assert rep.outcome == "violated"
    assert rep.witness == {"block": 2, "x": (0, 0), "y": (0, 5)}
    assert (rep.lhs, rep.rhs) == (1, F(1, 2))


def test_p_value_equality_instance():
    mu, nu, pi = equality_instance()
    log_p, rep = p_value(mu, nu, pi, midpoint(1), UNIT)
    assert rep.ok and rep.tolerance_used == 0.0
    assert abs(log_p) <= 1e-12


def test_p_value_negative_control():
    mu, nu = uniform([0, 1]), uniform([0, 2])
    pi = monotone_coupling(mu, nu, ORDER1)
    log_p, rep = p_value(mu, nu, pi, negate_op(), UNIT)
    assert not rep.ok
    assert math.isclose(log_p, math.log(2), abs_tol=1e-12)


def test_p_value_dirac():
    pi = monotone_coupling(dirac(0), dirac(0), ORDER1)
    log_p, rep = p_value(dirac(0), dirac(0), pi, midpoint(1), UNIT)
    assert rep.ok and log_p == 0.0


# -- entropy ---------------------------------------------------------------------


def test_entropy_gap_dirac():
    gap, rep = entropy_gap(dirac(0), dirac(0), midpoint(1))
    assert rep.ok and gap == 0.0


def test_entropy_gap_equality_instance():
    mu, nu = uniform([0, 1, 2]), uniform([0, 1])
    gap, rep = entropy_gap(mu, nu, midpoint(1))
    assert rep.ok
    assert abs(gap) <= 1e-12


def test_entropy_gap_negative_control():
    mu, nu = uniform([0, 1]), uniform([0, 2])
    gap, rep = entropy_gap(mu, nu, negate_op())
    assert not rep.ok
    assert math.isclose(gap, -math.log(2), abs_tol=1e-9)


def test_entropy_gap_rejects_foreign_decomposition():
    from discretebm import DomainError

    with pytest.raises(DomainError):
        entropy_gap(uniform([(0, 0)]), uniform([(0, 0)]), midpoint(2), singleton_decomposition(1))


# -- log-Laplace -----------------------------------------------------------------


def test_log_laplace_single_point():
    gap, rep = log_laplace_gap({(0,): 0.0})
    assert rep.ok and gap == pytest.approx(0.0, abs=1e-15)
    assert rep.lhs == pytest.approx(0.0, abs=1e-15)


def test_log_laplace_two_equal_points():
    gap, rep = log_laplace_gap({(0,): math.log(2), (1,): math.log(2)})
    assert rep.ok
    assert rep.lhs == pytest.approx(math.log(4), abs=1e-12)
    assert rep.rhs == pytest.approx(math.log(4), abs=1e-12)


def test_log_laplace_asymmetric():
    gap, rep = log_laplace_gap({(0,): 0.0, (1,): math.log(3)})
    assert rep.ok
    assert rep.lhs == pytest.approx(math.log(4), abs=1e-12)
    # oracle: maximizer (1/4, 3/4) attains the bound
    attained = 0.75 * math.log(3) - (0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert rep.rhs == pytest.approx(attained, abs=1e-12)


def test_log_laplace_underflowed_maximizer_weight():
    # e^(0 - 1000) underflows to a weight of 0, whose entropy term is 0 log 0 = 0
    gap, rep = log_laplace_gap({(0,): 0.0, (1,): 1000.0})
    assert rep.ok and gap == 0.0
    assert rep.lhs == rep.rhs == 1000.0


@pytest.mark.parametrize("phi", [{(0,): 1e308, (1,): 1e308}, {(x,): 1.7e308 for x in range(3)}])
def test_log_laplace_near_the_float_limit(phi):
    # the plain sums of w * phi(x) overflow; L - R is taken for phi minus its
    # maximum, where the maximizer is uniform and L = R = max + log n
    gap, rep = log_laplace_gap(phi)
    top = max(phi.values())
    assert rep.ok and abs(gap) <= 1e-15
    assert rep.lhs == rep.rhs == top


def test_log_laplace_overflow_keeps_points_far_below_the_maximum():
    # phi - max is -inf in floats at the point -1.7e308; its weight is 0
    gap, rep = log_laplace_gap({(0,): -1.7e308, (1,): 1.7e308, (2,): 1.7e308})
    assert rep.ok and gap == 0.0 and rep.lhs == rep.rhs == 1.7e308


def test_log_laplace_empty():
    from discretebm import EmptySupportError

    with pytest.raises(EmptySupportError):
        log_laplace_gap({})


def test_log_laplace_coerces_keys_to_the_first_dimension():
    phi = {(0,): 0.0, (1,): math.log(3)}
    assert log_laplace_gap({0: 0.0, 1: math.log(3)}) == log_laplace_gap(phi)
    assert log_laplace_gap({(1,): math.log(3), (0,): 0.0}) == log_laplace_gap(phi)
    with pytest.raises(DimensionMismatch):
        log_laplace_gap({(0,): 0.0, (0, 1): 1.0})
    with pytest.raises(DimensionMismatch):
        log_laplace_gap({0: 0.0, (0, 1): 1.0})


def test_log_laplace_rejects_coinciding_points():
    from discretebm import DomainError

    # 0 and (0,) are the same point of Z; counting it twice would change L
    with pytest.raises(DomainError, match="more than once"):
        log_laplace_gap({0: 1.0, (0,): 2.0})
    with pytest.raises(DomainError, match="more than once"):
        log_laplace_gap({(1,): 0.5, (0,): 1.0, 0: 2.0})


# -- cross-checks and invariants -------------------------------------------------


def test_marginal_exactness_report():
    mu, nu, pi = equality_instance()
    assert marginal_exactness(pi, mu, nu).ok
    assert not marginal_exactness(pi, nu, mu).ok


def test_marginal_exactness_names_the_second_side():
    # the first marginal matches, so the second is the one reported
    mu, nu, pi = equality_instance()
    rep = marginal_exactness(pi, mu, uniform([0, 2]))
    assert rep.outcome == "violated"
    w = rep.witness
    assert w["side"] == "second"
    assert w["expected"] == {"atoms": [{"x": (0,), "w": F(1, 2)}, {"x": (2,), "w": F(1, 2)}]}
    assert w["got"] == {"atoms": [{"x": (0,), "w": F(1, 2)}, {"x": (1,), "w": F(1, 2)}]}


def test_exact_checks_carry_zero_tolerance():
    ind = indicator([0, 1])
    quad = FunctionQuadruple(ind, ind, ind, ind)
    assert verify_hypothesis(quad, UNIT, midpoint(1)).tolerance_used == 0.0
    assert verify_conclusion(quad, UNIT).tolerance_used == 0.0
    assert set_dbm([(0,)], [(1,)], midpoint(1), UNIT).tolerance_used == 0.0
    mu, nu, pi = equality_instance()
    assert pointwise_term_bound(mu, nu, pi, midpoint(1), UNIT).tolerance_used == 0.0


def test_implication_chain_on_random_instances():
    # pointwise verified => P verified exactly => entropy gap above -tolerance
    ops = [midpoint(1), meet_join(1)]
    chained = 0
    for i in range(300):
        inst = generate_instance(23, i, 1)
        op = ops[i % 2]
        pi = monotone_coupling(inst.mu, inst.nu, ORDER1)
        pw = pointwise_term_bound(inst.mu, inst.nu, pi, op, inst.exponents)
        if not pw.ok:
            continue
        chained += 1
        log_p, prep = p_value(inst.mu, inst.nu, pi, op, inst.exponents)
        assert prep.ok and prep.tolerance_used == 0.0
        gap, erep = entropy_gap(inst.mu, inst.nu, op, None, inst.exponents)
        assert gap >= -1e-9
    assert chained > 200


def test_duality_consistency_epsilon_regularized():
    # hypothesis implies conclusion, exactly, for regularized quadruples
    ops = [midpoint(1), meet_join(1), product(midpoint(1), meet_join(1))]
    hypothesis_true = 0
    for i in range(120):
        rng = stream(31, i)
        op = ops[i % 3]
        e = ExponentQuadruple.unit()
        quad = random_quadruple(rng, op, e, mode=("sets", "scaled", "maximal")[i % 3])
        for eps in (F(1), F(1, 10)):
            reg = FunctionQuadruple(
                *(
                    FiniteMeasure(m.dim, [(x, max(eps, w)) for x, w in m.items()])
                    for m in (quad.f, quad.g, quad.h, quad.k)
                )
            )
            if verify_hypothesis(reg, e, op).ok:
                hypothesis_true += 1
                assert verify_conclusion(reg, e).ok
    assert hypothesis_true > 100


def test_unweighted_recovery_against_direct_oracle():
    # with unit exponents the full checker agrees with a direct
    # implementation of the plain mass inequality
    op = midpoint(1)
    for i in range(60):
        rng = stream(47, i)
        quad = random_quadruple(rng, op, UNIT, mode=("sets", "scaled")[i % 2])
        hyp_direct = all(
            quad.f.weight_at(x) * quad.g.weight_at(y)
            <= quad.h.weight_at(op.t_minus(x, y)) * quad.k.weight_at(op.t_plus(x, y))
            for x, _ in quad.f.items()
            for y, _ in quad.g.items()
        )
        rep = verify_dbm(quad, UNIT, op, 2)
        assert hyp_direct == any(s.check == "hypothesis" and s.ok for s in rep.subchecks)
        if hyp_direct:
            concl_direct = (
                quad.f.total_mass * quad.g.total_mass
                <= quad.h.total_mass * quad.k.total_mass
            )
            assert concl_direct and rep.ok


def test_maximal_quadruples_satisfy_hypothesis():
    for i in range(40):
        rng = stream(53, i)
        op = midpoint(1) if i % 2 == 0 else meet_join(1)
        e = ExponentQuadruple(F(1, 2), F(1), F(1), F(1))
        quad = random_quadruple(rng, op, e, mode="maximal")
        assert verify_hypothesis(quad, e, op).ok


# -- exact terms against the Fraction formula ------------------------------------


TERM_OPS = {
    1: (midpoint(1), meet_join(1), from_difference_map(1, None, lambda w: (-w[0],))),
    2: (
        midpoint(2),
        meet_join(2),
        product(midpoint(1), meet_join(1)),
        from_difference_map(2, None, lambda w: (-w[0], w[1] // 2)),
    ),
}
# a > 1: terms above 1 and P > 1 occur, so p_value takes its tolerance path
STEEP = ExponentQuadruple(F(3, 2), F(1), F(3, 2), F(2))


@st.composite
def term_cases(draw):
    dim = draw(st.sampled_from((1, 2)))
    points = st.tuples(*[st.integers(-3, 3)] * dim)
    mu, nu = (
        FiniteMeasure(dim, draw(st.dictionaries(points, st.integers(1, 20), min_size=1, max_size=12)).items())
        .normalize()
        for _ in range(2)
    )
    op = draw(st.sampled_from(TERM_OPS[dim]))
    seed = draw(st.integers(0, 2**32))
    exponents = STEEP if draw(st.booleans()) else random_exponents(stream(seed, 0))
    # a monotone coupling off the Knothe one can have one-pair conditional
    # couplings whose block conditionals of mu and nu are not point masses
    kind = draw(st.sampled_from(("knothe", "product", "monotone")))
    if kind == "knothe":
        pi = knothe_coupling(mu, nu, op.decomposition)
    elif kind == "product":
        pi = product_coupling(mu, nu)
    else:
        pi = monotone_coupling(mu, nu, standard_order(dim))
    return mu, nu, pi, op, exponents


def steep_case(nu, coupling, op):
    mu = uniform([0, 1])
    return mu, nu, coupling(mu, nu), op, STEEP


@settings(max_examples=150, deadline=None, derandomize=True)
@given(term_cases())
# a pointwise violation under negation; P > 1 for midpoint on the product coupling
@example(steep_case(uniform([0, 2]), lambda mu, nu: monotone_coupling(mu, nu, ORDER1), negate_op()))
@example(steep_case(uniform([0, 1]), product_coupling, midpoint(1)))
def test_transport_terms_follow_the_fraction_formula(case):
    mu, nu, pi, op, exponents = case
    rep = pointwise_term_bound(mu, nu, pi, op, exponents)
    found = oracle.block_terms(mu, nu, pi, op, exponents)
    assert rep.ok == all(top <= bottom for top, bottom in found.values())
    if rep.ok:
        assert rep.detail == f"{len(found)} terms"
    else:
        w = rep.witness
        assert rep.lhs > rep.rhs and (rep.lhs, rep.rhs) == found[(w["block"], w["x"], w["y"])]
    log_p, prep = p_value(mu, nu, pi, op, exponents)
    assert math.isclose(log_p, oracle.log_p(mu, nu, pi, op, exponents), rel_tol=1e-12, abs_tol=1e-12)
    assert prep.log_p == log_p
    global_terms = oracle.terms(mu, nu, pi, op.t_minus, op.t_plus, exponents)
    if all(top <= bottom for top, bottom in global_terms.values()):
        assert prep.ok and prep.tolerance_used == 0.0
    else:
        assert prep.tolerance_used == DEFAULT_TOLERANCE
        assert prep.ok == (log_p <= DEFAULT_TOLERANCE)
    assert prep.witness == (None if prep.ok else {"log_p": log_p})


_positive = st.integers(1, 40)


@settings(max_examples=60, derandomize=True)
@given(
    st.tuples(*[_positive] * 4),
    st.tuples(*[_positive] * 4),
    st.tuples(*[st.integers(0, 4)] * 4),
)
def test_term_is_the_cross_multiplied_ratio(numerators, denominators, powers):
    a, b, c, d = powers
    km, kp, mw, nw = numerators
    km_den, kp_den, mw_den, nw_den = denominators
    scales = (mw_den**a * nw_den**b, km_den**c * kp_den**d)
    top, bottom = _term(km, kp, mw, nw, powers, scales)
    assert F(top, bottom) == F(km, km_den) ** c * F(kp, kp_den) ** d / (
        F(mw, mw_den) ** a * F(nw, nw_den) ** b
    )


# -- one read of t per support pair -----------------------------------------------


def list_op(dim):
    # a difference map that returns a list, not a tuple
    return from_difference_map(dim, None, lambda w: [(c + 1) // 3 for c in w])


TRANSPORT_OPS = {
    1: (midpoint(1), meet_join(1), list_op(1)),
    2: (midpoint(2), meet_join(2), product(midpoint(1), meet_join(1)), list_op(2)),
    3: (midpoint(3), meet_join(3), product(midpoint(2), meet_join(1)), product(meet_join(1), midpoint(2)),
        list_op(3)),
}


def t_reads(op):
    info = op.t.cache_info()
    return info.hits + info.misses


@st.composite
def transport_cases(draw):
    dim = draw(st.integers(1, 3))
    points = st.tuples(*[st.integers(-3, 3)] * dim)
    mu, nu = (
        FiniteMeasure(dim, draw(st.dictionaries(points, st.integers(1, 20), min_size=1, max_size=8)).items())
        .normalize()
        for _ in range(2)
    )
    op = draw(st.sampled_from(TRANSPORT_OPS[dim]))
    pi = knothe_coupling(mu, nu, op.decomposition) if draw(st.booleans()) else product_coupling(mu, nu)
    return pi, op


@settings(max_examples=100, deadline=None, derandomize=True)
@given(transport_cases())
def test_transport_reads_t_once_per_pair_and_gives_both_pushforwards(case):
    pi, op = case
    reads = t_reads(op)
    images, (minus, minus_den), (plus, plus_den) = _transport(pi, op)
    assert t_reads(op) - reads == len(pi)
    assert images == [(op.t_minus(x, y), op.t_plus(x, y)) for x, y in pi.support()]
    for kappa, (nums, den) in ((op.t_minus, (minus, minus_den)), (op.t_plus, (plus, plus_den))):
        assert {z: F(n, den) for z, n in nums.items()} == oracle.pushforward(pi, lambda p: kappa(*p))
        assert math.gcd(den, *nums.values()) == 1
    if op.decomposition.block_count == 1:
        # the fiber check reads the images _transport kept on pi
        reads = t_reads(op)
        rep = check_fiber_structure(pi, op)
        assert t_reads(op) - reads == 0
        # a fresh coupling reads them once, except that a support that is
        # not a chain is reported before any map is read
        fresh = Coupling(pi.dim, pi._atoms, pi.left, pi.right, den=pi._den)
        reads = t_reads(op)
        assert check_fiber_structure(fresh, op) == rep
        assert t_reads(op) - reads == (0 if rep.outcome == "inapplicable" else len(pi))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(transport_cases())
def test_hypothesis_reads_t_once_per_pair(case):
    pi, op = case
    mu, nu = pi.left, pi.right
    quad = FunctionQuadruple(mu, nu, mu, nu)
    reads = t_reads(op)
    rep = verify_hypothesis(quad, UNIT, op)
    if rep.ok:
        assert t_reads(op) - reads == len(mu) * len(nu)
    else:
        x, y = rep.witness["x"], rep.witness["y"]
        assert mu.weight_at(x) * nu.weight_at(y) > mu.weight_at(op.t_minus(x, y)) * nu.weight_at(op.t_plus(x, y))


# the instances of the golden random-suite digests in test_cli.py
GOLDEN_SUITES = (
    (7, 300, midpoint(1)),
    (7, 200, product(midpoint(1), meet_join(1))),
    (3, 40, midpoint(3)),
)


def test_entropy_and_fiber_reports_follow_the_oracle_on_the_golden_instances():
    for seed, count, op in GOLDEN_SUITES:
        d = op.decomposition
        for index in range(count):
            inst = generate_instance(seed, index, op.dim)
            mu, nu, exponents = inst.mu, inst.nu, inst.exponents
            gap, rep = entropy_gap(mu, nu, op, None, exponents)
            assert gap == rep.gap == oracle.entropy_gap(mu, nu, op, exponents)
            pi = knothe_coupling(mu, nu, d)
            rep = check_fiber_structure(pi, op)
            assert rep.ok == oracle.fiber_shape_holds(pi, op)
            laws = {(level, px, py): law for level, px, py, law in oracle.conditional_couplings(pi, d)}
            if rep.ok and d.block_count > 1:
                assert rep.detail == f"{len(laws)} conditional block couplings"
            elif rep.ok:
                sizes = [len(oracle.pushforward(pi, lambda p, t=t: t(*p))) for t in (op.t_minus, op.t_plus)]
                assert rep.detail == "{} minus-fibers, {} plus-fibers".format(*sizes)
            else:
                w = rep.witness
                level = w.get("block", 1) - 1
                px, py = w.get("prefix_x", ()), w.get("prefix_y", ())
                law = laws[level, px, py]
                maps = oracle.section(op, level, px, py)
                fibers = [{}, {}]
                for s in law:
                    for groups, t in zip(fibers, maps):
                        groups.setdefault(t(*s), set()).add(s)
                if "sign" in w:
                    assert set(w["fiber"]) == fibers[w["sign"] == "plus"][w["image"]]
                else:
                    s = (w["x"], w["y"])
                    assert s in law
                    assert set(w["minus_fiber"]) == fibers[0][maps[0](*s)]
                    assert set(w["plus_fiber"]) == fibers[1][maps[1](*s)]
