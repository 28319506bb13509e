import math
from fractions import Fraction as F

import pytest

from discretebm import (
    ExponentQuadruple,
    FiniteMeasure,
    FunctionQuadruple,
    ProbabilityMeasure,
    entropy_gap,
    from_difference_map,
    log_laplace_gap,
    marginal_exactness,
    meet_join,
    midpoint,
    monotone_coupling,
    p_value,
    pointwise_term_bound,
    product,
    set_dbm,
    singleton_decomposition,
    standard_order,
    verify_conclusion,
    verify_dbm,
    verify_hypothesis,
)
from discretebm.suite import generate_instance, random_quadruple
from discretebm.seeding import stream
from helpers import dirac, uniform

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


# -- pointwise bound and P -------------------------------------------------------


def equality_instance():
    mu, nu = uniform([0, 1, 2]), uniform([0, 1])
    pi = monotone_coupling(mu, nu, ORDER1)
    return mu, nu, pi


def test_pointwise_equality_instance():
    mu, nu, pi = equality_instance()
    rep = pointwise_term_bound(mu, nu, pi, midpoint(1), UNIT)
    assert rep.ok and rep.tolerance_used == 0.0
    # oracle: every term equals one exactly
    op = midpoint(1)
    km = pi.pushforward_by(op.t_minus)
    kp = pi.pushforward_by(op.t_plus)
    for (x, y), w in pi.items():
        term = km.weight_at(op.t_minus(x, y)) * kp.weight_at(op.t_plus(x, y))
        assert term == mu.weight_at(x) * nu.weight_at(y)


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


def test_log_laplace_empty():
    from discretebm import EmptySupportError

    with pytest.raises(EmptySupportError):
        log_laplace_gap({})


# -- cross-checks and invariants -------------------------------------------------


def test_marginal_exactness_report():
    mu, nu, pi = equality_instance()
    assert marginal_exactness(pi, mu, nu).ok
    assert not marginal_exactness(pi, nu, mu).ok


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
