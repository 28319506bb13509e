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
    FiniteMeasure,
    InvalidWeightError,
    MarginalMismatch,
    ProbabilityMeasure,
    block_section,
    check_fiber_structure,
    check_support_monotone,
    fibers,
    iter_conditional_couplings,
    knothe_coupling,
    meet_join,
    midpoint,
    monotone_coupling,
    product,
    product_coupling,
    singleton_decomposition,
    standard_order,
)
from discretebm import coupling, jsonio, suite, verify
from discretebm.coupling import _quantile_merge
from discretebm.suite import generate_instance
from helpers import dirac, uniform
import oracle

ORDER1 = standard_order(1)

measures_1d = st.lists(
    st.tuples(st.integers(-10, 10), st.integers(1, 20)), min_size=1, max_size=8
).map(lambda e: FiniteMeasure(1, [((x,), F(w)) for x, w in e]).normalize())


def test_monotone_coupling_merge_example():
    pi = monotone_coupling(uniform([0, 1, 2]), uniform([0, 1]), ORDER1)
    assert dict(pi.items()) == {
        ((0,), (0,)): F(1, 3),
        ((1,), (0,)): F(1, 6),
        ((1,), (1,)): F(1, 6),
        ((2,), (1,)): F(1, 3),
    }


def test_monotone_coupling_diagonal():
    m = ProbabilityMeasure(1, [(0, F(1, 4)), (2, F(1, 4)), (5, F(1, 2))])
    pi = monotone_coupling(m, m, ORDER1)
    assert dict(pi.items()) == {((x[0],), (x[0],)): w for x, w in m.items()}


def test_monotone_coupling_dirac_factor():
    nu = uniform([3, 7])
    pi = monotone_coupling(dirac(0), nu, ORDER1)
    assert dict(pi.items()) == {((0,), (3,)): F(1, 2), ((0,), (7,)): F(1, 2)}


def test_coupling_weight_at_coerces_points_like_measures():
    pi = monotone_coupling(uniform([0, 1]), uniform([0, 1]), ORDER1)
    assert pi.weight_at(0, 0) == pi.weight_at((0,), [0]) == F(1, 2)
    assert pi.weight_at(0, 1) == 0
    for x, y in (((0, 0), (0,)), ((0,), (0, 0))):
        with pytest.raises(DimensionMismatch):
            pi.weight_at(x, y)
    with pytest.raises(DomainError):
        pi.weight_at(0.5, 0)


@given(measures_1d, measures_1d)
@settings(max_examples=100)
def test_monotone_coupling_properties(mu, nu):
    pi = monotone_coupling(mu, nu, ORDER1)
    assert pi.marginal("first") == mu
    assert pi.marginal("second") == nu
    assert len(pi) <= len(mu) + len(nu) - 1
    assert check_support_monotone(pi, ORDER1).ok


def test_support_monotone_product_counterexample():
    pi = product_coupling(uniform([0, 1]), uniform([0, 1]))
    rep = check_support_monotone(pi, ORDER1)
    assert not rep.ok
    assert rep.witness == {
        "pair1": {"x": (0,), "y": (1,)},
        "pair2": {"x": (1,), "y": (0,)},
    }


def test_marginal_examples():
    pi = product_coupling(uniform([0, 2]), uniform([1, 3]))
    assert pi.marginal("first") == uniform([0, 2])
    assert pi.marginal("second") == uniform([1, 3])
    dp = monotone_coupling(dirac(0), dirac(0), ORDER1)
    assert dp.marginal("first") == dirac(0)


def test_coupling_validation():
    mu, nu = uniform([0, 1]), uniform([0, 1])
    with pytest.raises(MarginalMismatch):
        Coupling(1, {((0,), (0,)): F(1, 2), ((0,), (1,)): F(1, 2)}, mu, nu)
    with pytest.raises(InvalidWeightError):
        Coupling(1, {((0,), (0,)): F(1, 2)}, dirac(0), dirac(0))
    # weights are coerced as measure weights are: floats are not exact
    with pytest.raises(InvalidWeightError):
        Coupling(1, {((0,), (0,)): 0.5, ((1,), (1,)): 0.5}, mu, mu)
    with pytest.raises(DimensionMismatch):
        monotone_coupling(uniform([(0, 0)]), uniform([0]), ORDER1)


def test_coupling_marginals_must_be_probability_measures():
    # a FiniteMeasure of mass 1 once passed certification, and the checks
    # that disintegrate the marginals then raised AttributeError
    one = FiniteMeasure(2, [((0, 0), 1)])
    with pytest.raises(DomainError):
        Coupling(2, [(((0, 0), (0, 0)), 1)], one, one.normalize())
    with pytest.raises(DomainError):
        monotone_coupling(one.normalize(), one, standard_order(2))


def test_pushforward_by_pair_maps():
    pi = monotone_coupling(uniform([0, 1, 2]), uniform([0, 1]), ORDER1)
    km = pi.pushforward_by(midpoint(1).t_minus)
    assert km == ProbabilityMeasure(1, [(0, F(1, 2)), (1, F(1, 2))])
    kp = pi.pushforward_by(midpoint(1).t_plus)
    assert kp == uniform([0, 1, 2])


def test_fibers_derived_example():
    pi = monotone_coupling(uniform([0, 1, 2]), uniform([0, 1]), ORDER1)
    op = midpoint(1)
    fm = fibers(pi, op, "minus")
    assert fm[(0,)] == (((0,), (0,)), ((1,), (0,)))
    assert fm[(1,)] == (((1,), (1,)), ((2,), (1,)))
    fp = fibers(pi, op, "plus")
    assert fp[(0,)] == (((0,), (0,)),)
    assert fp[(1,)] == (((1,), (0,)), ((1,), (1,)))
    assert fp[(2,)] == (((2,), (1,)),)
    # fibers partition the support
    assert sorted(p for ps in fm.values() for p in ps) == pi.support()


def test_fiber_structure_derived_and_dirac():
    pi = monotone_coupling(uniform([0, 1, 2]), uniform([0, 1]), ORDER1)
    assert check_fiber_structure(pi, midpoint(1)).ok
    assert check_fiber_structure(monotone_coupling(dirac(2), dirac(5), ORDER1), midpoint(1)).ok


def test_fiber_structure_guards():
    pi = product_coupling(uniform([0, 1]), uniform([0, 1]))
    rep = check_fiber_structure(pi, midpoint(1))
    assert rep.outcome == "inapplicable"
    pi2 = monotone_coupling(
        uniform([(0, 0), (1, 1)]), uniform([(0, 0), (2, 2)]), standard_order(2)
    )
    # pi2 is the Knothe coupling along the two blocks, which are checked
    # as the level-0 coupling and one conditional coupling per prefix pair
    rep2 = check_fiber_structure(pi2, product(midpoint(1), meet_join(1)))
    assert rep2.outcome == "verified"
    assert rep2.detail == "3 conditional block couplings"


def test_multi_block_fiber_check_reports_the_first_non_monotone_block():
    # block 1 is a Dirac pair; block 2 given the prefixes is an independent,
    # non-monotone coupling of {0, 1} with itself
    m = uniform([(0, 0), (0, 1)])
    pi = product_coupling(m, m)
    op = product(midpoint(1), meet_join(1))
    rep = check_fiber_structure(pi, op)
    first_bad = next(
        check_fiber_structure(cond, block_section(op, level, px, py))
        for level, px, py, cond in iter_conditional_couplings(pi, op.decomposition)
        if not check_support_monotone(cond, ORDER1).ok
    )
    assert rep.outcome == "inapplicable"
    assert rep == first_bad
    assert "block" not in rep.witness


def test_fiber_cardinality_unbounded_for_meet_join():
    # min maps every pair (1, y) with y >= 1 to 1, so a coupling against a
    # Dirac measure produces a fiber with three elements
    mu = dirac(1)
    nu = uniform([-7, 1, 2, 10])
    pi = monotone_coupling(mu, nu, ORDER1)
    op = meet_join(1)
    fiber = fibers(pi, op, "minus")[(1,)]
    assert len(fiber) == 3
    rep = check_fiber_structure(pi, op)
    assert not rep.ok
    assert "more than two" in rep.detail


def test_fiber_alignment_fails_for_midpoint():
    # both fibers through (6, 0) step horizontally, so no diagonal partner
    # exists for the outer elements; cardinality and unit-step shape hold
    mu = ProbabilityMeasure(1, [(5, F(2, 5)), (6, F(1, 5)), (7, F(2, 5))])
    pi = monotone_coupling(mu, dirac(0), ORDER1)
    rep = check_fiber_structure(pi, midpoint(1))
    assert not rep.ok
    assert "aligned" in rep.detail


def test_midpoint_fiber_cardinality_shape_shift_hold_randomly():
    # the cardinality, unit-step, and complement-shift clauses are sound for
    # the floor-average pair; only the diagonal-alignment clause can fail
    op = midpoint(1)
    u = ORDER1.unit()
    for i in range(200):
        inst = generate_instance(11, i, 1)
        pi = monotone_coupling(inst.mu, inst.nu, ORDER1)
        for sign, other in (("minus", op.t_plus), ("plus", op.t_minus)):
            for pairs in fibers(pi, op, sign).values():
                assert len(pairs) <= 2
                if len(pairs) == 2:
                    (x1, y1), (x2, y2) = sorted(pairs)
                    dx = (x2[0] - x1[0],)
                    dy = (y2[0] - y1[0],)
                    assert (dx == u and dy == (0,)) or (dx == (0,) and dy == u)
                    assert other(x2, y2) == (other(x1, y1)[0] + 1,)


def test_knothe_single_block_is_monotone():
    mu, nu = uniform([0, 1, 2]), uniform([0, 1])
    d = singleton_decomposition(1)
    assert knothe_coupling(mu, nu, d) == monotone_coupling(mu, nu, ORDER1)


def test_knothe_diagonal():
    m = uniform([(0, 0), (1, 2), (3, 3)])
    pi = knothe_coupling(m, m, singleton_decomposition(2))
    assert dict(pi.items()) == {(x, x): w for x, w in m.items()}


def test_knothe_product_measures():
    rho, sigma = uniform([0, 1]), uniform([0, 5])
    rho2, sigma2 = uniform([2, 3]), uniform([1, 4])

    def tensor(a, b):
        return ProbabilityMeasure(
            2, [((x[0], y[0]), wx * wy) for x, wx in a.items() for y, wy in b.items()]
        )

    pi = knothe_coupling(tensor(rho, sigma), tensor(rho2, sigma2), singleton_decomposition(2))
    pi1 = monotone_coupling(rho, rho2, ORDER1)
    pi2 = monotone_coupling(sigma, sigma2, ORDER1)
    expected = {
        ((x1[0], x2[0]), (y1[0], y2[0])): w1 * w2
        for (x1, y1), w1 in pi1.items()
        for (x2, y2), w2 in pi2.items()
    }
    assert dict(pi.items()) == expected


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 9)),
        min_size=1,
        max_size=6,
    ),
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 9)),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=60)
def test_knothe_marginals_and_block_monotonicity(ea, eb):
    mu = FiniteMeasure(2, [((a, b), F(w)) for a, b, w in ea]).normalize()
    nu = FiniteMeasure(2, [((a, b), F(w)) for a, b, w in eb]).normalize()
    d = singleton_decomposition(2)
    pi = knothe_coupling(mu, nu, d)
    assert pi.marginal("first") == mu
    assert pi.marginal("second") == nu
    # every conditional block coupling is the monotone coupling of the
    # conditional measures, so its support must be a chain
    fam_mu = mu.disintegrate(d)
    fam_nu = nu.disintegrate(d)
    for level, px, py, cond in iter_conditional_couplings(pi, d):
        assert check_support_monotone(cond, ORDER1).ok
        assert cond == monotone_coupling(fam_mu[level][px], fam_nu[level][py], ORDER1)


def test_fiber_check_runs_per_block():
    op = product(midpoint(1), meet_join(1))
    mu = uniform([(0, 0), (1, 1)])
    nu = uniform([(0, 1), (1, 0)])
    assert check_fiber_structure(knothe_coupling(mu, nu, op.decomposition), op).ok


def _assert_fiber_witness(pi, op, w):
    # the witness names fibers, through an image or a support pair, of a
    # conditional block coupling that breaks a fiber clause
    at = (w.get("block", 1) - 1, w.get("prefix_x", ()), w.get("prefix_y", ()))
    law = next(c[3] for c in oracle.conditional_couplings(pi, op.decomposition) if c[:3] == at)
    assert not oracle.fiber_clauses_hold(law, op, *at)
    maps = dict(zip(("minus", "plus"), oracle.section(op, *at)))

    def fiber(sign, image):
        return {p for p in law if maps[sign](*p) == image}

    if "sign" in w:
        assert set(w["fiber"]) == fiber(w["sign"], w["image"])
    else:
        s = (w["x"], w["y"])
        assert s in law
        for sign, t in maps.items():
            assert set(w[f"{sign}_fiber"]) == fiber(sign, t(*s))


@pytest.mark.parametrize(
    "op",
    [product(midpoint(1), meet_join(1)), product(meet_join(1), midpoint(1))],
    ids=["midpoint-meet_join", "meet_join-midpoint"],
)
def test_fiber_check_follows_the_fiber_clauses(op):
    d = op.decomposition
    outcomes = set()
    for i in range(300):
        inst = generate_instance(7, i, 2)
        pi = knothe_coupling(inst.mu, inst.nu, d)
        rep = check_fiber_structure(pi, op)
        walk = oracle.conditional_couplings(pi, d)
        # every conditional block coupling of a Knothe coupling is a chain
        assert all(oracle.first_crossing(list(law), d.order(level)) is None for level, *_, law in walk)
        assert rep.ok == oracle.fiber_shape_holds(pi, op)
        if rep.ok:
            assert rep.detail == f"{len(walk)} conditional block couplings"
        else:
            _assert_fiber_witness(pi, op, rep.witness)
        outcomes.add(rep.outcome)
    assert outcomes == {"verified", "violated"}


def test_stochastic_dominance_gives_ordered_support():
    mu = ProbabilityMeasure(1, [(0, F(1, 2)), (2, F(1, 4)), (5, F(1, 4))])
    nu = ProbabilityMeasure(1, [((x + 3,), w) for (x,), w in mu.items()])
    pi = monotone_coupling(mu, nu, ORDER1)
    for x, y in pi.support():
        assert ORDER1.key(x) <= ORDER1.key(y)


@given(measures_1d, measures_1d)
@settings(max_examples=100)
def test_dominated_cdf_implies_diagonal_ordering(mu, nu):
    # whenever cdf_nu <= cdf_mu everywhere, every coupled pair is ordered
    pts = sorted(set(mu.support()) | set(nu.support()))
    if all(oracle.cdf(nu, ORDER1, x) <= oracle.cdf(mu, ORDER1, x) for x in pts):
        pi = monotone_coupling(mu, nu, ORDER1)
        for x, y in pi.support():
            assert ORDER1.key(x) <= ORDER1.key(y)


# -- the definitions and invariants of the integer-numerator core --------------


orders_1d = st.sampled_from([AdditiveTotalOrder(1, (1,), (1,)), AdditiveTotalOrder(1, (1,), (-1,))])
# 2-dim blocks under permuted, negated, and permuted and negated orders
orders_2d = st.sampled_from(
    [
        AdditiveTotalOrder(2, (2, 1), (1, 1)),
        AdditiveTotalOrder(2, (1, 2), (-1, -1)),
        AdditiveTotalOrder(2, (2, 1), (1, -1)),
    ]
)

measures_2d = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 9)),
    min_size=1,
    max_size=7,
).map(lambda e: FiniteMeasure(2, [((a, b), F(w)) for a, b, w in e]).normalize())


def grid_measures(points):
    # weights are gaps between cut points on a grid of twelfths, so the two
    # measures' cumulative masses often share breakpoints
    return st.lists(points, min_size=1, max_size=6, unique=True).flatmap(
        lambda xs: st.lists(
            st.integers(1, 11), min_size=len(xs) - 1, max_size=len(xs) - 1, unique=True
        ).map(
            lambda cuts: ProbabilityMeasure(
                len(xs[0]),
                [(x, F(b - a, 12)) for x, a, b in zip(xs, [0, *sorted(cuts)], [*sorted(cuts), 12])],
            )
        )
    )


def merge_inputs(measures, points, orders):
    either = st.one_of(measures, grid_measures(points))
    return st.tuples(either, either, orders)


@given(
    st.one_of(
        merge_inputs(measures_1d, st.tuples(st.integers(-6, 6)), orders_1d),
        merge_inputs(measures_2d, st.tuples(st.integers(-2, 2), st.integers(-2, 2)), orders_2d),
    )
)
@settings(max_examples=300)
def test_monotone_coupling_is_the_quantile_coupling(inputs):
    # the integer merge yields the coupling's atoms over the lcm of the two
    # denominators, inserted along a chain of ``order``
    mu, nu, order = inputs
    coupling = oracle.quantile_coupling(mu, nu, order)
    atoms, den = _quantile_merge(mu, nu, order)
    assert den == math.lcm(mu._den, nu._den)
    assert {pair: F(n, den) for pair, n in atoms.items()} == coupling
    keys = [(order.key(x), order.key(y)) for x, y in atoms]
    assert all(kx <= lx and ky <= ly for (kx, ky), (lx, ly) in zip(keys, keys[1:]))
    assert dict(monotone_coupling(mu, nu, order).items()) == coupling


def test_monotone_coupling_shared_breakpoints():
    mu = ProbabilityMeasure(1, [(0, F(1, 4)), (1, F(1, 4)), (2, F(1, 2))])
    nu = ProbabilityMeasure(1, [(5, F(1, 2)), (6, F(1, 2))])
    pi = monotone_coupling(mu, nu, ORDER1)
    assert dict(pi.items()) == oracle.quantile_coupling(mu, nu, ORDER1)
    assert len(pi) == 3


@given(measures_1d, measures_1d, st.integers(0, 4), orders_1d)
@settings(max_examples=150)
def test_support_monotone_reports_the_first_crossing(mu, nu, mix, order):
    # mixtures of the monotone and the product coupling have the same
    # marginals and cross for most mixing weights
    mono = dict(monotone_coupling(mu, nu, order).items())
    prod = dict(product_coupling(mu, nu).items())
    t = F(mix, 4)
    atoms = {k: t * mono.get(k, 0) + (1 - t) * prod.get(k, 0) for k in mono.keys() | prod.keys()}
    pi = Coupling(1, atoms, mu, nu)
    rep = check_support_monotone(pi, order)
    crossing = oracle.first_crossing(pi.support(), order)
    assert rep.ok == (crossing is None)
    if crossing is not None:
        (a, b), (c, d) = crossing
        assert rep.witness == {"pair1": {"x": a, "y": b}, "pair2": {"x": c, "y": d}}


def _assert_validated_equal(m):
    # an internally built measure equals the same atoms run through the
    # validating constructor, with the same stored order and mass
    rebuilt = ProbabilityMeasure(m.dim, list(m.items()))
    assert type(m) is ProbabilityMeasure
    assert m == rebuilt
    assert m.support() == rebuilt.support()
    assert m.total_mass == rebuilt.total_mass == 1


@given(measures_2d, measures_2d)
@settings(max_examples=80)
def test_internal_measures_equal_validated_ones(mu, nu):
    d = singleton_decomposition(2)
    op = product(midpoint(1), meet_join(1))
    _assert_validated_equal(mu)  # normalize
    for fam in (mu.disintegrate(d), nu.disintegrate(d)):
        for level in range(d.block_count):
            for prefix in list(fam[level]):
                _assert_validated_equal(fam[level][prefix])
    pi = knothe_coupling(mu, nu, d)
    for m in (
        pi.marginal("first"),
        pi.marginal("second"),
        pi.pushforward_by(op.t_minus),
        pi.pushforward_by(op.t_plus),
    ):
        _assert_validated_equal(m)
    for _level, _px, _py, cond in iter_conditional_couplings(pi, d):
        _assert_validated_equal(cond.left)
        _assert_validated_equal(cond.right)


def perturbations(m):
    """Measures near ``m``: half the first atom's mass moved off the support,
    and, with two atoms or more, onto the second atom."""
    (p0, w0), *rest = m.items()
    off = (max(x for (x,), _ in m.items()) + 1,)
    out = [ProbabilityMeasure(1, [(p0, w0 / 2), (off, w0 / 2), *rest])]
    if rest:
        (p1, w1), *tail = rest
        out.append(ProbabilityMeasure(1, [(p0, w0 / 2), (p1, w1 + w0 / 2), *tail]))
    return out


@given(measures_1d, measures_1d)
@settings(max_examples=60)
def test_perturbed_marginal_raises(mu, nu):
    atoms = dict(monotone_coupling(mu, nu, ORDER1).items())
    for bad in perturbations(mu):
        with pytest.raises(MarginalMismatch):
            Coupling(1, atoms, bad, nu)
    for bad in perturbations(nu):
        with pytest.raises(MarginalMismatch):
            Coupling(1, atoms, mu, bad)


def _assert_stored_numerators(pi):
    # the stored weight form: integer numerators over one denominator, in
    # lowest common terms and total mass 1
    nums = list(pi._atoms.values())
    assert sum(nums) == pi._den and math.gcd(pi._den, *nums) == 1
    for ((x, y), w), n in zip(pi.items(), nums):
        assert F(n, pi._den) == w


@given(measures_2d, measures_2d, measures_1d, measures_1d)
@settings(max_examples=40, derandomize=True)
def test_couplings_keep_their_certified_numerators(mu2, nu2, mu1, nu1):
    d = singleton_decomposition(2)
    knothe = knothe_coupling(mu2, nu2, d)
    for pi in (
        monotone_coupling(mu1, nu1, ORDER1),
        knothe,
        product_coupling(mu1, nu1),
        product_coupling(mu2, nu2),
        jsonio.parse_coupling(jsonio.coupling_to_json(knothe)),
    ):
        _assert_stored_numerators(pi)
    for _level, _px, _py, cond in iter_conditional_couplings(knothe, d):
        _assert_stored_numerators(cond)


def random_order(draw, dim):
    perm = draw(st.permutations(range(1, dim + 1)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=dim, max_size=dim))
    return AdditiveTotalOrder(dim, tuple(perm), tuple(signs))


@st.composite
def integer_built_cases(draw):
    dim = draw(st.integers(1, 3))
    sizes = []
    while sum(sizes) < dim:
        sizes.append(draw(st.integers(1, dim - sum(sizes))))
    blocks = tuple((k, random_order(draw, k)) for k in sizes)

    def measure():
        points = st.tuples(*[st.integers(-3, 3)] * dim)
        entries = draw(st.lists(st.tuples(points, st.integers(1, 9)), min_size=1, max_size=7))
        return FiniteMeasure(dim, entries).normalize()

    return measure(), measure(), random_order(draw, dim), Decomposition(blocks)


@given(integer_built_cases())
@settings(max_examples=80, derandomize=True)
def test_integer_built_couplings_equal_validated_ones(case):
    # the builders pass integer numerators over a denominator to the
    # constructor; the same atoms as Fractions with den=1 give the same coupling
    mu, nu, order, d = case
    pi = knothe_coupling(mu, nu, d)
    # a multi-block build keeps its merges on pi; one block keeps none
    assert (pi._conditionals is not None) == (d.block_count > 1)
    walk = iter_conditional_couplings(pi, d)
    # the conditional couplings below level 0 are built without
    # certification; the validating constructor must accept their declared
    # marginals, also where they are not monotone
    independent = iter_conditional_couplings(product_coupling(mu, nu), d)
    for c in (
        monotone_coupling(mu, nu, order),
        pi,
        *(cond for *_, cond in walk),
        *(cond for *_, cond in independent),
    ):
        rebuilt = Coupling(c.dim, list(c.items()), c.left, c.right)
        assert rebuilt == c and rebuilt.support() == c.support()
        _assert_stored_numerators(c)
    # the walk the build left equals the one grouped from a validated copy,
    # entry by entry, with equal declared marginals
    fresh = Coupling(pi.dim, list(pi.items()), mu, nu)
    grouped = iter_conditional_couplings(fresh, d)
    assert len(walk) == len(grouped)
    for (*at, cond), (*grouped_at, grouped_cond) in zip(walk, grouped):
        assert at == grouped_at
        assert cond == grouped_cond and cond.support() == grouped_cond.support()
        assert cond.left == grouped_cond.left and cond.right == grouped_cond.right
    assert dict(pi.items()) == oracle.knothe(mu, nu, d)
    k = d.block_dim(0)
    heads = [oracle.pushforward(m, lambda x: x[:k]) for m in (mu, nu)]
    assert dict(walk[0][3].items()) == oracle.quantile_coupling(*heads, d.order(0))
    # the walk is kept on the coupling, per decomposition
    other = singleton_decomposition(mu.dim)
    assert iter_conditional_couplings(pi, other) == iter_conditional_couplings(fresh, other)
    assert iter_conditional_couplings(pi, d) is walk


def test_a_suite_builds_the_walk_of_the_couplings_it_reads_only(monkeypatch):
    # the suite reads the walk of the coupling it holds; entropy_gap builds
    # its own Knothe coupling and never reads that one's walk
    counts = {"trusted": 0, "init": 0, "knothe": 0}
    trusted, init = Coupling._trusted.__func__, Coupling.__init__

    def counting(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return call

    monkeypatch.setattr(Coupling, "_trusted", classmethod(counting("trusted", trusted)))
    monkeypatch.setattr(Coupling, "__init__", counting("init", init))
    for module in (suite, verify):
        monkeypatch.setattr(module, "knothe_coupling", counting("knothe", module.knothe_coupling))
    instances = suite.seeded_instances(7, 1000, 2)
    op = product(midpoint(1), meet_join(1))
    suite.run_suite(instances, op, suite.SUITE_CHECKS, 1e-9, lambda row: None)
    # 16,036 trusted couplings when every Knothe build built its walk
    assert counts == {"trusted": 8018, "init": 2000, "knothe": 2000}


def test_support_images_are_kept_for_the_last_map_read():
    # a check under a freshly built equal operation replaces the kept
    # images instead of adding a list; one block's level-0 coupling keeps
    # sharing pi's images
    inst = generate_instance(7, 0, 1)
    pi = monotone_coupling(inst.mu, inst.nu, ORDER1)
    head = iter_conditional_couplings(pi, singleton_decomposition(1))[0][3]
    reports = [check_fiber_structure(pi, midpoint(1)) for _ in range(100)]
    assert all(rep == reports[0] for rep in reports)
    assert len(pi._images) == 1
    assert head._images is pi._images


WALK_CASES = ("knothe-2-blocks", "knothe-2-dim-block", "knothe-3-blocks", "product-2-dim", "json")


def _walk_case(name, i):
    """(pi, d) for the ``i``-th seed-7 instance: a Knothe coupling on 2 or
    3 blocks, the independent coupling, or a coupling read back from JSON."""
    two, three = singleton_decomposition(2), singleton_decomposition(3)
    if name == "knothe-2-dim-block":
        # a 2-dim block under a non-plain order, then a 1-dim block
        d = Decomposition(((2, AdditiveTotalOrder(2, (2, 1), (1, -1))), (1, ORDER1)))
    else:
        d = two if name in ("knothe-2-blocks", "product-2-dim") else three
    inst = generate_instance(7, i, d.total_dim)
    if name == "product-2-dim":
        return product_coupling(inst.mu, inst.nu), d
    pi = knothe_coupling(inst.mu, inst.nu, d)
    if name == "json":
        pi = jsonio.parse_coupling(jsonio.coupling_to_json(pi))
    return pi, d


@pytest.mark.parametrize("name", WALK_CASES)
def test_conditional_couplings_match_the_oracle(name):
    # every level of the walk, also the ones built without certification,
    # holds the oracle's conditional law, and declares that law's two
    # projections as its marginals
    levels = set()
    monotone = []
    for pi, d in (_walk_case(name, i) for i in range(12)):
        walk = iter_conditional_couplings(pi, d)
        laws = oracle.conditional_couplings(pi, d)
        assert [c[:3] for c in walk] == [c[:3] for c in laws]
        for (level, *_, cond), (*_, law) in zip(walk, laws):
            assert cond.dim == d.block_dim(level)
            assert dict(cond.items()) == law
            assert dict(cond.left.items()) == oracle.pushforward(law, lambda p: p[0])
            assert dict(cond.right.items()) == oracle.pushforward(law, lambda p: p[1])
            _assert_stored_numerators(cond)
            levels.add(level)
            monotone.append(check_support_monotone(cond, d.order(level)).ok)
    assert levels == set(range(d.block_count))
    # the independent coupling's conditionals are not all chains
    assert all(monotone) == (name != "product-2-dim")


def test_coupling_den_must_be_a_positive_int():
    mu = dirac(0)
    for den in (0, -3, True, 2.0, F(1, 2)):
        with pytest.raises(InvalidWeightError, match="den must be"):
            Coupling(1, [(((0,), (0,)), 1)], mu, mu, den=den)


@given(measures_1d, measures_1d)
@settings(max_examples=60)
def test_integer_weights_are_certified(mu, nu):
    mono = monotone_coupling(mu, nu, ORDER1)
    den = 2 * mono._den
    atoms = [(pair, 2 * n) for pair, n in mono._atoms.items()]
    assert Coupling(1, atoms, mu, nu, den=den) == mono
    for bad in perturbations(mu):
        with pytest.raises(MarginalMismatch):
            Coupling(1, atoms, bad, nu, den=den)
    for bad in perturbations(nu):
        with pytest.raises(MarginalMismatch):
            Coupling(1, atoms, mu, bad, den=den)
    for wrong in (den - 1, den + 1, 2 * den):
        with pytest.raises(InvalidWeightError, match="total mass 1"):
            Coupling(1, atoms, mu, nu, den=wrong)
    with pytest.raises(InvalidWeightError, match="negative weight"):
        Coupling(1, [*atoms, (((0,), (0,)), -1)], mu, nu, den=den)


SWAPPED = AdditiveTotalOrder(2, (2, 1), (-1, 1))
DECOMPOSITIONS = {
    2: [
        singleton_decomposition(2),
        Decomposition(((1, AdditiveTotalOrder(1, (1,), (-1,))), (1, ORDER1))),
        Decomposition(((2, SWAPPED),)),
    ],
    3: [
        singleton_decomposition(3),
        Decomposition(((2, SWAPPED), (1, AdditiveTotalOrder(1, (1,), (-1,))))),
        Decomposition(((1, ORDER1), (2, SWAPPED))),
    ],
}


@st.composite
def knothe_cases(draw):
    dim = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from(DECOMPOSITIONS[dim]))

    def measure():
        points = st.tuples(*[st.integers(-3, 3)] * dim)
        shape = draw(st.sampled_from(["spread", "dirac", "dirac-first-coordinate"]))
        entries = draw(st.lists(st.tuples(points, st.integers(1, 9)), min_size=1, max_size=7))
        if shape == "dirac":
            entries = entries[:1]
        elif shape == "dirac-first-coordinate":
            entries = [((0, *x[1:]), w) for x, w in entries]
        return FiniteMeasure(dim, entries).normalize()

    return measure(), measure(), d


@given(knothe_cases())
@settings(max_examples=150, derandomize=True)
def test_knothe_is_the_recursive_quantile_coupling(case):
    mu, nu, d = case
    pi = knothe_coupling(mu, nu, d)
    assert dict(pi.items()) == oracle.knothe(mu, nu, d)
    assert Coupling(d.total_dim, list(pi.items()), mu, nu) == pi
    _assert_stored_numerators(pi)


def test_knothe_on_suite_instances_is_the_recursive_quantile_coupling():
    d = product(midpoint(1), meet_join(1)).decomposition
    for i in range(300):
        inst = generate_instance(7, i, 2)
        assert dict(knothe_coupling(inst.mu, inst.nu, d).items()) == oracle.knothe(inst.mu, inst.nu, d)


def test_coupling_keys_must_be_pairs():
    # keys that are not (x, y) pairs once raised a bare ValueError or TypeError
    mu = dirac(0)
    for key in ((0,), ((0,), (0,), (0,)), 5):
        with pytest.raises(DomainError, match="as a pair of points"):
            Coupling(1, [(key, 1)], mu, mu)


@given(integer_built_cases())
@settings(max_examples=60, derandomize=True)
def test_plain_atoms_give_the_coupling_of_their_coerced_forms(case):
    mu, nu, order, d = case
    pi = knothe_coupling(mu, nu, d)
    dim, den = pi.dim, pi._den
    plain = list(pi._atoms.items())
    pairs, nums = zip(*plain)
    # the same atoms in forms the constructor coerces
    coerced = [
        ([((list(x), list(y)), F(n, den)) for (x, y), n in plain], 1),
        ([(pair, F(n, den)) for pair, n in plain], 1),
        (plain[:-1] + [(plain[-1][0], F(plain[-1][1]))], den),
    ]
    for atoms, scale in coerced:
        built = Coupling(dim, atoms, mu, nu, den=scale)
        assert built == pi and built.support() == pi.support()
    # plain atoms split in two (one part may be 0), padded with zero weights
    # off the support, as a dict, or passed as a zip iterator
    split = [(pair, n - n // 2) for pair, n in plain] + [(pair, n // 2) for pair, n in plain]
    padded = plain + [((x, x), 0) for x in mu.support()]
    for atoms in (plain, dict(plain), split, padded, zip(pairs, nums)):
        built = Coupling(dim, atoms, mu, nu, den=den)
        assert built == pi and built.support() == pi.support()


def test_malformed_atoms_keep_their_error_texts():
    mu = dirac(0)
    plain = (((0,), (0,)), 1)
    cases = [
        ([(((True,), (0,)), 1)], DomainError, "point coordinates must be integers, got True"),
        ([(((0,), (0.0,)), 1)], DomainError, "point coordinates must be integers, got 0.0"),
        # equal to a plain point as a dict key, but not a lattice point
        ([plain, (((0.0,), (0,)), 0)], DomainError, "point coordinates must be integers, got 0.0"),
        ([plain, (((0,), (False,)), 0)], DomainError, "point coordinates must be integers, got False"),
        ([(((0, 0), (0,)), 1)], DimensionMismatch, "expected a point of dimension 1, got 2"),
        ([plain, (((0,), (0, 1)), 0)], DimensionMismatch, "expected a point of dimension 1, got 2"),
        ([(((0,),), 1)], DomainError, "cannot interpret ((0,),) as a pair of points"),
        # entries that are not (pair, weight) pairs once escaped as a bare TypeError
        ([5], DomainError, "cannot interpret 5 as a (pair, weight) entry"),
        ([plain, (((0,), (0,)),)], DomainError, "cannot interpret (((0,), (0,)),) as a (pair, weight) entry"),
        ([((([0],), (0,)), 1)], DomainError, "point coordinates must be integers, got [0]"),
        ([(((0,), (0,)), 2), (((0,), (0,)), -1)], InvalidWeightError, "negative weight -1"),
        (
            [(((0,), (0,)), 1.0)],
            InvalidWeightError,
            "float weight 1.0 is not exact; pass a Fraction or an int",
        ),
        ([], EmptySupportError, "coupling has empty support"),
        ([(((0,), (0,)), 0)], EmptySupportError, "coupling has empty support"),
    ]
    for atoms, error, message in cases:
        for given_atoms in (atoms, iter(atoms)):
            with pytest.raises(error) as caught:
                Coupling(1, given_atoms, mu, mu)
            assert str(caught.value) == message
