"""Self-tests of the brute-force definitions in ``oracle``."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discretebm import DimensionMismatch, FiniteMeasure, ProbabilityMeasure, standard_order
from helpers import dirac, uniform
import oracle

ORDER1 = standard_order(1)

small_measures = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(1, 20)), min_size=1, max_size=8
).map(lambda entries: FiniteMeasure(1, [((x,), F(w)) for x, w in entries]).normalize())


def test_cdf_and_quantile_examples():
    m = uniform([0, 1, 2])
    assert oracle.cdf(dirac(0), ORDER1, (0,)) == 1
    assert oracle.cdf(m, ORDER1, (1,)) == F(2, 3)
    assert oracle.cdf(m, ORDER1, (-1,)) == 0
    assert oracle.quantile(dirac(5), ORDER1, F(1, 2)) == (5,)
    assert oracle.quantile(m, ORDER1, F(1, 3)) == (0,)
    assert oracle.quantile(m, ORDER1, F(1, 3) + F(1, 1000)) == (1,)
    assert oracle.quantile(uniform([0, 1]), ORDER1, 1) == (1,)


@given(small_measures)
@settings(max_examples=80)
def test_quantile_cdf_galois(m):
    # quantile(t) <= x iff t <= cdf(x), over support points and a rational grid
    key = ORDER1.key
    cdf = {x: oracle.cdf(m, ORDER1, x) for x in m.support()}
    for t in [F(k, 7) for k in range(1, 8)] + list(cdf.values()):
        q = oracle.quantile(m, ORDER1, t)
        for x in m.support():
            assert (key(q) <= key(x)) == (t <= cdf[x])


@given(small_measures, small_measures)
@settings(max_examples=60)
def test_quantile_coupling_pairs_equal_quantiles(mu, nu):
    # the law of (quantile_mu(t), quantile_nu(t)) for t uniform on (0, 1]:
    # both quantiles are constant between consecutive cdf values
    cuts = sorted({oracle.cdf(m, ORDER1, x) for m in (mu, nu) for x in m.support()})
    lengths = {t: t - s for s, t in zip([0, *cuts], cuts)}
    law = oracle.pushforward(
        lengths, lambda t: (oracle.quantile(mu, ORDER1, t), oracle.quantile(nu, ORDER1, t))
    )
    assert oracle.quantile_coupling(mu, nu, ORDER1) == law


def test_pushforward_examples():
    m = uniform([0, 1, 2])
    assert oracle.pushforward(m, lambda x: x) == dict(m.items())
    assert oracle.pushforward(m, lambda x: (0,)) == {(0,): 1}
    # pair measure pushed through the floor-average map
    pairs = ProbabilityMeasure(
        2,
        [((0, 0), F(1, 3)), ((1, 0), F(1, 6)), ((1, 1), F(1, 6)), ((2, 1), F(1, 3))],
    )
    pushed = oracle.pushforward(pairs, lambda p: ((p[0] + p[1]) // 2,))
    assert pushed == {(0,): F(1, 2), (1,): F(1, 2)}


def test_pushforward_mixed_output_dim():
    with pytest.raises(DimensionMismatch):
        oracle.pushforward(uniform([0, 1]), lambda x: (0,) if x == (0,) else (0, 0))


@given(small_measures)
@settings(max_examples=60)
def test_pushforward_preserves_mass(m):
    assert sum(oracle.pushforward(m, lambda x: (x[0] // 3,)).values()) == m.total_mass
