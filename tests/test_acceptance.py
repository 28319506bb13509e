"""Acceptance criteria, one test per criterion (criteria 3 and 4 split into
their three thresholds).  Each test prints a single pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.

Three tests document claims that are not theorems and fail by honest
measurement rather than being weakened:

* criteria 3a and 4a assert the per-pair transport bound
  kappa-(T-) kappa+(T+) <= mu(x) nu(y) at every support pair.  The bound
  admits elementary counterexamples, e.g. mu = (2/5, 1/5, 2/5) on {5, 6, 7}
  against a Dirac at 0 under the floor-average pair, where the term at
  (6, 0) is 9/5.  The aggregated sum P stays below 1 on every instance
  (criteria 3b, 4b), which is the inequality the entropy result needs.
* criterion 6 asserts that coupling fibers have at most two elements in
  unit-step shape with aligned partners.  Cardinality is unbounded for
  min/max (min(1, y) = 1 for every y >= 1), and the diagonal-alignment
  clause fails even for the floor-average pair whenever both fibers step
  in the same argument.

The failure counts printed by these tests are deterministic.
"""

import math
import time
from fractions import Fraction as F
from itertools import product as cartesian

from discretebm import (
    ExponentQuadruple,
    ProbabilityMeasure,
    check_fiber_structure,
    check_p2,
    entropy_gap,
    from_difference_map,
    knothe_coupling,
    meet_join,
    midpoint,
    monotone_coupling,
    p_value,
    pointwise_term_bound,
    product,
    set_dbm,
    standard_order,
)
from discretebm.suite import generate_instance
from helpers import random_phi, uniform

UNIT = ExponentQuadruple.unit()
ORDER1 = standard_order(1)
SEED = 7
DIM1_INSTANCES = 1000
DIM2_INSTANCES = 300


def report(name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {name}: {status}{' (' + extra + ')' if extra else ''}")
    return ok


def dim1_cases():
    # even indices use the floor-average pair, odd ones min/max
    for i in range(DIM1_INSTANCES):
        inst = generate_instance(SEED, i, 1)
        op = midpoint(1) if i % 2 == 0 else meet_join(1)
        yield inst, op, monotone_coupling(inst.mu, inst.nu, ORDER1)


def dim2_cases():
    op = product(midpoint(1), meet_join(1))
    for i in range(DIM2_INSTANCES):
        inst = generate_instance(SEED, i, 2)
        yield inst, op, knothe_coupling(inst.mu, inst.nu, op.decomposition)


def test_criterion_1_midpoint_sets_exhaustive():
    """All nonempty A, B in {0..5}: |A||B| <= |floor-avg set| |ceil-avg set|."""
    start = time.time()
    op = midpoint(1)
    base = [(i,) for i in range(6)]
    subsets = [[base[b] for b in range(6) if mask >> b & 1] for mask in range(1, 64)]
    failures = sum(
        0 if set_dbm(a, b, op, UNIT).ok else 1 for a in subsets for b in subsets
    )
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 10.0
    assert report("1", ok, f"3969 pairs, {failures} violations, {elapsed:.1f}s")


def test_criterion_2_meet_join_cube_exhaustive():
    """All nonempty A, B in {0,1}^3: |A||B| <= |A meet B| |A join B|."""
    start = time.time()
    op = meet_join(3)
    cube = list(cartesian((0, 1), repeat=3))
    subsets = [[cube[b] for b in range(8) if mask >> b & 1] for mask in range(1, 256)]
    failures = sum(
        0 if set_dbm(a, b, op, UNIT).ok else 1 for a in subsets for b in subsets
    )
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 60.0
    assert report("2", ok, f"65025 pairs, {failures} violations, {elapsed:.1f}s")


def test_criterion_3a_dim1_pointwise():
    """Per-pair transport bound over 1000 seeded instances (not a theorem)."""
    start = time.time()
    failures = sum(
        0 if pointwise_term_bound(inst.mu, inst.nu, pi, op, inst.exponents).ok else 1
        for inst, op, pi in dim1_cases()
    )
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 60.0
    assert report(
        "3a",
        ok,
        f"{DIM1_INSTANCES} instances, {failures} with a support pair above 1, {elapsed:.1f}s",
    )


def test_criterion_3b_dim1_log_p():
    """log P <= 1e-12 over 1000 seeded instances."""
    start = time.time()
    worst = -math.inf
    for inst, op, pi in dim1_cases():
        log_p, _ = p_value(inst.mu, inst.nu, pi, op, inst.exponents)
        worst = max(worst, log_p)
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    assert report("3b", ok, f"worst log P = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_3c_dim1_entropy():
    """entropy gap >= -1e-9 over 1000 seeded instances."""
    start = time.time()
    worst = math.inf
    for inst, op, _ in dim1_cases():
        gap, _ = entropy_gap(inst.mu, inst.nu, op, None, inst.exponents)
        worst = min(worst, gap)
    elapsed = time.time() - start
    ok = worst >= -1e-9 and elapsed < 60.0
    assert report("3c", ok, f"worst gap = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_4a_dim2_pointwise():
    """Blockwise per-pair bound over 300 seeded Knothe instances (not a theorem)."""
    start = time.time()
    failures = sum(
        0 if pointwise_term_bound(inst.mu, inst.nu, pi, op, inst.exponents).ok else 1
        for inst, op, pi in dim2_cases()
    )
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 120.0
    assert report(
        "4a",
        ok,
        f"{DIM2_INSTANCES} instances, {failures} with a conditional term above 1, {elapsed:.1f}s",
    )


def test_criterion_4b_dim2_log_p():
    start = time.time()
    worst = -math.inf
    for inst, op, pi in dim2_cases():
        log_p, _ = p_value(inst.mu, inst.nu, pi, op, inst.exponents)
        worst = max(worst, log_p)
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 120.0
    assert report("4b", ok, f"worst log P = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_4c_dim2_entropy():
    start = time.time()
    worst = math.inf
    for inst, op, _ in dim2_cases():
        gap, _ = entropy_gap(inst.mu, inst.nu, op, None, inst.exponents)
        worst = min(worst, gap)
    elapsed = time.time() - start
    ok = worst >= -1e-9 and elapsed < 120.0
    assert report("4c", ok, f"worst gap = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_5_equality_instance():
    """The uniform{0,1,2} / uniform{0,1} floor-average instance is tight."""
    mu, nu = uniform([0, 1, 2]), uniform([0, 1])
    op = midpoint(1)
    pi = monotone_coupling(mu, nu, ORDER1)
    coupling_ok = dict(pi.items()) == {
        ((0,), (0,)): F(1, 3),
        ((1,), (0,)): F(1, 6),
        ((1,), (1,)): F(1, 6),
        ((2,), (1,)): F(1, 3),
    }
    km = pi.pushforward_by(op.t_minus)
    kp = pi.pushforward_by(op.t_plus)
    kappa_ok = km == ProbabilityMeasure(1, [(0, F(1, 2)), (1, F(1, 2))]) and kp == uniform(
        [0, 1, 2]
    )
    # exact oracle for P = sum of terms weighted by the coupling
    p_exact = sum(
        km.weight_at(op.t_minus(x, y))
        * kp.weight_at(op.t_plus(x, y))
        / (mu.weight_at(x) * nu.weight_at(y))
        * w
        for (x, y), w in pi.items()
    )
    log_p, _ = p_value(mu, nu, pi, op, UNIT)
    gap, _ = entropy_gap(mu, nu, op)
    ok = (
        coupling_ok
        and kappa_ok
        and p_exact == 1
        and abs(log_p) <= 1e-12
        and abs(gap) <= 1e-12
    )
    assert report("5", ok, f"P = {p_exact}, log P = {log_p:.1e}, gap = {gap:.1e}")


def test_criterion_6_fiber_structure():
    """Fiber cardinality/shape/alignment over the dim-1 instances (not a theorem)."""
    start = time.time()
    failures = sum(
        0 if check_fiber_structure(pi, op).ok else 1 for _, op, pi in dim1_cases()
    )
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 60.0
    assert report("6", ok, f"{DIM1_INSTANCES} instances, {failures} violations, {elapsed:.1f}s")


def test_criterion_7_marginal_exactness():
    """Every coupling from criteria 3-5 projects back exactly."""
    start = time.time()
    bad = 0
    for inst, _, pi in dim1_cases():
        if pi.marginal("first") != inst.mu or pi.marginal("second") != inst.nu:
            bad += 1
    for inst, _, pi in dim2_cases():
        if pi.marginal("first") != inst.mu or pi.marginal("second") != inst.nu:
            bad += 1
    mu, nu = uniform([0, 1, 2]), uniform([0, 1])
    pi = monotone_coupling(mu, nu, ORDER1)
    if pi.marginal("first") != mu or pi.marginal("second") != nu:
        bad += 1
    elapsed = time.time() - start
    ok = bad == 0
    assert report("7", ok, f"{DIM1_INSTANCES + DIM2_INSTANCES + 1} couplings, {bad} mismatches, {elapsed:.1f}s")


def test_criterion_8_negative_control():
    """The w -> -w difference map is detected four independent ways."""
    op = from_difference_map(1, None, lambda w: (-w[0],))
    mu, nu = uniform([0, 1]), uniform([0, 2])
    pi = monotone_coupling(mu, nu, ORDER1)

    pw = pointwise_term_bound(mu, nu, pi, op, UNIT)
    pw_ok = (not pw.ok) and pw.witness["x"] == (0,) and pw.witness["y"] == (0,) and pw.lhs / pw.rhs == 2

    log_p, prep = p_value(mu, nu, pi, op, UNIT)
    p_ok = (not prep.ok) and math.isclose(log_p, math.log(2), abs_tol=1e-12)

    gap, erep = entropy_gap(mu, nu, op)
    e_ok = (not erep.ok) and math.isclose(gap, -math.log(2), abs_tol=1e-9)

    p2 = check_p2(op, 2)
    p2_ok = (not p2.ok) and p2.witness is not None

    ok = pw_ok and p_ok and e_ok and p2_ok
    assert report(
        "8",
        ok,
        f"term 2 at (0,0): {pw_ok}, P = 2: {p_ok}, gap = -log 2: {e_ok}, P2 witness: {p2_ok}",
    )


def test_criterion_9_log_laplace():
    """200 seeded random functions satisfy the variational identity."""
    from discretebm import log_laplace_gap
    from discretebm.seeding import stream

    start = time.time()
    bad = 0
    worst = 0.0
    for i in range(200):
        phi = random_phi(stream(SEED, i))
        gap, rep = log_laplace_gap(phi, tolerance=1e-9, seed=SEED + i)
        worst = max(worst, abs(gap))
        if not rep.ok:
            bad += 1
    elapsed = time.time() - start
    ok = bad == 0 and worst <= 1e-9
    assert report("9", ok, f"200 functions, worst |gap| = {worst:.1e}, {bad} failures, {elapsed:.1f}s")
