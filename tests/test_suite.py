import tracemalloc

import pytest

from discretebm import (
    Coupling,
    DomainError,
    block_section,
    from_difference_map,
    iter_conditional_couplings,
    knothe_coupling,
    meet_join,
    midpoint,
    product,
)
from discretebm import suite, verify
from discretebm.seeding import mix64, stream
from discretebm.suite import (
    SUITE_CHECKS,
    generate_instance,
    random_exponents,
    random_measure,
    run_instance,
    run_suite,
    seeded_instances,
)
from helpers import random_phi


def seeded_rows(seed, count, dim, op, checks, tolerance=1e-9):
    """The rows and summary fields of ``run_suite`` over seeded instances."""
    rows = []
    fields = run_suite(seeded_instances(seed, count, dim), op, checks, tolerance, rows.append)
    return rows, fields


def test_mix64_is_deterministic_and_spread():
    assert mix64(7, 0) == mix64(7, 0)
    assert mix64(7, 0) != mix64(7, 1)
    assert mix64(7, 0) != mix64(8, 0)
    assert 0 <= mix64(2**64 - 1, 2**32) < 2**64


def test_instance_determinism():
    a = generate_instance(7, 42, 1)
    b = generate_instance(7, 42, 1)
    assert a.mu == b.mu and a.nu == b.nu and a.exponents == b.exponents
    c = generate_instance(7, 43, 1)
    assert (a.mu, a.nu) != (c.mu, c.nu)


def test_random_measure_constraints():
    for i in range(50):
        m = random_measure(stream(3, i), 2)
        assert m.total_mass == 1
        assert 1 <= len(m) <= 8
        assert all(-10 <= c <= 10 for x in m.support() for c in x)


def test_random_exponents_constraints():
    for i in range(100):
        e = random_exponents(stream(5, i))
        for v in (e.alpha, e.beta, e.gamma, e.delta):
            assert 0 < v <= 1
            assert v.denominator <= 4
        assert max(e.alpha, e.beta) <= min(e.gamma, e.delta)


def test_random_phi_constraints():
    for i in range(30):
        phi = random_phi(stream(9, i))
        assert 1 <= len(phi) <= 10
        assert all(-3.0 <= v <= 3.0 for v in phi.values())


def test_run_instance_report_names():
    inst = generate_instance(1, 0, 1)
    reports = run_instance(inst, midpoint(1), ["p-bound", "entropy", "marginals"], 1e-9)
    assert [r.check for r in reports] == ["p-bound", "entropy", "marginals"]
    with pytest.raises(DomainError):
        run_instance(inst, midpoint(1), ["bogus"], 1e-9)


def test_run_suite_green_checks():
    rows, summary = seeded_rows(7, 40, 1, midpoint(1), ["p-bound", "entropy", "marginals"])
    assert len(rows) == 40
    assert summary["failed"] == 0
    assert summary["worst_log_p"] <= 1e-12
    assert summary["worst_gap"] >= -1e-9
    assert summary["first_failure"] is None


def test_run_suite_dim2_product_op():
    op = product(midpoint(1), meet_join(1))
    rows, summary = seeded_rows(7, 25, 2, op, ["p-bound", "entropy", "marginals", "fibers"])
    assert summary["instances"] == 25
    # fiber shape fails organically for the min/max block, and that is
    # recorded per instance rather than raised
    assert summary["passed"] + summary["failed"] == 25


def test_a_suite_builds_each_block_section_once():
    # the pointwise and fiber walks of 1000 instances read 41 distinct
    # (level, prefix difference) keys, point-mass blocks reading none; each
    # section is built once and kept
    op = product(midpoint(1), meet_join(1))
    seeded_rows(7, 1000, 2, op, ["pointwise", "fibers"])
    sections = op._sections
    assert len(sections) == 41
    for (level, p), section in sections.items():
        assert block_section(op, level, p, (0,) * len(p)) is section


def t_reads(op):
    info = op.t.cache_info()
    return info.hits + info.misses


def test_a_dim1_instance_reads_t_twice_per_support_pair():
    # pointwise, p-bound and fibers share the images kept on the coupling;
    # entropy builds its own Knothe coupling and reads them once more
    for index in range(30):
        inst = generate_instance(7, index, 1)
        op = midpoint(1)
        run_instance(inst, op, SUITE_CHECKS, 1e-9)
        pi = knothe_coupling(inst.mu, inst.nu, op.decomposition)
        assert t_reads(op) == 2 * len(pi)


def test_a_dim2_instance_reads_each_section_once_per_conditional_pair():
    # pointwise reads every conditional support pair through its block
    # section, and fibers reads the images kept on the conditional coupling;
    # neither reads a block whose two block conditionals are point masses
    verified = 0
    for index in range(30):
        inst = generate_instance(7, index, 2)
        op = product(midpoint(1), meet_join(1))
        pointwise = run_instance(inst, op, SUITE_CHECKS, 1e-9)[0]
        pi = knothe_coupling(inst.mu, inst.nu, op.decomposition)
        fam_mu = inst.mu.disintegrate(op.decomposition)
        fam_nu = inst.nu.disintegrate(op.decomposition)
        pairs = {}
        for level, px, py, cond in iter_conditional_couplings(pi, op.decomposition):
            if len(fam_mu[level][px]) == len(fam_nu[level][py]) == 1:
                continue
            key = (level, tuple(a - b for a, b in zip(px, py)))
            pairs[key] = pairs.get(key, 0) + len(cond)
        reads = {key: t_reads(section) for key, section in op._sections.items()}
        if pointwise.ok:
            assert reads == pairs
        else:
            # a violation stops the pointwise walk, and fibers reads the rest
            assert all(n <= pairs[key] for key, n in reads.items())
        verified += pointwise.ok
    assert verified >= 25


@pytest.mark.parametrize(
    "dim, op, certified",
    [(1, midpoint(1), 5), (2, product(midpoint(1), meet_join(1)), 2)],
    ids=["dim1", "dim2"],
)
def test_knothe_builds_and_certifications_per_instance(dim, op, certified, monkeypatch):
    # the suite's Knothe coupling and entropy_gap's own; on several blocks
    # each build certifies only the coupling it assembles, and its
    # conditional walk is its construction, so the checks certify nothing
    # more; on one block each build certifies twice, plus the level-0
    # conditional coupling
    certify = Coupling.__init__
    calls = []
    built = []

    def counted(self, *args, **kwargs):
        calls.append(self)
        certify(self, *args, **kwargs)

    def knothe(*args):
        built.append(args)
        return knothe_coupling(*args)

    monkeypatch.setattr(Coupling, "__init__", counted)
    monkeypatch.setattr(suite, "knothe_coupling", knothe)
    monkeypatch.setattr(verify, "knothe_coupling", knothe)
    rows, _summary = seeded_rows(7, 20, dim, op, SUITE_CHECKS)
    monkeypatch.undo()
    assert Coupling.__init__ is certify
    assert suite.knothe_coupling is verify.knothe_coupling is knothe_coupling
    assert len(rows) == 20
    assert len(built) == 2 * 20
    assert len(calls) == certified * 20


def test_run_suite_negative_control_fails():
    # the negated difference map only misbehaves on instances where its
    # plus-map collides, so a couple of dozen draws are needed
    neg = from_difference_map(1, None, lambda w: (-w[0],))
    rows, summary = seeded_rows(0, 25, 1, neg, ["pointwise", "p-bound", "entropy"])
    assert summary["failed"] > 0
    assert summary["first_failure"] is not None


def test_run_suite_empty():
    rows, summary = seeded_rows(0, 0, 1, midpoint(1), ["p-bound"])
    assert rows == []
    assert summary["instances"] == 0
    assert summary["failed"] == 0


def test_run_suite_rows_are_deterministic():
    r1, s1 = seeded_rows(99, 15, 1, meet_join(1), ["p-bound", "entropy"])
    r2, s2 = seeded_rows(99, 15, 1, meet_join(1), ["p-bound", "entropy"])
    assert r1 == r2 and s1 == s2


def test_run_suite_reads_any_iterable_of_instances():
    # instances 5 and 2 of seed 7, in that order, give their seeded rows
    checks = ["pointwise", "p-bound", "entropy"]
    seeded, _ = seeded_rows(7, 6, 1, midpoint(1), checks)
    rows = []
    instances = [generate_instance(7, 5, 1), generate_instance(7, 2, 1)]
    fields = run_suite(instances, midpoint(1), checks, 1e-9, rows.append)
    assert rows == [seeded[5], seeded[2]]
    assert fields["instances"] == 2


def test_run_suite_memory_does_not_grow_with_the_instances():
    # with an emit that drops each row, the suite keeps only its running
    # summary: the traced peak over 400 instances stays within 64 KiB of the
    # peak over 100, while the 400 rows alone take over 500 KiB
    def peak(count):
        tracemalloc.start()
        try:
            run_suite(seeded_instances(7, count, 1), midpoint(1), SUITE_CHECKS, 1e-9, lambda row: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(400)  # fill the caches that outlive one run
    assert peak(400) <= peak(100) + 64 * 1024
