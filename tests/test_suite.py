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
)
from helpers import random_phi


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
    rows, summary = run_suite(7, 40, 1, midpoint(1), ["p-bound", "entropy", "marginals"], 1e-9)
    assert len(rows) == 40
    assert summary["summary"]["failed"] == 0
    assert summary["summary"]["worst_log_p"] <= 1e-12
    assert summary["summary"]["worst_gap"] >= -1e-9
    assert summary["summary"]["first_failure"] is None


def test_run_suite_dim2_product_op():
    op = product(midpoint(1), meet_join(1))
    rows, summary = run_suite(7, 25, 2, op, ["p-bound", "entropy", "marginals", "fibers"], 1e-9)
    assert summary["summary"]["instances"] == 25
    # fiber shape fails organically for the min/max block, and that is
    # recorded per instance rather than raised
    assert summary["summary"]["passed"] + summary["summary"]["failed"] == 25


def test_a_suite_builds_each_block_section_once():
    # the pointwise and fiber walks of 1000 instances read 41 distinct
    # (level, prefix difference) keys, point-mass blocks reading none; each
    # section is built once and kept
    op = product(midpoint(1), meet_join(1))
    run_suite(7, 1000, 2, op, ["pointwise", "fibers"], 1e-9)
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
    rows, _summary = run_suite(7, 20, dim, op, SUITE_CHECKS, 1e-9)
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
    rows, summary = run_suite(0, 25, 1, neg, ["pointwise", "p-bound", "entropy"], 1e-9)
    assert summary["summary"]["failed"] > 0
    assert summary["summary"]["first_failure"] is not None


def test_run_suite_empty():
    rows, summary = run_suite(0, 0, 1, midpoint(1), ["p-bound"], 1e-9)
    assert rows == []
    assert summary["summary"]["instances"] == 0
    assert summary["summary"]["failed"] == 0


def test_run_suite_rows_are_deterministic():
    r1, s1 = run_suite(99, 15, 1, meet_join(1), ["p-bound", "entropy"], 1e-9)
    r2, s2 = run_suite(99, 15, 1, meet_join(1), ["p-bound", "entropy"], 1e-9)
    assert r1 == r2 and s1 == s2
