"""Seeded random instances and the suite runner.

Instances are deterministic functions of (master seed, index): instance
``i`` draws from its own counter-derived stream, so batches can be
re-run, resumed, or parallelized without changing the output.  Measures
get at most 8 atoms with coordinates in [-10, 10] and weights obtained
by normalizing random integers from [1, 20]; exponents are drawn from
small rationals with denominators at most 4 and repaired to satisfy the
admissibility condition by raising gamma and delta.

:func:`run_suite` is the one runner: it checks any iterable of
:class:`SuiteInstance`, seeded by :func:`seeded_instances` or built by
hand, and hands each row on as soon as it is computed, keeping only a
running summary, so its memory does not grow with the number of
instances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .coupling import check_fiber_structure, knothe_coupling
from .errors import DomainError
from .lattice import Point
from .measures import FiniteMeasure, ProbabilityMeasure, _log_ratio, _normalized
from .operations import ExponentQuadruple, LatticeOperation, _images, image_sets
from .report import VerificationReport
from .seeding import stream
from .verify import (
    FunctionQuadruple,
    entropy_gap,
    marginal_exactness,
    p_value,
    pointwise_term_bound,
    verify_hypothesis,
)

MAX_ATOMS = 8
COORD_BOUND = 10
MAX_WEIGHT = 20
EXPONENT_MAX_DENOMINATOR = 4
MAXIMAL_GRID = 1024

SUITE_CHECKS = ("pointwise", "p-bound", "entropy", "fibers", "marginals")

# the rationals p/q in (0, 1] with q <= EXPONENT_MAX_DENOMINATOR, ascending
EXPONENT_PALETTE = tuple(
    sorted(
        {
            Fraction(p, q)
            for q in range(1, EXPONENT_MAX_DENOMINATOR + 1)
            for p in range(1, q + 1)
        }
    )
)


def random_points(
    rng: random.Random, dim: int, count: int, bound: int = COORD_BOUND
) -> list[Point]:
    """``count`` distinct points of [-bound, bound]^dim, in draw order."""
    seen: set[Point] = set()
    out: list[Point] = []
    while len(out) < count:
        p = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def random_measure(rng: random.Random, dim: int) -> ProbabilityMeasure:
    count = rng.randint(1, MAX_ATOMS)
    points = random_points(rng, dim, count)
    return _normalized(dim, {p: rng.randint(1, MAX_WEIGHT) for p in points})


def random_exponents(rng: random.Random) -> ExponentQuadruple:
    """Valid exponents with denominators <= EXPONENT_MAX_DENOMINATOR.

    All four are drawn from ``EXPONENT_PALETTE``, the rationals p/q in
    (0, 1] with q <= EXPONENT_MAX_DENOMINATOR; gamma and delta are then
    raised to max(alpha, beta) when needed.  The palette is capped at 1
    because the aggregated transport bound is provable there (every term
    is dominated by the unit-exponent term to the power max(alpha, beta))
    but admits counterexamples once max(alpha, beta) exceeds 1.
    """
    alpha = rng.choice(EXPONENT_PALETTE)
    beta = rng.choice(EXPONENT_PALETTE)
    gamma = max(rng.choice(EXPONENT_PALETTE), alpha, beta)
    delta = max(rng.choice(EXPONENT_PALETTE), alpha, beta)
    return ExponentQuadruple(alpha, beta, gamma, delta)


@dataclass(frozen=True)
class SuiteInstance:
    index: int
    mu: ProbabilityMeasure
    nu: ProbabilityMeasure
    exponents: ExponentQuadruple


def generate_instance(seed: int, index: int, dim: int) -> SuiteInstance:
    rng = stream(seed, index)
    return SuiteInstance(
        index=index,
        mu=random_measure(rng, dim),
        nu=random_measure(rng, dim),
        exponents=random_exponents(rng),
    )


def run_instance(
    instance: SuiteInstance,
    op: LatticeOperation,
    checks: Sequence[str],
    tolerance: float,
) -> list[VerificationReport]:
    """Run the named checks on one instance's Knothe coupling."""
    mu, nu, exponents = instance.mu, instance.nu, instance.exponents
    pi = knothe_coupling(mu, nu, op.decomposition)
    reports: list[VerificationReport] = []
    for name in checks:
        if name == "pointwise":
            reports.append(pointwise_term_bound(mu, nu, pi, op, exponents))
        elif name == "p-bound":
            _, rep = p_value(mu, nu, pi, op, exponents, tolerance)
            reports.append(rep)
        elif name == "entropy":
            _, rep = entropy_gap(mu, nu, op, None, exponents, tolerance)
            reports.append(rep)
        elif name == "fibers":
            reports.append(check_fiber_structure(pi, op))
        elif name == "marginals":
            reports.append(marginal_exactness(pi, mu, nu))
        else:
            raise DomainError(f"unknown check {name!r}; expected one of {SUITE_CHECKS}")
    return reports


def seeded_instances(seed: int, count: int, dim: int) -> Iterator[SuiteInstance]:
    """Instances ``0 .. count - 1`` of ``seed``, generated one at a time."""
    return (generate_instance(seed, index, dim) for index in range(count))


def run_suite(
    instances: Iterable[SuiteInstance],
    op: LatticeOperation,
    checks: Sequence[str],
    tolerance: float,
    emit: Callable[[dict], object],
) -> dict:
    """Run the checks on each instance and hand its row to ``emit`` at once.

    A row is the JSON-ready dict ``{"instance": inst.index, "outcome",
    "reports"}``.  The returned summary fields are a running fold over the
    rows, which keeps no row but the first failing one: the instance and
    pass counts, the worst (largest) log P, the worst (smallest) entropy
    gap, and that first failing row in full.
    """
    count = failed = 0
    worst_log_p: float | None = None
    worst_gap: float | None = None
    first_failure: dict | None = None
    for count, inst in enumerate(instances, 1):
        reports = run_instance(inst, op, checks, tolerance)
        ok = all(r.ok for r in reports)
        for r in reports:
            if r.log_p is not None:
                worst_log_p = r.log_p if worst_log_p is None else max(worst_log_p, r.log_p)
            if r.gap is not None and r.check == "entropy":
                worst_gap = r.gap if worst_gap is None else min(worst_gap, r.gap)
        row = {
            "instance": inst.index,
            "outcome": "verified" if ok else "failed",
            "reports": [r.to_json_dict() for r in reports],
        }
        emit(row)
        if not ok:
            failed += 1
            first_failure = first_failure or row
    return {
        "instances": count,
        "passed": count - failed,
        "failed": failed,
        "checks": list(checks),
        "worst_log_p": worst_log_p,
        "worst_gap": worst_gap,
        "first_failure": first_failure,
    }


# ---------------------------------------------------------------------------
# random quadruple generators for the mass-inequality suites


def _indicator(points: Iterable[Point], dim: int, value=1) -> FiniteMeasure:
    return FiniteMeasure(dim, [(p, value) for p in points])


def random_quadruple(
    rng: random.Random,
    op: LatticeOperation,
    exponents: ExponentQuadruple,
    mode: str = "sets",
) -> FunctionQuadruple:
    """Hypothesis-true function quadruples of increasing texture.

    ``sets``: indicators of random A, B and of their images, for which the
    hypothesis holds by construction.  ``scaled``: the same with f, g
    scaled down and h, k scaled up by random rationals, preserving the
    hypothesis.  ``maximal``: f is replaced on each point by (a rational
    just below) the largest value the hypothesis allows against g, h, k,
    computed in floating point and rounded down.
    """
    dim = op.dim
    points_a = random_points(rng, dim, rng.randint(1, 5), 4)
    points_b = random_points(rng, dim, rng.randint(1, 5), 4)
    sets = (points_a, points_b, *image_sets(op, points_a, points_b))
    if mode == "sets":
        return FunctionQuadruple(*(_indicator(s, dim) for s in sets))
    if mode == "scaled":
        down = Fraction(rng.randint(1, 4), 4)
        up = Fraction(rng.randint(4, 8), 4)
        values = (down, down, up, up)
        return FunctionQuadruple(*(_indicator(s, dim, c) for s, c in zip(sets, values)))
    if mode == "maximal":
        quad = random_quadruple(rng, op, exponents, "scaled")
        return maximal_f_quadruple(quad, exponents, op)
    raise DomainError(f"unknown quadruple mode {mode!r}")


def maximal_f_quadruple(
    quad: FunctionQuadruple, exponents: ExponentQuadruple, op: LatticeOperation
) -> FunctionQuadruple:
    """Replace f by the largest grid rational the hypothesis allows.

    For each x in supp f, the supremum over admissible values is
    min over y in supp g of (h^c(T-) k^d(T+) / g^b(y))^(1/a).  The float
    evaluation is rounded down to a multiple of 1/MAXIMAL_GRID and then
    halved until the exact integer-power hypothesis holds at x, so
    rounding can never fake a true hypothesis.
    """
    alpha = float(exponents.alpha)
    beta = float(exponents.beta)
    gamma = float(exponents.gamma)
    delta = float(exponents.delta)
    g, h, k = quad.g, quad.h, quad.k
    entries = []
    for x in quad.f.support():
        best: float | None = None
        row = _images(op, [(x, y) for y in g._atoms])
        for gn, (zm, zp) in zip(g._atoms.values(), row):
            hn = h._atoms.get(zm)
            kn = k._atoms.get(zp)
            if hn is None or kn is None:
                best = 0.0
                break
            bound = math.exp(
                (
                    gamma * _log_ratio(hn, h._den)
                    + delta * _log_ratio(kn, k._den)
                    - beta * _log_ratio(gn, g._den)
                )
                / alpha
            )
            best = bound if best is None else min(best, bound)
        assert best is not None
        value = Fraction(max(0, math.floor(best * MAXIMAL_GRID)), MAXIMAL_GRID)
        while value > 0 and not verify_hypothesis(
            FunctionQuadruple(FiniteMeasure(quad.dim, [(x, value)]), quad.g, quad.h, quad.k),
            exponents,
            op,
        ).ok:
            value /= 2
        entries.append((x, value))
    if all(v == 0 for _, v in entries):
        # nothing admissible survived rounding; keep the original quadruple
        return quad
    new_f = FiniteMeasure(quad.dim, entries)
    return FunctionQuadruple(new_f, quad.g, quad.h, quad.k)
