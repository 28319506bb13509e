"""Theorem-level verifiers.

Five statements are checked, every rational comparison exactly:

* the weighted hypothesis f^a(x) g^b(y) <= h^c(T-(x,y)) k^d(T+(x,y)) and
  the matching conclusion on the four total masses (the weighted discrete
  Brunn-Minkowski inequality);
* its set form: |A|^a |B|^b <= |T-(A,B)|^c |T+(A,B)|^d, which for the
  midpoint pair is the floor-average set inequality and for meet/join the
  four functions inequality on counts;
* the pointwise transport bound on the coupling: within each ordered
  block, conditionally on prefixes, the term
  kappa-^c kappa+^d / (mu^a nu^b) is at most 1 at every support pair;
* the aggregated bound P = sum of terms weighted by the coupling, P <= 1,
  reported as log P;
* the entropy inequality a H(mu) + b H(nu) >= c H(kappa-) + d H(kappa+)
  for the Knothe coupling, and the log-Laplace variational identity used
  to derive the mass inequality from the entropy one.

Rational exponents are handled by raising both sides to the common
denominator N of (a, b, c, d): the resulting integer-power comparison is
exact, so hypothesis, conclusion, set, and pointwise reports all carry
tolerance 0.  Only entropies and log P are floating point; their default
absolute tolerance is 1e-9.

Transport terms are evaluated once per support pair of the coupling, on
the stored weight form of every measure: integer numerators over one
denominator per measure (see :mod:`discretebm.measures`).  A term
kappa-^c kappa+^d / (mu^a nu^b) exceeds 1 iff the numerators' powers,
cross-multiplied with the denominators' powers, exceed the other side's,
and log P takes the log of each term from that integer ratio in lowest
terms, the value a ``Fraction`` quotient would hold.  ``Fraction``
values are built only for the ``lhs``/``rhs`` a report carries.

Two scope warnings, both enforced by reporting rather than assuming:

* The pointwise bound is a single-block statement, checked conditionally
  within each block for multi-block operations (the unscoped product over
  blocks can exceed 1 when distinct prefix pairs share an image prefix).
  Even on a single block it is not universally valid: three atoms against
  a Dirac can push one term above 1 while P stays below 1 (see the test
  suite for the exact witness).  Violations are reported with witnesses.
* P <= 1 itself is guaranteed when max(a, b) <= 1, because every term is
  then dominated by the unit-exponent term raised to max(a, b) and the
  unit-exponent sum is bounded by 1; for larger a or b there are valid
  exponent quadruples with P > 1, and ``p_value`` reports them as
  violations.  ``p_value`` claims exactness only when the global per-pair
  terms are all at most 1, and falls back to the log-domain tolerance
  otherwise.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .coupling import (
    Coupling,
    _mismatched_side,
    _pair_projection,
    _support_images,
    iter_conditional_couplings,
    knothe_coupling,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptySupportError,
    MarginalMismatch,
)
from .lattice import Decomposition, Point, as_point
from .measures import FiniteMeasure, ProbabilityMeasure, _entropy, _log_ratio, _reduced
from .operations import (
    ExponentQuadruple,
    LatticeOperation,
    _images,
    block_section,
    check_complement,
    check_p1,
    check_p2,
    image_sets,
)
from .report import INAPPLICABLE, VERIFIED, VIOLATED, VerificationReport
from .seeding import stream

__all__ = [
    "FunctionQuadruple",
    "VerificationReport",
    "verify_hypothesis",
    "verify_conclusion",
    "verify_dbm",
    "set_dbm",
    "pointwise_term_bound",
    "p_value",
    "entropy_gap",
    "log_laplace_gap",
    "marginal_exactness",
]

DEFAULT_TOLERANCE = 1e-9
LOG_LAPLACE_COMPETITORS = 100


@dataclass(frozen=True)
class FunctionQuadruple:
    """Four nonnegative finitely supported functions, shared dimension.

    Measures double as functions: the value off the stored support is 0.
    """

    f: FiniteMeasure
    g: FiniteMeasure
    h: FiniteMeasure
    k: FiniteMeasure

    def __post_init__(self) -> None:
        dims = {m.dim for m in (self.f, self.g, self.h, self.k)}
        if len(dims) != 1:
            raise DimensionMismatch(f"quadruple functions live on mixed dimensions {dims}")

    @property
    def dim(self) -> int:
        return self.f.dim


def _logsumexp(values: list[float]) -> float:
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


def verify_hypothesis(
    quad: FunctionQuadruple, exponents: ExponentQuadruple, op: LatticeOperation
) -> VerificationReport:
    """Exact pointwise hypothesis check over supp f x supp g.

    Off those supports the left side vanishes and the inequality is
    automatic.  On violation the witness pair and the powered sides are
    reported.
    """
    if quad.dim != op.dim:
        raise DimensionMismatch("quadruple and operation dimensions differ")
    a_n, b_n, c_n, d_n = exponents.integer_exponents()
    f, g, h, k = quad.f, quad.g, quad.h, quad.k
    # f^a g^b <= h^c k^d, each weight a numerator over its measure's denominator
    lhs_den = f._den**a_n * g._den**b_n
    rhs_den = h._den**c_n * k._den**d_n
    pairs = 0
    for x, fn in f._atoms.items():
        f_pow = fn**a_n
        row = _images(op, [(x, y) for y in g._atoms])
        for (y, gn), (zm, zp) in zip(g._atoms.items(), row):
            lhs = f_pow * gn**b_n
            rhs = h._atoms.get(zm, 0) ** c_n * k._atoms.get(zp, 0) ** d_n
            pairs += 1
            if lhs * rhs_den > rhs * lhs_den:
                return VerificationReport(
                    check="hypothesis",
                    outcome=VIOLATED,
                    lhs=Fraction(lhs, lhs_den),
                    rhs=Fraction(rhs, rhs_den),
                    witness={"x": x, "y": y},
                )
    return VerificationReport(check="hypothesis", outcome=VERIFIED, detail=f"{pairs} pairs")


def verify_conclusion(
    quad: FunctionQuadruple, exponents: ExponentQuadruple
) -> VerificationReport:
    """Exact mass inequality (sum f)^a (sum g)^b <= (sum h)^c (sum k)^d."""
    a_n, b_n, c_n, d_n = exponents.integer_exponents()
    lhs = quad.f.total_mass**a_n * quad.g.total_mass**b_n
    rhs = quad.h.total_mass**c_n * quad.k.total_mass**d_n
    if lhs > rhs:
        return VerificationReport(
            check="conclusion",
            outcome=VIOLATED,
            lhs=lhs,
            rhs=rhs,
            witness={
                "sum_f": quad.f.total_mass,
                "sum_g": quad.g.total_mass,
                "sum_h": quad.h.total_mass,
                "sum_k": quad.k.total_mass,
            },
        )
    return VerificationReport(check="conclusion", outcome=VERIFIED, lhs=lhs, rhs=rhs)


def verify_dbm(
    quad: FunctionQuadruple,
    exponents: ExponentQuadruple,
    op: LatticeOperation,
    box_radius: int = 4,
) -> VerificationReport:
    """Full weighted inequality check: operation properties, hypothesis,
    conclusion.

    If the operation fails its box checks, or the hypothesis fails, the
    conclusion is not asserted and the report is ``inapplicable`` with
    all sub-results attached.  With a valid operation and a verified
    hypothesis the conclusion must verify; a violation would disprove
    the inequality itself.
    """
    subs = [
        check_p1(op, box_radius),
        check_p2(op, box_radius),
        check_complement(op, box_radius),
    ]
    bad = next((r for r in subs if not r.ok), None)
    if bad is not None:
        return VerificationReport(
            check="dbm",
            outcome=INAPPLICABLE,
            witness=bad.witness,
            detail=f"operation failed the {bad.check} check",
            subchecks=tuple(subs),
        )
    hyp = verify_hypothesis(quad, exponents, op)
    subs.append(hyp)
    if not hyp.ok:
        return VerificationReport(
            check="dbm",
            outcome=INAPPLICABLE,
            witness=hyp.witness,
            detail="hypothesis fails; conclusion not asserted",
            subchecks=tuple(subs),
        )
    conc = verify_conclusion(quad, exponents)
    subs.append(conc)
    return VerificationReport(
        check="dbm",
        outcome=conc.outcome,
        lhs=conc.lhs,
        rhs=conc.rhs,
        witness=conc.witness,
        subchecks=tuple(subs),
    )


def set_dbm(
    set_a: Iterable,
    set_b: Iterable,
    op: LatticeOperation,
    exponents: ExponentQuadruple,
) -> VerificationReport:
    """Set form on indicator functions, compared exactly on cardinalities.

    Builds the image sets T-(A, B) and T+(A, B) over all pairs and checks
    |A|^a |B|^b <= |T-(A,B)|^c |T+(A,B)|^d through integer powers.  The
    pointwise hypothesis for the indicator quadruple holds by
    construction.
    """
    dim = op.dim
    points_a = {as_point(p, dim) for p in set_a}
    points_b = {as_point(p, dim) for p in set_b}
    if not points_a or not points_b:
        raise EmptySupportError("set inequality needs nonempty sets")
    image_minus, image_plus = image_sets(op, points_a, points_b)
    a_n, b_n, c_n, d_n = exponents.integer_exponents()
    lhs = Fraction(len(points_a) ** a_n * len(points_b) ** b_n)
    rhs = Fraction(len(image_minus) ** c_n * len(image_plus) ** d_n)
    if lhs > rhs:
        return VerificationReport(
            check="set-bm",
            outcome=VIOLATED,
            lhs=lhs,
            rhs=rhs,
            witness={
                "card_a": len(points_a),
                "card_b": len(points_b),
                "card_minus": len(image_minus),
                "card_plus": len(image_plus),
            },
        )
    return VerificationReport(check="set-bm", outcome=VERIFIED, lhs=lhs, rhs=rhs)


def _require_marginals(
    pi: Coupling, mu: ProbabilityMeasure, nu: ProbabilityMeasure
) -> None:
    if pi.left != mu or pi.right != nu:
        raise MarginalMismatch("coupling marginals do not match the given measures")


def _transport(pi: Coupling, op: LatticeOperation):
    """T- and T+ at every support pair of ``pi``, and both pushforwards.

    The difference map is read once per support pair per coupling and
    operation: both images come from that value, and they are kept on
    ``pi`` for its other checks under ``op``
    (:func:`~discretebm.coupling._support_images`).  Returns the image
    pairs (T-(x, y), T+(x, y)) in ``pi``'s atom order, and kappa- and
    kappa+ in the stored weight form, as (numerators by image,
    denominator), summed from ``pi``'s numerators.
    """
    images = _support_images(pi, op)
    minus: dict[Point, int] = {}
    plus: dict[Point, int] = {}
    for (zm, zp), n in zip(images, pi._atoms.values()):
        minus[zm] = minus.get(zm, 0) + n
        plus[zp] = plus.get(zp, 0) + n
    return images, _reduced(minus, pi._den), _reduced(plus, pi._den)


def _term(km: int, kp: int, mw: int, nw: int, powers, scales) -> tuple[int, int]:
    """kappa-^c kappa+^d / (mu^a nu^b) as an integer ratio (top, bottom).

    ``km``, ``kp``, ``mw`` and ``nw`` are the weights' numerators,
    ``powers`` the integer exponents (a, b, c, d), and ``scales`` the
    denominators' powers (den(mu)^a den(nu)^b, den(kappa-)^c den(kappa+)^d),
    which cross-multiply into the numerators' powers.
    """
    a, b, c, d = powers
    return km**c * kp**d * scales[0], mw**a * nw**b * scales[1]


def pointwise_term_bound(
    mu: ProbabilityMeasure,
    nu: ProbabilityMeasure,
    pi: Coupling,
    op: LatticeOperation,
    exponents: ExponentQuadruple,
) -> VerificationReport:
    """Exact per-pair transport bound, blockwise along the decomposition.

    For each block and each support prefix pair, the conditional coupling
    (from the walk :func:`iter_conditional_couplings` keeps on ``pi``, which
    the fiber check shares) is pushed forward by both block sections and
    the term

        kappa-^c(T-) kappa+^d(T+) / (mu^a(x) nu^b(y))

    built from the conditional measures is required to be <= 1 at every
    conditional support pair.  The comparison is exact: with integer
    powers and the weights as integer ratios, a term exceeds 1 iff the
    cross-multiplied numerators exceed the cross-multiplied denominators.
    For a single-block operation this is the plain statement with the
    global pushforwards and the unconditioned measures.  A point-mass
    block (see :mod:`discretebm.coupling`) is counted, not evaluated.

    The bound holds on many instances, with equality on tight ones, but
    it is not universally valid (see the module docstring); a failing
    term is reported with its block and support pair.
    """
    _require_marginals(pi, mu, nu)
    d = op.decomposition
    if d.total_dim != pi.dim:
        raise DimensionMismatch("operation decomposition does not match coupling dimension")
    powers = a_n, b_n, c_n, d_n = exponents.integer_exponents()
    fam_mu = mu.disintegrate(d)
    fam_nu = nu.disintegrate(d)
    terms = 0
    for level, px, py, cond in iter_conditional_couplings(pi, d):
        terms += len(cond)
        mu_block = fam_mu[level][px]
        nu_block = fam_nu[level][py]
        mu_atoms, nu_atoms = mu_block._atoms, nu_block._atoms
        if len(mu_atoms) == len(nu_atoms) == 1:
            continue
        images, (minus, minus_den), (plus, plus_den) = _transport(
            cond, block_section(op, level, px, py)
        )
        scales = (mu_block._den**a_n * nu_block._den**b_n, minus_den**c_n * plus_den**d_n)
        for (xb, yb), (zm, zp) in zip(cond._atoms, images):
            km, kp, mw, nw = minus[zm], plus[zp], mu_atoms[xb], nu_atoms[yb]
            top, bottom = _term(km, kp, mw, nw, powers, scales)
            if top > bottom:
                return VerificationReport(
                    check="pointwise",
                    outcome=VIOLATED,
                    lhs=Fraction(km**c_n * kp**d_n, scales[1]),
                    rhs=Fraction(mw**a_n * nw**b_n, scales[0]),
                    witness={"block": level + 1, "x": px + xb, "y": py + yb},
                )
    return VerificationReport(check="pointwise", outcome=VERIFIED, detail=f"{terms} terms")


def p_value(
    mu: ProbabilityMeasure,
    nu: ProbabilityMeasure,
    pi: Coupling,
    op: LatticeOperation,
    exponents: ExponentQuadruple,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[float, VerificationReport]:
    """log P for P = sum over supp pi of the global term times pi(x, y).

    Each term is an integer ratio top / bottom, cross-multiplied from the
    integer powers of the weights' numerators and denominators.  It
    exceeds 1 iff top > bottom, and its log is taken from the reduced
    ratio, log(top / g) - log(bottom / g) with g = gcd(top, bottom); log P
    is a log-sum-exp over support atoms.  When every global term is <= 1
    exactly, P <= 1 follows from total mass 1 and the report is exact
    (tolerance 0); otherwise the report compares log P to ``tolerance``.
    """
    _require_marginals(pi, mu, nu)
    if op.dim != pi.dim:
        raise DimensionMismatch("operation and coupling dimensions differ")
    powers = a_n, b_n, c_n, d_n = exponents.integer_exponents()
    n = exponents.common_denominator
    images, (minus, minus_den), (plus, plus_den) = _transport(pi, op)
    scales = (mu._den**a_n * nu._den**b_n, minus_den**c_n * plus_den**d_n)
    mu_atoms, nu_atoms, den = mu._atoms, nu._atoms, pi._den
    logs: list[float] = []
    all_terms_bounded = True
    for ((x, y), wn), (zm, zp) in zip(pi._atoms.items(), images):
        top, bottom = _term(minus[zm], plus[zp], mu_atoms[x], nu_atoms[y], powers, scales)
        if top > bottom:
            all_terms_bounded = False
        logs.append(_log_ratio(top, bottom) / n + _log_ratio(wn, den))
    log_p = _logsumexp(logs)
    report = functools.partial(VerificationReport, check="p-bound", log_p=log_p)
    if all_terms_bounded:
        return log_p, report(outcome=VERIFIED, detail="every support term is at most 1 exactly")
    if log_p <= tolerance:
        return log_p, report(outcome=VERIFIED, tolerance_used=tolerance)
    return log_p, report(outcome=VIOLATED, tolerance_used=tolerance, witness={"log_p": log_p})


def entropy_gap(
    mu: ProbabilityMeasure,
    nu: ProbabilityMeasure,
    op: LatticeOperation,
    decomposition: Decomposition | None = None,
    exponents: ExponentQuadruple | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[float, VerificationReport]:
    """Entropy inequality gap for the Knothe coupling of mu and nu.

    gap = a H(mu) + b H(nu) - c H(kappa-) - d H(kappa+), where kappa+-
    are the pushforwards of the Knothe coupling built along the
    operation's decomposition, summed in one pass over its support pairs.
    Verified when gap >= -tolerance.
    """
    if decomposition is None:
        decomposition = op.decomposition
    elif decomposition != op.decomposition:
        raise DomainError("decomposition must match the operation's declared decomposition")
    if exponents is None:
        exponents = ExponentQuadruple.unit()
    _, kappa_minus, kappa_plus = _transport(knothe_coupling(mu, nu, decomposition), op)
    lhs = float(exponents.alpha) * mu.relative_entropy() + float(
        exponents.beta
    ) * nu.relative_entropy()
    rhs = float(exponents.gamma) * _entropy(*kappa_minus) + float(
        exponents.delta
    ) * _entropy(*kappa_plus)
    gap = lhs - rhs
    report = functools.partial(
        VerificationReport, check="entropy", lhs=lhs, rhs=rhs, gap=gap, tolerance_used=tolerance
    )
    if gap >= -tolerance:
        return gap, report(outcome=VERIFIED)
    return gap, report(outcome=VIOLATED, witness={"gap": gap})


def marginal_exactness(
    pi: Coupling, mu: ProbabilityMeasure, nu: ProbabilityMeasure
) -> VerificationReport:
    """Exact equality of the coupling's projections with mu and nu.

    The projections are summed from ``pi``'s numerators and compared by
    the certificate the :class:`Coupling` constructor uses; the projected
    measure is built only to name a mismatch.
    """
    atoms = pi._atoms.items()
    xs, ys = _pair_projection(atoms, 0), _pair_projection(atoms, 1)
    side = _mismatched_side(pi.dim, pi._den, xs, ys, mu, nu)
    if side is None:
        return VerificationReport(check="marginals", outcome=VERIFIED)
    expected = _measure_payload(mu if side == "first" else nu)
    witness = {"side": side, "expected": expected, "got": _measure_payload(pi.marginal(side))}
    return VerificationReport(check="marginals", outcome=VIOLATED, witness=witness)


def _measure_payload(m: FiniteMeasure) -> dict:
    return {"atoms": [{"x": x, "w": w} for x, w in m.items()]}


def log_laplace_gap(
    phi: Mapping, tolerance: float = DEFAULT_TOLERANCE, seed: int = 0
) -> tuple[float, VerificationReport]:
    """Variational identity for the log-sum of exponentials.

    L = log sum_x e^phi(x) over the finite domain of phi must equal
    R = int phi d(nu*) - sum nu* log nu* for the explicit maximizer
    nu*(x) = e^phi(x) / sum e^phi, and no probability measure on the
    domain may beat L.  Verified when |L - R| <= tolerance and none of
    ``LOG_LAPLACE_COMPETITORS`` seeded random measures exceeds
    L + tolerance.  Where a sum of w * phi(x) leaves the float range,
    everything is computed for phi minus its maximum m, and m is added
    back to L, R and the objectives.  Every key of ``phi`` is coerced to
    a point of the first key's dimension, and no two may coincide.
    """
    if not phi:
        raise EmptySupportError("the function must have nonempty support")
    dim = len(as_point(next(iter(phi))))
    entries: dict[Point, float] = {}
    for x, v in phi.items():
        point = as_point(x, dim)
        if point in entries:
            raise DomainError(f"the function lists the point {point} more than once")
        entries[point] = float(v)
    values = [entries[x] for x in sorted(entries)]
    try:
        gap, lhs, rhs, winner = _log_laplace_sides(values, tolerance, seed)
    except OverflowError:
        top = max(values)
        # a value further than the float range below m has weight 0 in nu*;
        # the clamp keeps its 0 * (phi - m) a number
        shifted = [max(v - top, -sys.float_info.max) for v in values]
        gap, lhs, rhs, winner = _log_laplace_sides(shifted, tolerance, seed)
        lhs, rhs = lhs + top, rhs + top
    report = functools.partial(
        VerificationReport, check="log-laplace", lhs=lhs, rhs=rhs, gap=gap, tolerance_used=tolerance
    )
    if abs(gap) > tolerance:
        return gap, report(outcome=VIOLATED, witness={"gap": gap})
    if winner is not None:
        return gap, report(outcome=VIOLATED, witness={"competitor": winner, "objective": rhs})
    return gap, report(outcome=VERIFIED, detail=f"{LOG_LAPLACE_COMPETITORS} competitors")


def _log_laplace_sides(
    values: list[float], tolerance: float, seed: int
) -> tuple[float, float, float, int | None]:
    """(L - R, L, R, None), or (L - R, L, objective, j) for the first
    competitor j whose objective exceeds L + tolerance."""
    log_total = _logsumexp(values)
    maximizer = [math.exp(v - log_total) for v in values]
    mean_phi = math.fsum(w * v for w, v in zip(maximizer, values))
    entropy = math.fsum(w * math.log(w) for w in maximizer if w > 0)  # 0 log 0 = 0
    attained = mean_phi - entropy
    gap = log_total - attained
    if abs(gap) > tolerance:
        return gap, log_total, attained, None
    for j in range(LOG_LAPLACE_COMPETITORS):
        rng = stream(seed, j)
        raw = [rng.randint(1, 20) for _ in values]
        total = sum(raw)
        weights = [r / total for r in raw]
        objective = math.fsum(w * v for w, v in zip(weights, values)) - math.fsum(
            w * math.log(w) for w in weights
        )
        if objective > log_total + tolerance:
            return gap, log_total, objective, j
    return gap, log_total, attained, None
