"""JSON formats for orders, decompositions, measures, operations, couplings.

All weights travel as decimal-free exact rational strings ("p/q", or the
bare integer when the denominator is 1); parse(serialize(x)) == x for
every value produced by this module.  A weight or an exponent read from
input is a JSON integer or a string of the form ``[+-]?[0-9]+(/[0-9]+)?``.
One reader, :func:`_ratio`, reads it once into an integer pair
(numerator, denominator); exponents become ``Fraction`` values from that
pair.  A measure or coupling document becomes integer numerators over
L, the least common multiple of its denominators, and is built through
the validating constructor with ``den=L``: no ``Fraction`` is built on
the way in, and every point and weight is still checked.  Serialization
reads a measure's or a coupling's integer numerators and denominator
and writes each weight in lowest terms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .coupling import Coupling
from .errors import FormatError, _brief
from .lattice import (
    AdditiveTotalOrder,
    Decomposition,
    Point,
    as_point,
    singleton_decomposition,
)
from .measures import FiniteMeasure, ProbabilityMeasure, _rational_text, _ratio_text
from .operations import (
    ExponentQuadruple,
    LatticeOperation,
    from_difference_map,
    meet_join,
    midpoint,
    product,
)
from .seeding import check_seed

# the largest operation dimension, and random-suite --dim, read from input;
# checked before one block per coordinate is built (tests, README examples
# and benchmark items use at most 3)
MAX_DIM = 64

# the largest common denominator N of the exponents read from input, and
# the largest integer exponent alpha*N, ..., delta*N: the exact checks
# raise every weight to those integer powers, so their cost grows with
# them (suites draw N <= 12 and integer exponents <= 12)
MAX_EXPONENT_POWER = 1000

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

_DIFFERENCE_DEFAULTS = {
    "floor_half": lambda w: tuple(c // 2 for c in w),
    "negate": lambda w: tuple(-c for c in w),
    "identity": lambda w: w,
    "zero": lambda w: tuple(0 for _ in w),
}


def _integer(value, name: str) -> int:
    """A JSON integer field; floats, bools, strings and null are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{name} must be an integer, got {_brief(value)}")
    return value


def _dimension(value) -> int:
    """An operation dimension: a JSON integer of at most ``MAX_DIM``."""
    dim = _integer(value, "operation dimension")
    if dim > MAX_DIM:
        raise FormatError(f"operation dimension {dim} exceeds the maximum {MAX_DIM}")
    return dim


def _finite(value, name: str) -> float:
    """A finite real from a number or a numeric string; bools are rejected."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise FormatError(f"{name} must be a finite number, got {_brief(value)}")
    return number


def parse_tolerance(value, name: str) -> float:
    """A tolerance from an instance file, ``--tolerance`` or DT_TOLERANCE:
    a finite number >= 0."""
    tolerance = _finite(value, name)
    if tolerance < 0:
        raise FormatError(f"{name} must be >= 0, got {_brief(value)}")
    return tolerance


def _ratio(value) -> tuple[int, int]:
    """A weight or an exponent read from input as (numerator, denominator),
    the denominator positive and the pair not necessarily in lowest terms:
    a JSON integer (not a bool), or a string "p/q" or "p" of decimal digits
    with an optional sign."""
    if type(value) is int:
        return value, 1
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise FormatError(f"weights must be exact rational strings like '2/3', got {_brief(value)}")
    p, q = match.groups()
    try:
        n, d = int(p), int(q or 1)
    except ValueError:  # more digits than int-to-str reads
        d = 0
    if not d:
        raise FormatError(f"cannot parse rational {_brief(value)}")
    return n, d


def parse_fraction(value) -> Fraction:
    """The exact value of a weight or an exponent read by :func:`_ratio`."""
    return Fraction(*_ratio(value))


def _over_lcm(keys: list, ratios: list[tuple[int, int]]) -> tuple[list, int]:
    """Each weight n/d of ``ratios`` as the integer n * (L // d) beside its
    key, and L, the least common multiple of the d."""
    den = math.lcm(*[d for _, d in ratios])
    return [(k, n * (den // d)) for k, (n, d) in zip(keys, ratios)], den


# -- orders and decompositions ------------------------------------------------


def parse_order(obj) -> AdditiveTotalOrder:
    try:
        dim = _integer(obj["dim"], "order dim")
        perm = tuple(_integer(p, "perm entry") for p in obj["perm"])
        signs = tuple(_integer(s, "sign") for s in obj["signs"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad order spec {_brief(obj)}") from exc
    return AdditiveTotalOrder(dim, perm, signs)


def order_to_json(order: AdditiveTotalOrder) -> dict:
    return {"dim": order.dim, "perm": list(order.perm), "signs": list(order.signs)}


def parse_decomposition(obj) -> Decomposition:
    try:
        blocks = tuple(
            (_integer(b["dim"], "block dim"), parse_order(b["order"])) for b in obj["blocks"]
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad decomposition spec {_brief(obj)}") from exc
    return Decomposition(blocks)


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "blocks": [{"dim": bdim, "order": order_to_json(o)} for bdim, o in d.blocks]
    }


# -- measures -----------------------------------------------------------------


def _measure_atoms(obj) -> tuple[int, list[tuple[Point, int]], int]:
    """The dimension of a measure document, and its atoms as integer
    numerators over the least common denominator of their weights."""
    try:
        dim = _integer(obj["dim"], "measure dim")
        points, ratios = [], []
        for atom in obj["atoms"]:
            points.append(as_point(atom["x"], dim))
            ratios.append(_ratio(atom["w"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad measure document: {exc}") from exc
    return dim, *_over_lcm(points, ratios)


def parse_measure(obj) -> FiniteMeasure:
    dim, entries, den = _measure_atoms(obj)
    return FiniteMeasure(dim, entries, den=den)


def parse_probability_measure(obj) -> ProbabilityMeasure:
    dim, entries, den = _measure_atoms(obj)
    if sum(n for _, n in entries) == den:
        return ProbabilityMeasure(dim, entries, den=den)
    # names a negative weight or an empty support before the mass
    m = FiniteMeasure(dim, entries, den=den)
    raise FormatError(f"expected a probability measure, total mass is {_rational_text(m.total_mass)}")


def measure_to_json(m: FiniteMeasure) -> dict:
    den = m._den
    return {
        "dim": m.dim,
        "atoms": [{"x": list(x), "w": _ratio_text(n, den)} for x, n in m._atoms.items()],
    }


# -- couplings ----------------------------------------------------------------


def parse_coupling(obj) -> Coupling:
    """Coupling document; its declared marginals are the projections of its atoms."""
    try:
        dim = _integer(obj["dim"], "coupling dim")
        pairs, ratios = [], []
        for atom in obj["atoms"]:
            pairs.append((as_point(atom["x"], dim), as_point(atom["y"], dim)))
            ratios.append(_ratio(atom["w"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad coupling document: {exc}") from exc
    atoms, den = _over_lcm(pairs, ratios)
    left = ProbabilityMeasure(dim, [(x, n) for (x, _), n in atoms], den=den)
    right = ProbabilityMeasure(dim, [(y, n) for (_, y), n in atoms], den=den)
    return Coupling(dim, atoms, left, right, den=den)


def coupling_to_json(pi: Coupling) -> dict:
    den = pi._den
    return {
        "dim": pi.dim,
        "atoms": [
            {"x": list(x), "y": list(y), "w": _ratio_text(n, den)}
            for (x, y), n in pi._atoms.items()
        ],
    }


# -- operations ---------------------------------------------------------------


def parse_operation(obj, default_dim: int | None = None) -> LatticeOperation:
    """Operation spec: a kind name with a dimension, a product of factor
    specs, or a difference map given by a named default and a table of
    point overrides.  A spec nested deeper than the interpreter's stack
    allows raises :class:`FormatError`."""
    try:
        return _operation(obj, default_dim)
    except RecursionError as exc:
        raise FormatError("operation spec is nested too deeply") from exc


def _operation(obj, default_dim: int | None) -> LatticeOperation:
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError(f"bad operation spec {_brief(obj)}")
    kind = obj["kind"]
    if kind in ("midpoint", "meet_join"):
        dim = obj.get("dim", default_dim)
        if dim is None:
            raise FormatError(f"operation {kind!r} needs a dimension")
        dim = _dimension(dim)
        return midpoint(dim) if kind == "midpoint" else meet_join(dim)
    if kind == "product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or not factors:
            raise FormatError("product operation needs a nonempty factors list")
        ops = [_operation(f, None) for f in factors]
        _dimension(sum(op.dim for op in ops))
        out = ops[0]
        for nxt in ops[1:]:
            out = product(out, nxt)
        return out
    if kind == "difference_map":
        dim = obj.get("dim", default_dim)
        if dim is None:
            raise FormatError("difference_map operation needs a dimension")
        dim = _dimension(dim)
        default_name = obj.get("default", "floor_half")
        base = _DIFFERENCE_DEFAULTS.get(default_name) if isinstance(default_name, str) else None
        if base is None:
            raise FormatError(
                f"unknown difference-map default {_brief(default_name)}; "
                f"expected one of {sorted(_DIFFERENCE_DEFAULTS)}"
            )
        try:
            table = {
                as_point(row["w"], dim): as_point(row["t"], dim) for row in obj.get("table", [])
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad difference-map table: {exc}") from exc
        decomposition = (
            parse_decomposition(obj["decomposition"])
            if "decomposition" in obj
            else singleton_decomposition(dim)
        )

        def t(w: Point) -> Point:
            hit = table.get(w)
            return hit if hit is not None else base(w)

        return from_difference_map(dim, decomposition, t)
    raise FormatError(f"unknown operation kind {_brief(kind)}")


# -- exponents and instance files ----------------------------------------------


def parse_exponents(obj, defaults: ExponentQuadruple | None = None) -> ExponentQuadruple:
    """Exponents from an instance file or flags, over ``defaults``; their
    common denominator and integer exponents are capped by
    ``MAX_EXPONENT_POWER``."""
    base = defaults or ExponentQuadruple.unit()
    values = {}
    for name in ("alpha", "beta", "gamma", "delta"):
        if name in obj:
            values[name] = parse_fraction(obj[name])
        else:
            values[name] = getattr(base, name)
    exponents = ExponentQuadruple(**values)
    if max(exponents.common_denominator, *exponents.integer_exponents()) > MAX_EXPONENT_POWER:
        raise FormatError(
            "exponents need a common denominator and integer exponents of at most "
            f"{MAX_EXPONENT_POWER}"
        )
    return exponents


def parse_phi(obj) -> dict[Point, float]:
    """Function document; each point may be listed once."""
    try:
        dim = _integer(obj["dim"], "function dim")
        rows = [(as_point(row["x"], dim), _finite(row["v"], "phi value")) for row in obj["points"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad function document: {exc}") from exc
    phi: dict[Point, float] = {}
    for x, v in rows:
        if x in phi:
            raise FormatError(f"function document lists the point {list(x)} more than once")
        phi[x] = v
    return phi


def parse_point_set(rows, dim: int) -> list[Point]:
    try:
        return [as_point(row, dim) for row in rows]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad point set: {exc}") from exc


@dataclass
class InstanceSpec:
    """Resolved contents of a verification instance file.

    Whichever fields a check needs must be present; exponent admissibility
    is validated here, before any verifier runs.
    """

    mu: ProbabilityMeasure | None = None
    nu: ProbabilityMeasure | None = None
    f: FiniteMeasure | None = None
    g: FiniteMeasure | None = None
    h: FiniteMeasure | None = None
    k: FiniteMeasure | None = None
    set_a: list[Point] | None = None
    set_b: list[Point] | None = None
    op: LatticeOperation | None = None
    exponents: ExponentQuadruple | None = None
    decomposition: Decomposition | None = None
    phi: dict[Point, float] | None = None
    tolerance: float | None = None
    seed: int = 0
    radius: int = 4


def parse_instance(obj) -> InstanceSpec:
    if not isinstance(obj, dict):
        raise FormatError("instance file must hold a JSON object")
    spec = InstanceSpec()
    if "op" in obj:
        spec.op = parse_operation(obj["op"], obj.get("dim"))
    dim = spec.op.dim if spec.op is not None else obj.get("dim")
    for name in ("mu", "nu"):
        if name in obj:
            setattr(spec, name, parse_probability_measure(obj[name]))
    for name in ("f", "g", "h", "k"):
        if name in obj:
            setattr(spec, name, parse_measure(obj[name]))
    if "A" in obj or "B" in obj:
        if dim is None:
            raise FormatError("point sets need an operation or explicit 'dim'")
        dim = _integer(dim, "dim")
        if "A" in obj:
            spec.set_a = parse_point_set(obj["A"], dim)
        if "B" in obj:
            spec.set_b = parse_point_set(obj["B"], dim)
    if any(name in obj for name in ("alpha", "beta", "gamma", "delta")):
        spec.exponents = parse_exponents(obj)
    if "decomposition" in obj:
        spec.decomposition = parse_decomposition(obj["decomposition"])
    if "phi" in obj:
        spec.phi = parse_phi(obj["phi"])
    if "tolerance" in obj:
        spec.tolerance = parse_tolerance(obj["tolerance"], "tolerance")
    if "seed" in obj:
        spec.seed = check_seed(_integer(obj["seed"], "seed"))
    if "radius" in obj:
        spec.radius = _integer(obj["radius"], "radius")
    return spec
