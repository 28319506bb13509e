from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import discretebm.coupling
import discretebm.measures
from discretebm import (
    Decomposition,
    FiniteMeasure,
    FormatError,
    LatticeError,
    MarginalMismatch,
    box_points,
    midpoint,
    monotone_coupling,
    singleton_decomposition,
    standard_order,
)
from discretebm import jsonio
from helpers import uniform


def test_fraction_round_trip():
    assert jsonio.parse_fraction("2/3") == F(2, 3)
    assert jsonio.parse_fraction("5") == F(5)
    assert jsonio.parse_fraction(4) == F(4)
    assert str(F(1, 2)) == "1/2"
    assert str(F(3)) == "3"
    with pytest.raises(FormatError):
        jsonio.parse_fraction("0.5")
    with pytest.raises(FormatError):
        jsonio.parse_fraction("1/0")


def test_order_round_trip():
    order = standard_order(3)
    assert jsonio.parse_order(jsonio.order_to_json(order)) == order
    obj = {"dim": 2, "perm": [2, 1], "signs": [-1, 1]}
    parsed = jsonio.parse_order(obj)
    assert jsonio.order_to_json(parsed) == obj
    with pytest.raises(FormatError):
        jsonio.parse_order({"dim": 2, "perm": [1, 2]})


def test_decomposition_round_trip():
    d = Decomposition(((2, standard_order(2)), (1, standard_order(1))))
    assert jsonio.parse_decomposition(jsonio.decomposition_to_json(d)) == d


def test_measure_round_trip_identity():
    m = uniform([(0, 1), (2, -3), (2, 5)])
    doc = jsonio.measure_to_json(m)
    assert jsonio.parse_measure(doc) == m
    # canonical serialization: atoms sorted, weights as p/q strings
    assert doc["atoms"][0]["x"] == [0, 1]
    assert doc["atoms"][0]["w"] == "1/3"
    assert jsonio.measure_to_json(jsonio.parse_measure(doc)) == doc


def test_parse_probability_measure_rejects_unnormalized():
    doc = {"dim": 1, "atoms": [{"x": [0], "w": "1/2"}]}
    with pytest.raises(FormatError):
        jsonio.parse_probability_measure(doc)


def test_coupling_round_trip():
    pi = monotone_coupling(uniform([0, 1, 2]), uniform([0, 1]), standard_order(1))
    doc = jsonio.coupling_to_json(pi)
    assert jsonio.parse_coupling(doc) == pi
    assert doc["atoms"][0] == {"x": [0], "y": [0], "w": "1/3"}


def test_parse_coupling_certifies_its_marginals(monkeypatch):
    # parse_coupling declares the projections of the document's atoms as the
    # marginals; if a declared marginal is perturbed, certification refuses it
    doc = jsonio.coupling_to_json(
        monotone_coupling(uniform([0, 1, 2]), uniform([0, 1]), standard_order(1))
    )
    declared = jsonio.ProbabilityMeasure

    def perturbed(dim, entries, *, den):
        # half of the first atom's weight moves to the point 7
        (x0, n0), *rest = entries
        return declared(dim, [(x0, n0), ((7,), n0), *[(x, 2 * n) for x, n in rest]], den=2 * den)

    monkeypatch.setattr(jsonio, "ProbabilityMeasure", perturbed)
    with pytest.raises(MarginalMismatch):
        jsonio.parse_coupling(doc)


BIG = "1" * 5000


def weight_doc(w):
    return {"dim": 1, "atoms": [{"x": [0], "w": w}, {"x": [1], "w": "1/2"}]}


def bad(text):
    """A shape error, wrapped as 'bad measure document: ...' by parse_measure
    and parse_probability_measure, 'bad coupling document: ...' by parse_coupling."""
    return ("bad", text)


HALVES = [([0], "1/2"), ([1], "1/2")]
NOT_A_RATIONAL = "weights must be exact rational strings like '2/3', got "
# name: (document, parse_measure, parse_probability_measure, parse_coupling);
# an outcome is the (x, w) atoms read or (error type, text).  parse_coupling
# reads the document with y = x on every atom that has an "x".
READ_TABLE = {
    "weight: 5000-digit numerator": (
        weight_doc(BIG), *[bad("cannot parse rational '111111111111111111111111111...1111111111111111111111111111'")] * 3,
    ),
    "weight: 5000-digit denominator": (
        weight_doc("1/" + BIG),
        *[bad("cannot parse rational '1/1111111111111111111111111...1111111111111111111111111111'")] * 3,
    ),
    "weight: zero denominator": (weight_doc("1/0"), *[bad("cannot parse rational '1/0'")] * 3),
    "weight: leading space": (weight_doc(" 1"), *[bad(NOT_A_RATIONAL + "' 1'")] * 3),
    "weight: decimal point": (weight_doc("1.5"), *[bad(NOT_A_RATIONAL + "'1.5'")] * 3),
    "weight: bool": (weight_doc(True), *[bad(NOT_A_RATIONAL + "True")] * 3),
    "weight: plus sign, unreduced": (weight_doc("+3/6"), HALVES, HALVES, HALVES),
    "weight: leading zeros": (weight_doc("007/014"), HALVES, HALVES, HALVES),
    "weight: zero numerator": (
        weight_doc("0/7"),
        [([1], "1/2")],
        ("FormatError", "expected a probability measure, total mass is 1/2"),
        ("InvalidWeightError", "probability measure must have mass 1, got 1/2"),
    ),
    "weight: negative int": (weight_doc(-3), *[("InvalidWeightError", "negative weight -3")] * 3),
    "measure: negative weight": (
        {"dim": 1, "atoms": [{"x": [0], "w": "1"}, {"x": [1], "w": "-2/4"}, {"x": [2], "w": "1/2"}]},
        *[("InvalidWeightError", "negative weight -1/2")] * 3,
    ),
    "measure: negative weight, mass 2": (
        {"dim": 1, "atoms": [{"x": [0], "w": "5/2"}, {"x": [1], "w": "-1/2"}]},
        *[("InvalidWeightError", "negative weight -1/2")] * 3,
    ),
    "measure: negative weight, then a missing w": (
        {"dim": 1, "atoms": [{"x": [0], "w": "-1"}, {"x": [1]}]}, *[bad("'w'")] * 3,
    ),
    "measure: all weights zero": (
        {"dim": 1, "atoms": [{"x": [0], "w": "0"}, {"x": [1], "w": 0}]},
        *[("EmptySupportError", "measure has empty support")] * 3,
    ),
    "measure: mass 1/2": (
        {"dim": 1, "atoms": [{"x": [0], "w": "1/4"}, {"x": [3], "w": "1/4"}]},
        [([0], "1/4"), ([3], "1/4")],
        ("FormatError", "expected a probability measure, total mass is 1/2"),
        ("InvalidWeightError", "probability measure must have mass 1, got 1/2"),
    ),
    "measure: dim 0": (
        {"dim": 0, "atoms": [{"x": [], "w": "1"}]}, *[bad("points must have dimension >= 1")] * 3,
    ),
    "measure: dim 0, no atoms": (
        {"dim": 0, "atoms": []}, *[("DomainError", "measure dimension must be >= 1")] * 3,
    ),
    "document: atoms a string": (
        {"dim": 1, "atoms": "abc"}, *[bad("string indices must be integers, not 'str'")] * 3,
    ),
    "document: a null atom": (
        {"dim": 1, "atoms": [{"x": [0], "w": "1"}, None]},
        *[bad("'NoneType' object is not subscriptable")] * 3,
    ),
    "document: a missing w": ({"dim": 1, "atoms": [{"x": [0]}]}, *[bad("'w'")] * 3),
    "document: a top-level array": (
        [{"x": [0], "w": "1"}], *[bad("list indices must be integers or slices, not str")] * 3,
    ),
    "document: a string dim": (
        {"dim": "1", "atoms": [{"x": [0], "w": "1"}]},
        bad("measure dim must be an integer, got '1'"),
        bad("measure dim must be an integer, got '1'"),
        bad("coupling dim must be an integer, got '1'"),
    ),
    "document: a bool coordinate": (
        {"dim": 1, "atoms": [{"x": [True], "w": "1"}]},
        *[bad("point coordinates must be integers, got True")] * 3,
    ),
    "document: an int x": ({"dim": 1, "atoms": [{"x": 0, "w": "1"}]}, *[[([0], "1")]] * 3),
}


def as_coupling_doc(doc):
    if not isinstance(doc, dict) or not isinstance(doc.get("atoms"), list):
        return doc
    atoms = [{**a, "y": a["x"]} if isinstance(a, dict) and "x" in a else a for a in doc["atoms"]]
    return {**doc, "atoms": atoms}


def read_outcome(parse, doc, kind):
    try:
        read = parse(doc)
    except Exception as exc:
        text = str(exc)
        prefix = f"bad {kind} document: "
        if type(exc) is FormatError and text.startswith(prefix):
            return bad(text[len(prefix):])
        return type(exc).__name__, text
    if kind == "coupling":
        assert all(x == y for (x, y), _ in read.items())
        return [(list(x), str(w)) for (x, _), w in read.items()]
    return [(list(x), str(w)) for x, w in read.items()]


@pytest.mark.parametrize("name", READ_TABLE)
def test_weight_reading_keeps_its_outcomes(name):
    # recorded on the Fraction reader; the integer reader gives the same
    # measures and the same error types, texts and order
    doc, measure, probability, coupling = READ_TABLE[name]
    assert read_outcome(jsonio.parse_measure, doc, "measure") == measure
    assert read_outcome(jsonio.parse_probability_measure, doc, "measure") == probability
    assert read_outcome(jsonio.parse_coupling, as_coupling_doc(doc), "coupling") == coupling


def test_reading_builds_no_fraction(monkeypatch):
    mu, nu = uniform([0, 1, 2]), uniform([0, 5])
    pi = monotone_coupling(mu, nu, standard_order(1))
    mu_doc, pi_doc = jsonio.measure_to_json(mu), jsonio.coupling_to_json(pi)

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built on the read path")

    for module in (jsonio, discretebm.measures, discretebm.coupling):
        monkeypatch.setattr(module, "Fraction", no_fraction)
    read_mu, read_pi = jsonio.parse_probability_measure(mu_doc), jsonio.parse_coupling(pi_doc)
    monkeypatch.undo()
    assert read_mu == mu and read_pi == pi
    assert read_pi.left == mu and read_pi.right == nu


def spelled(n: int, d: int, scale: int, zeros: int, plus: bool):
    """The weight n/d as input may spell it: with its numerator and
    denominator times ``scale``, leading zeros and an optional plus sign;
    a JSON int when the spelled denominator is 1 and there is no spelling."""
    if d * scale == 1 and not zeros and not plus:
        return n
    pad = "0" * zeros
    text = f"{'+' if plus else ''}{pad}{n * scale}"
    return text if d * scale == 1 else f"{text}/{pad}{d * scale}"


WEIGHT = st.tuples(
    st.integers(0, 40), st.integers(1, 24), st.integers(1, 5), st.integers(0, 3), st.booleans()
)


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 2),
    atoms=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), WEIGHT), min_size=1, max_size=8),
)
def test_spelled_weights_read_as_their_fractions(dim, atoms):
    assume(any(w[0] for *_, w in atoms))
    doc = {
        "dim": dim,
        "atoms": [{"x": [a, b][:dim], "w": spelled(*w)} for a, b, w in atoms],
    }
    read = jsonio.parse_measure(doc)
    # duplicate points are summed, and zero weights dropped, as the constructor does
    expected = FiniteMeasure(dim, [((a, b)[:dim], F(n, d)) for a, b, (n, d, *_) in atoms])
    assert read == expected
    assert [jsonio.parse_fraction(a["w"]) for a in doc["atoms"]] == [F(n, d) for *_, (n, d, *_) in atoms]
    # parse(serialize(x)) == x for measures, probability measures and couplings
    assert jsonio.parse_measure(jsonio.measure_to_json(read)) == read
    mu = read.normalize()
    assert jsonio.parse_probability_measure(jsonio.measure_to_json(mu)) == mu
    pi = monotone_coupling(mu, uniform(mu.support()[::-1]), standard_order(dim))
    assert jsonio.parse_coupling(jsonio.coupling_to_json(pi)) == pi
    # a probability document spelled as the first atom is
    *_, (_, _, scale, zeros, plus) = atoms[0]
    mu_doc = {
        "dim": dim,
        "atoms": [
            {"x": list(x), "w": spelled(w.numerator, w.denominator, scale, zeros, plus)}
            for x, w in mu.items()
        ],
    }
    assert jsonio.parse_probability_measure(mu_doc) == mu


def test_parse_operation_names_and_product():
    op = jsonio.parse_operation({"kind": "midpoint", "dim": 2})
    assert op.t((3, -3)) == (1, -2) and op.dim == 2
    assert jsonio.parse_operation("meet_join", default_dim=3).dim == 3
    prod = jsonio.parse_operation(
        {"kind": "product", "factors": [{"kind": "midpoint", "dim": 1}, {"kind": "meet_join", "dim": 2}]}
    )
    assert prod.dim == 3 and prod.decomposition == singleton_decomposition(3)
    with pytest.raises(FormatError):
        jsonio.parse_operation({"kind": "midpoint"})
    with pytest.raises(FormatError):
        jsonio.parse_operation({"kind": "mystery", "dim": 1})


def test_parse_operation_bounds_the_dimension():
    top = jsonio.MAX_DIM
    assert jsonio.parse_operation({"kind": "midpoint", "dim": top}).dim == top
    assert jsonio.parse_operation("meet_join", default_dim=top).dim == top
    too_big = [
        {"kind": "midpoint", "dim": top + 1},
        {"kind": "meet_join", "dim": 10**18},
        {"kind": "difference_map", "dim": 10**18},
        {"kind": "product", "factors": [{"kind": "midpoint", "dim": top}, {"kind": "meet_join", "dim": 1}]},
    ]
    for spec in too_big:
        with pytest.raises(FormatError, match=f"exceeds the maximum {top}"):
            jsonio.parse_operation(spec)
    with pytest.raises(FormatError, match="exceeds"):
        jsonio.parse_operation("midpoint", default_dim=top + 1)


def test_parse_difference_map_defaults_and_table():
    neg = jsonio.parse_operation({"kind": "difference_map", "dim": 1, "table": [], "default": "negate"})
    assert neg.t_minus((1,), (0,)) == (-1,)
    floor = jsonio.parse_operation({"kind": "difference_map", "dim": 1, "default": "floor_half"})
    ref = midpoint(1)
    for x in box_points(1, 4):
        for y in box_points(1, 4):
            assert floor.t_minus(x, y) == ref.t_minus(x, y)
    # the table overrides the default on listed difference points
    patched = jsonio.parse_operation(
        {
            "kind": "difference_map",
            "dim": 1,
            "default": "floor_half",
            "table": [{"w": [0], "t": [7]}],
        }
    )
    assert patched.t_minus((3,), (3,)) == (10,)  # t(0) + y
    assert patched.t_minus((4,), (3,)) == ref.t_minus((4,), (3,))
    with pytest.raises(FormatError):
        jsonio.parse_operation({"kind": "difference_map", "dim": 1, "default": "bogus"})


def test_parse_instance_full():
    obj = {
        "op": {"kind": "midpoint", "dim": 1},
        "mu": {"dim": 1, "atoms": [{"x": [0], "w": "1/2"}, {"x": [1], "w": "1/2"}]},
        "nu": {"dim": 1, "atoms": [{"x": [0], "w": "1"}]},
        "alpha": "1/2",
        "A": [[0], [1]],
        "B": [[2]],
        "tolerance": 1e-7,
        "seed": 9,
    }
    spec = jsonio.parse_instance(obj)
    assert spec.op.t((3,)) == (1,) and spec.op.t((-3,)) == (-2,)
    assert spec.mu.weight_at(1) == F(1, 2)
    assert spec.exponents.alpha == F(1, 2)
    assert spec.exponents.gamma == 1
    assert spec.set_a == [(0,), (1,)]
    assert spec.tolerance == 1e-7 and spec.seed == 9


def test_parse_instance_rejects_invalid_exponents():
    obj = {"op": {"kind": "midpoint", "dim": 1}, "alpha": "2", "gamma": "1"}
    with pytest.raises(LatticeError):
        jsonio.parse_instance(obj)


def test_parse_phi():
    phi = jsonio.parse_phi({"dim": 1, "points": [{"x": [0], "v": 0.5}, {"x": [2], "v": -1}]})
    assert phi == {(0,): 0.5, (2,): -1.0}
    with pytest.raises(FormatError):
        jsonio.parse_phi({"dim": 1, "points": [{"x": [0]}]})
    repeated = {"dim": 1, "points": [{"x": [0], "v": 1.0}, {"x": [1], "v": 0}, {"x": [0], "v": 5.0}]}
    with pytest.raises(FormatError, match=r"point \[0\] more than once"):
        jsonio.parse_phi(repeated)
