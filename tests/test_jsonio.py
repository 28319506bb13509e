from fractions import Fraction as F

import pytest

from discretebm import (
    Decomposition,
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

    def perturbed(dim, entries):
        (x0, w0), *rest = entries
        return declared(dim, [(x0, w0 / 2), ((7,), w0 / 2), *rest])

    monkeypatch.setattr(jsonio, "ProbabilityMeasure", perturbed)
    with pytest.raises(MarginalMismatch):
        jsonio.parse_coupling(doc)


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
