import contextlib
import copy
import decimal
import hashlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from discretebm.cli import build_parser, main

MEASURE_U3 = {"dim": 1, "atoms": [{"x": [0], "w": "1/3"}, {"x": [1], "w": "1/3"}, {"x": [2], "w": "1/3"}]}
MEASURE_U2 = {"dim": 1, "atoms": [{"x": [0], "w": "1/2"}, {"x": [1], "w": "1/2"}]}
MEASURE_U02 = {"dim": 1, "atoms": [{"x": [0], "w": "1/2"}, {"x": [2], "w": "1/2"}]}
NEGATE = {"kind": "difference_map", "dim": 1, "table": [], "default": "negate"}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_check_op_pass(capsys):
    code, lines = run(capsys, ["check-op", "--op", "midpoint", "--dim", "2", "--radius", "3"])
    assert code == 0
    assert lines[0]["outcome"] == "verified"
    assert {s["check"] for s in lines[0]["subchecks"]} == {"complement", "p1", "p2"}


def test_check_op_negative_control(capsys):
    code, lines = run(capsys, ["check-op", "--op", json.dumps(NEGATE), "--radius", "2"])
    assert code == 1
    p2 = next(s for s in lines[0]["subchecks"] if s["check"] == "p2")
    assert p2["outcome"] == "violated" and "witness" in p2


def test_check_op_input_errors(capsys):
    assert main(["check-op", "--op", "midpoint"]) == 2  # missing --dim
    capsys.readouterr()
    assert main(["check-op", "--op", '{"kind":"midpoint","dim":0}']) == 2
    capsys.readouterr()
    for spec in (
        '{"kind":"midpoint","dim":"x"}',
        '{"kind":"difference_map","dim":"x"}',
        '{"kind":"difference_map","dim":1,"default":["negate"]}',
        '{"kind":"product","factors":7}',
        '{"kind":"midpoint","dim":2.5}',
        '{"kind":"midpoint","dim":true}',
        '{"kind":"meet_join","dim":"2"}',
        '{"kind":"difference_map","dim":1,"table":[{"w":[1.5],"t":[0]}]}',
        '{"kind":"difference_map","dim":1,"table":[{"w":[1],"t":[true]}]}',
        '{"kind":"difference_map","dim":1,"decomposition":'
        '{"blocks":[{"dim":1.0,"order":{"dim":1,"perm":[1],"signs":[1]}}]}}',
        '{"kind":"difference_map","dim":1,"decomposition":'
        '{"blocks":[{"dim":1,"order":{"dim":1,"perm":[true],"signs":[1]}}]}}',
    ):
        assert main(["check-op", "--op", spec]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])
    # a radius whose box is too large to scan is rejected before any map runs
    for argv in (
        ["check-op", "--op", "midpoint", "--dim", "1", "--radius", "100000000"],
        ["check-op", "--op", json.dumps(NEGATE), "--radius", "100000000"],
        ["check-op", "--op", "midpoint", "--dim", "2", "--radius", "20"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert not captured.out and len(err) == 1 and "box checks scan" in json.loads(err[0])["error"]


def test_inputs_with_a_missing_part_exit_2(tmp_path, capsys):
    assert "pass --op" in assert_input_error(capsys, ["check-op"])
    array = write(tmp_path, "array.json", [{"op": "midpoint", "dim": 1}])
    message = assert_input_error(capsys, ["verify", array, "--check", "p-bound"])
    assert message == "instance file must hold a JSON object"
    sets = write(tmp_path, "sets.json", {"A": [[0]], "B": [[1]]})
    message = assert_input_error(capsys, ["verify", sets, "--check", "set-bm"])
    assert message == "point sets need an operation or explicit 'dim'"


def test_operation_dimensions_are_bounded(capsys):
    # each is rejected before one block per coordinate is built
    for argv in (
        ["random-suite", "--dim", "65", "--instances", "1"],
        ["random-suite", "--dim", str(10**8), "--instances", "1", "--op", '{"kind":"midpoint","dim":1}'],
        ["check-op", "--op", "midpoint", "--dim", str(10**8), "--radius", "1"],
        ["check-op", "--op", '{"kind":"meet_join","dim":1000000}', "--radius", "1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert not captured.out and len(err) == 1 and "64" in json.loads(err[0])["error"]


def test_error_lines_name_large_inputs_in_a_bounded_text(capsys):
    # each error text names the rejected value, abbreviated to a few hundred bytes
    big = list(range(100000))
    for argv, named in (
        (["check-op", "--op", json.dumps({"kind": big})], "unknown operation kind [0, 1, 2,"),
        (["check-op", "--op", json.dumps({"dim": big})], "bad operation spec {'dim': [0, 1, 2,"),
        (["check-op", "--op", json.dumps({"kind": "midpoint", "dim": big})], "got [0, 1, 2,"),
        (["check-op", "--op", json.dumps({"kind": "difference_map", "dim": 1, "default": big})],
         "unknown difference-map default [0, 1, 2,"),
        (["check-op", "--op", json.dumps({"kind": "difference_map", "dim": 1, "table": [],
                                          "decomposition": {"blocks": big}})],
         "bad decomposition spec {'blocks': [0, 1, 2,"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert not captured.out and len(err) == 1 and len(err[0]) <= 300
        assert named in json.loads(err[0])["error"]
    # a long string and a nested coordinate are cut too, and a short value is named in full
    with tempfile.TemporaryDirectory() as tmp:
        mu = Path(tmp) / "mu.json"
        for atom, named in (
            ({"x": [0], "w": "x" * 100000}, "got 'xxxxxxxxxx"),
            ({"x": [big], "w": "1"}, "point coordinates must be integers, got [0, 1, 2,"),
        ):
            mu.write_text(json.dumps({"dim": 1, "atoms": [atom]}))
            assert main(["couple", str(mu), str(mu)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and len(err[0]) <= 300 and named in json.loads(err[0])["error"]
    assert main(["check-op", "--op", '{"kind": "unknown"}']) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "unknown operation kind 'unknown'"}


def test_log_laplace_near_the_float_limit(tmp_path, capsys):
    for values in ([1e308, 1e308], [1.7e308] * 3):
        phi = {"dim": 1, "points": [{"x": [i], "v": v} for i, v in enumerate(values)]}
        inst = write(tmp_path, "phi.json", {"phi": phi})
        code, lines = run(capsys, ["verify", inst, "--check", "log-laplace"])
        assert code == 0 and lines[0]["outcome"] == "verified" and lines[0]["lhs"] == values[0]


def test_couple_monotone(tmp_path, capsys):
    mu = write(tmp_path, "mu.json", MEASURE_U3)
    nu = write(tmp_path, "nu.json", MEASURE_U2)
    code, lines = run(capsys, ["couple", mu, nu])
    assert code == 0
    assert lines[0]["atoms"] == [
        {"x": [0], "y": [0], "w": "1/3"},
        {"x": [1], "y": [0], "w": "1/6"},
        {"x": [1], "y": [1], "w": "1/6"},
        {"x": [2], "y": [1], "w": "1/3"},
    ]


def test_couple_identical_is_diagonal(tmp_path, capsys):
    mu = write(tmp_path, "mu.json", MEASURE_U2)
    code, lines = run(capsys, ["couple", mu, mu, "--mode", "knothe"])
    assert code == 0
    assert all(atom["x"] == atom["y"] for atom in lines[0]["atoms"])


def test_couple_errors(tmp_path, capsys):
    mu = write(tmp_path, "mu.json", MEASURE_U2)
    bad = write(tmp_path, "bad.json", {"dim": 2, "atoms": [{"x": [0, 0], "w": "1"}]})
    assert main(["couple", mu, bad]) == 2
    capsys.readouterr()
    un = write(tmp_path, "un.json", {"dim": 1, "atoms": [{"x": [0], "w": "1/2"}]})
    assert main(["couple", mu, un]) == 2
    capsys.readouterr()
    assert main(["couple", mu, str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # atoms at [1.5] and [true] were once merged into one atom at [1]
    atoms = [{"x": [1.5], "w": "1/2"}, {"x": [True], "w": "1/2"}]
    coerced = write(tmp_path, "co.json", {"dim": 1, "atoms": atoms})
    assert main(["couple", coerced, coerced]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "error" in json.loads(err[0])


def test_couple_refuses_the_order_under_knothe(tmp_path, capsys):
    # --order was once ignored without a word under --mode knothe
    mu = write(tmp_path, "mu.json", MEASURE_U2)
    order = '{"dim":1,"perm":[1],"signs":[-1]}'
    error = assert_input_error(capsys, ["couple", mu, mu, "--mode", "knothe", "--order", order])
    assert error == "--order does not apply to --mode knothe"


def test_couple_refuses_the_decomposition_under_monotone(tmp_path, capsys):
    # --decomposition was once ignored without a word under --mode monotone
    mu = write(tmp_path, "mu.json", MEASURE_U2)
    blocks = '{"blocks":[{"dim":1,"order":{"dim":1,"perm":[1],"signs":[-1]}}]}'
    error = assert_input_error(capsys, ["couple", mu, mu, "--decomposition", blocks])
    assert error == "--decomposition does not apply to --mode monotone"


def test_couple_refuses_an_empty_order(tmp_path, capsys):
    # an empty --order was once taken as absent, giving the standard order
    mu = write(tmp_path, "mu.json", MEASURE_U2)
    error = assert_input_error(capsys, ["couple", mu, mu, "--order", ""])
    assert error == "Expecting value: line 1 column 1 (char 0)"


def test_couple_refuses_an_empty_decomposition(tmp_path, capsys):
    # an empty --decomposition was once taken as absent, giving singleton blocks
    mu = write(tmp_path, "mu.json", MEASURE_U2)
    argv = ["couple", mu, mu, "--mode", "knothe", "--decomposition", ""]
    assert assert_input_error(capsys, argv) == "Expecting value: line 1 column 1 (char 0)"


def assert_input_error(capsys, argv) -> str:
    """Exit 2 within a second, nothing on stdout and one JSON error line;
    returns the error message."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == 2 and not captured.out and len(err) == 1 and elapsed < 1.0
    return json.loads(err[0])["error"]


def weight_instance(tmp_path, w) -> str:
    mu = {"dim": 1, "atoms": [{"x": [0], "w": w}]}
    return write(tmp_path, "inst.json", {"op": {"kind": "midpoint", "dim": 1}, "mu": mu, "nu": mu})


def test_a_bool_weight_is_rejected(tmp_path, capsys):
    # JSON true was once read as the weight 1 and the instance verified
    inst = weight_instance(tmp_path, True)
    assert "exact rational strings" in assert_input_error(capsys, ["verify", inst, "--check", "entropy"])


def test_exponent_notation_weight_is_rejected(tmp_path, capsys):
    # "1e200000" once ended in a traceback and exit 1
    inst = weight_instance(tmp_path, "1e200000")
    assert "exact rational strings" in assert_input_error(capsys, ["verify", inst, "--check", "entropy"])


def test_huge_exponent_notation_weight_is_rejected_at_once(tmp_path, capsys):
    # "1e999999999" once ran for minutes building 10^999999999
    inst = weight_instance(tmp_path, "1e999999999")
    assert "exact rational strings" in assert_input_error(capsys, ["verify", inst, "--check", "entropy"])


def test_weight_strings_follow_the_documented_grammar(tmp_path, capsys):
    for w in ("1.5", " 1/2", "1_0", "0x10", "1/-2", "+1/ 2", "١", "2/3/4", "", "nan"):
        inst = weight_instance(tmp_path, w)
        assert_input_error(capsys, ["verify", inst, "--check", "entropy"])
    for w in ("1", "+1", "2/2", 1):
        inst = weight_instance(tmp_path, w)
        assert main(["verify", inst, "--check", "entropy"]) == 0
        capsys.readouterr()


def test_a_mass_too_long_to_print_is_reported(tmp_path, capsys):
    # the total mass has about 6000 digits, more than int-to-str allows
    big = 10**2999
    atoms = [{"x": [0], "w": f"1/{big + 1}"}, {"x": [1], "w": f"1/{big + 3}"}]
    mu = write(tmp_path, "mu.json", {"dim": 1, "atoms": atoms})
    error = assert_input_error(capsys, ["couple", mu, mu])
    assert "total mass is a ratio of a 9964-bit numerator and a 19925-bit denominator" in error


def test_a_verdict_too_long_for_int_to_str_is_printed_exactly(tmp_path, capsys):
    # lhs = f^6 g^4 over the common denominator 12 has a denominator of
    # about 5000 digits; printing it once ended in a traceback and exit 1
    q = 10**500 + 7
    tiny = {"dim": 1, "atoms": [{"x": [0], "w": f"1/{q}"}]}
    one = {"dim": 1, "atoms": [{"x": [0], "w": "1"}]}
    inst = write(tmp_path, "inst.json", {
        "op": {"kind": "midpoint", "dim": 1}, "f": tiny, "g": tiny, "h": one, "k": one,
        "alpha": "1/2", "beta": "1/3", "gamma": "3/4", "delta": "1",
    })
    code = main(["verify", inst, "--check", "dbm"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("\n") == 1
    report = json.loads(out)
    assert report["outcome"] == "verified"
    assert report["lhs"] == "1/" + str(decimal.Decimal(q**10))
    assert report["rhs"] == "1"


def test_a_coupling_weight_too_long_for_int_to_str_is_printed_exactly(tmp_path, capsys):
    # the middle weight has a denominator of about 5000 digits; printing it
    # once ended in a traceback and exit 1
    p, q = 10**2500 + 3, 10**2500 + 9
    mu = write(tmp_path, "mu.json", {"dim": 1, "atoms": [
        {"x": [0], "w": f"1/{p}"}, {"x": [1], "w": f"{p - 1}/{p}"}]})
    nu = write(tmp_path, "nu.json", {"dim": 1, "atoms": [
        {"x": [0], "w": f"1/{q}"}, {"x": [1], "w": f"{q - 1}/{q}"}]})
    code, lines = run(capsys, ["couple", mu, nu])
    assert code == 0 and len(lines) == 1
    assert [a["w"] for a in lines[0]["atoms"]] == [
        f"1/{q}", "6/" + str(decimal.Decimal(p * q)), f"{p - 1}/{p}"
    ]


def test_json_that_python_cannot_read_exits_2(tmp_path, capsys):
    # an integer of more digits than int() reads, and bytes that are not
    # UTF-8, once ended in a traceback and exit 1
    huge = "1" + "0" * 5000
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"phi": PHI})[:-1] + f', "seed": {huge}}}')
    assert "4300 digits" in assert_input_error(capsys, ["verify", str(inst), "--check", "log-laplace"])
    inst.write_bytes(b"\xff{}")
    assert "utf-8" in assert_input_error(capsys, ["verify", str(inst), "--check", "log-laplace"])
    op = f'{{"kind":"midpoint","dim":{huge}}}'
    assert "4300 digits" in assert_input_error(capsys, ["check-op", "--op", op, "--radius", "1"])


def _outcome(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    if code == 2:
        err = captured.err.splitlines()
        assert len(err) == 1 and "error" in json.loads(err[0])
    return code, captured.out


def test_deeply_nested_json_exits_2_or_runs_unchanged(tmp_path, capsys):
    # JSON nested past the interpreter's stack once raised RecursionError from
    # the decoder or from the operation parser, and exited 1
    path = tmp_path / "in.json"

    def check_op(spec):
        return ["check-op", "--op", spec, "--radius", "1"], ""

    def verify(spec):
        return ["verify", str(path), "--check", "set-bm"], f'{{"A": [[0], [2]], "B": [[1]], "op": {spec}}}'

    def couple(pad):  # an atom field that the parser ignores
        return ["couple", str(path), str(path)], json.dumps(MEASURE_U2)[:-3] + f', "pad": {pad}}}]}}'

    def outcome(argv, text):
        path.write_text(text)
        return _outcome(capsys, argv)

    leaf = '{"kind":"midpoint","dim":1}'
    for command in (check_op, verify, couple):
        flat = outcome(*command(leaf))
        assert flat[0] == 0
        for depth in (1, 2, 10, 100, 490, 495, 500, 1000, 3000, 100_000):
            for spec in (
                '{"kind":"product","factors":[' * depth + leaf + "]}" * depth,
                '{"kind":' + "[" * depth + "]" * depth + "}",
            ):
                code, out = outcome(*command(spec))
                # wherever a nested spec runs, its stdout is the flat spec's
                assert (code, out) == flat if code == 0 else code == 2
                assert code == 2 or depth < 1000


def test_exponents_of_unbounded_cost_are_rejected(tmp_path, capsys):
    # a common denominator near 10^14 once raised weights to powers near 10^7
    mu = {"dim": 1, "atoms": [{"x": [0], "w": "1/3"}, {"x": [1], "w": "2/3"}]}
    nu = {"dim": 1, "atoms": [{"x": [0], "w": "2/7"}, {"x": [3], "w": "5/7"}]}
    base = {"op": {"kind": "midpoint", "dim": 1}, "mu": mu, "nu": nu}
    for exponents in (
        {"alpha": "1/9999991", "beta": "1/9999991", "gamma": "1/9999989", "delta": "1/9999989"},
        {"alpha": "1000000000", "beta": "1", "gamma": "1000000000", "delta": "1000000000"},
    ):
        inst = write(tmp_path, "inst.json", {**base, **exponents})
        error = assert_input_error(capsys, ["verify", inst, "--check", "pointwise"])
        assert "at most 1000" in error
    inst = write(tmp_path, "inst.json", base)
    assert_input_error(capsys, ["verify", inst, "--check", "pointwise", "--alpha", "1/1001"])
    assert main(["verify", inst, "--check", "pointwise", "--alpha", "1/1000"]) == 0
    capsys.readouterr()


def test_verify_p_bound_equality_instance(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"op": {"kind": "midpoint", "dim": 1}, "mu": MEASURE_U3, "nu": MEASURE_U2},
    )
    code, lines = run(capsys, ["verify", inst, "--check", "p-bound"])
    assert code == 0
    assert abs(lines[0]["log_p"]) <= 1e-12


def test_verify_pointwise_negative_control(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"op": NEGATE, "mu": MEASURE_U2, "nu": MEASURE_U02},
    )
    code, lines = run(capsys, ["verify", inst, "--check", "pointwise"])
    assert code == 1
    assert lines[0]["witness"]["x"] == [0] and lines[0]["witness"]["y"] == [0]


def test_verify_entropy_negative_control(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", {"op": NEGATE, "mu": MEASURE_U2, "nu": MEASURE_U02})
    code, lines = run(capsys, ["verify", inst, "--check", "entropy"])
    assert code == 1
    assert math.isclose(lines[0]["gap"], -math.log(2), abs_tol=1e-9)


def test_verify_entropy_with_matching_and_foreign_decomposition(tmp_path, capsys):
    blocks = {"blocks": [{"dim": 1, "order": {"dim": 1, "perm": [1], "signs": [1]}}]}
    inst = write(
        tmp_path,
        "inst.json",
        {"op": {"kind": "midpoint", "dim": 1}, "mu": MEASURE_U2, "nu": MEASURE_U2, "decomposition": blocks},
    )
    code, lines = run(capsys, ["verify", inst, "--check", "entropy"])
    assert code == 0
    foreign = {"blocks": blocks["blocks"] * 2}
    inst2 = write(
        tmp_path,
        "inst2.json",
        {"op": {"kind": "midpoint", "dim": 1}, "mu": MEASURE_U2, "nu": MEASURE_U2, "decomposition": foreign},
    )
    assert main(["verify", inst2, "--check", "entropy"]) == 2
    capsys.readouterr()


def test_verify_exponent_validation_exits_2(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"op": {"kind": "midpoint", "dim": 1}, "mu": MEASURE_U2, "nu": MEASURE_U2, "alpha": "2", "gamma": "1"},
    )
    assert main(["verify", inst, "--check", "p-bound"]) == 2
    capsys.readouterr()


def test_verify_unknown_check_exits_2(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", {"op": {"kind": "midpoint", "dim": 1}})
    assert main(["verify", inst, "--check", "nonsense"]) == 2
    capsys.readouterr()


def test_verify_set_bm(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"op": {"kind": "meet_join", "dim": 2}, "A": [[0, 0], [1, 1]], "B": [[0, 1], [1, 0]]},
    )
    code, lines = run(capsys, ["verify", inst, "--check", "set-bm"])
    assert code == 0
    assert lines[0]["lhs"] == "4" and lines[0]["rhs"] == "9"


def test_verify_dbm_inapplicable_exits_3(tmp_path, capsys):
    ind = {"dim": 1, "atoms": [{"x": [0], "w": "1"}, {"x": [1], "w": "1"}]}
    inst = write(
        tmp_path,
        "inst.json",
        {"op": NEGATE, "f": ind, "g": ind, "h": ind, "k": ind, "radius": 2},
    )
    code, lines = run(capsys, ["verify", inst, "--check", "dbm"])
    assert code == 3
    assert lines[0]["outcome"] == "inapplicable"


def test_verify_log_laplace(tmp_path, capsys):
    inst = write(
        tmp_path,
        "inst.json",
        {"phi": {"dim": 1, "points": [{"x": [0], "v": 0.0}, {"x": [1], "v": 1.0986122886681098}]}},
    )
    code, lines = run(capsys, ["verify", inst, "--check", "log-laplace"])
    assert code == 0
    assert math.isclose(lines[0]["lhs"], math.log(4), abs_tol=1e-9)


def test_verify_log_laplace_rejects_a_repeated_point(tmp_path, capsys):
    points = [{"x": [0], "v": 1.0}, {"x": [0], "v": 5.0}]
    inst = write(tmp_path, "inst.json", {"phi": {"dim": 1, "points": points}})
    assert main(["verify", inst, "--check", "log-laplace"]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert not captured.out and len(err) == 1
    assert "more than once" in json.loads(err[0])["error"]


def test_verify_missing_field_exits_2(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", {"op": {"kind": "midpoint", "dim": 1}})
    assert main(["verify", inst, "--check", "p-bound"]) == 2
    capsys.readouterr()
    base = {"op": {"kind": "midpoint", "dim": 1}, "mu": MEASURE_U2, "nu": MEASURE_U2}
    coerced = {"dim": 1, "atoms": [{"x": [1.5], "w": "1/2"}, {"x": [True], "w": "1/2"}]}
    phi = {"dim": 1, "points": [{"x": [0], "v": 0.0}, {"x": [1], "v": 1.0}]}
    ind = {"dim": 1, "atoms": [{"x": [0], "w": "1"}, {"x": [1], "w": "1"}]}
    for bad, check in (
        ({"tolerance": "abc"}, "p-bound"),
        ({"seed": "x"}, "p-bound"),
        ({"radius": "two"}, "p-bound"),
        ({"radius": [2]}, "p-bound"),
        ({"radius": 2.7}, "p-bound"),
        ({"radius": 2.0}, "p-bound"),
        ({"radius": True}, "p-bound"),
        ({"seed": 1.5}, "p-bound"),
        ({"dim": 1.0, "op": "midpoint"}, "p-bound"),
        ({"mu": coerced}, "p-bound"),
        ({"tolerance": math.nan}, "entropy"),
        ({"tolerance": math.inf}, "entropy"),
        ({"tolerance": -1}, "entropy"),
        ({"tolerance": True}, "entropy"),
        ({"phi": {**phi, "points": [{"x": [0], "v": math.nan}]}}, "log-laplace"),
        ({"phi": {**phi, "points": [{"x": [0], "v": math.inf}]}}, "log-laplace"),
        ({"phi": {**phi, "points": [{"x": [0.5], "v": 0.0}]}}, "log-laplace"),
        ({"phi": {**phi, "dim": True}}, "log-laplace"),
        ({"f": ind, "g": ind, "h": ind, "k": ind, "radius": 100000000}, "dbm"),
    ):
        inst = write(tmp_path, "bad.json", {**base, **bad})
        assert main(["verify", inst, "--check", check]) == 2, bad
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert not captured.out and len(err) == 1 and "error" in json.loads(err[0])
    inst = write(tmp_path, "inst.json", {**base, "f": ind, "g": ind, "h": ind, "k": ind})
    assert main(["verify", inst, "--check", "dbm", "--radius", "100000000"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "box checks scan" in json.loads(captured.err)["error"]
    for flag in ("nan", "inf", "-1"):
        assert main(["verify", inst, "--check", "entropy", "--tolerance", flag]) == 2
        assert not capsys.readouterr().out
    assert main(["random-suite", "--instances", "1", "--tolerance", "nan"]) == 2
    assert not capsys.readouterr().out


def test_random_suite_green(capsys):
    code, lines = run(
        capsys,
        ["random-suite", "--seed", "7", "--instances", "25", "--dim", "1",
         "--op", "midpoint", "--checks", "p-bound,entropy,marginals"],
    )
    assert code == 0
    summary = lines[-1]["summary"]
    assert summary["instances"] == 25 and summary["failed"] == 0
    assert len(lines) == 26


def test_random_suite_negative_control(capsys):
    code, lines = run(
        capsys,
        ["random-suite", "--seed", "7", "--instances", "10", "--dim", "1",
         "--op", json.dumps(NEGATE), "--checks", "pointwise,p-bound,entropy"],
    )
    assert code == 1
    assert lines[-1]["summary"]["first_failure"] is not None


def test_random_suite_empty(capsys):
    code, lines = run(capsys, ["random-suite", "--instances", "0"])
    assert code == 0
    assert lines[-1]["summary"]["instances"] == 0


def test_a_seed_outside_64_bits_exits_2(tmp_path, capsys):
    # the streams read a seed modulo 2^64, so -5 and 2^64 - 5 once printed
    # the same rows under different summaries
    for seed in (-1, 2**64):
        expected = f"seed must lie in [0, 2^64), got {seed}"
        argv = ["random-suite", "--seed", str(seed), "--instances", "3"]
        assert assert_input_error(capsys, argv) == expected
        inst = write(tmp_path, "inst.json", {"phi": PHI, "seed": seed})
        assert assert_input_error(capsys, ["verify", inst, "--check", "log-laplace"]) == expected
        # checked where it is read: with no instance, and with a gap that
        # fails before a competitor stream is drawn
        argv = ["random-suite", "--seed", str(seed), "--instances", "0"]
        assert assert_input_error(capsys, argv) == expected
        phi = {"dim": 1, "points": [{"x": [0], "v": 0.4}, {"x": [1], "v": 1.8}]}
        inst = write(tmp_path, "inst.json", {"phi": phi, "seed": seed, "tolerance": 0})
        assert assert_input_error(capsys, ["verify", inst, "--check", "log-laplace"]) == expected
    for seed in (0, 2**64 - 1):
        code, lines = run(capsys, ["random-suite", "--seed", str(seed), "--instances", "3"])
        assert code in (0, 1) and lines[-1]["summary"]["seed"] == seed


def test_random_suite_rejects_bad_checks(capsys):
    assert main(["random-suite", "--instances", "1", "--checks", "bogus"]) == 2
    capsys.readouterr()


def test_random_suite_dim2(capsys):
    op = {"kind": "product", "factors": [{"kind": "midpoint", "dim": 1}, {"kind": "meet_join", "dim": 1}]}
    code, lines = run(
        capsys,
        ["random-suite", "--seed", "3", "--instances", "10", "--dim", "2",
         "--op", json.dumps(op), "--checks", "p-bound,entropy,marginals"],
    )
    assert code == 0


def test_stdout_is_byte_identical(capsys):
    argv = ["random-suite", "--seed", "5", "--instances", "12", "--dim", "1",
            "--op", "meet_join", "--checks", "p-bound,entropy"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second and first


def test_dim2_suite_stdout_digest(capsys):
    # sha256 of this run's stdout as the code printed it before inner Knothe
    # levels merged on integers and disintegrations were cached
    op = {"kind": "product", "factors": [{"kind": "midpoint", "dim": 1}, {"kind": "meet_join", "dim": 1}]}
    code = main(
        ["random-suite", "--seed", "7", "--instances", "200", "--dim", "2", "--op", json.dumps(op),
         "--checks", "pointwise,p-bound,entropy,fibers,marginals"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cd32cc304e8bb601edcc452c9e8a5fbfb87c9e9a53db78857227e7d18e2b3fb6"
    )


# golden stdout digests: sha256 of each run's stdout as the code printed it
# while weights were stored as Fractions

ALL_SUITE_CHECKS = "pointwise,p-bound,entropy,fibers,marginals"
COUPLE_MU = {"dim": 2, "atoms": [
    {"x": [0, 0], "w": "1/6"}, {"x": [0, 2], "w": "1/12"}, {"x": [1, -1], "w": "1/4"},
    {"x": [1, 3], "w": "1/4"}, {"x": [-1, 2], "w": "1/4"},
]}
COUPLE_NU = {"dim": 2, "atoms": [
    {"x": [0, 1], "w": "2/5"}, {"x": [0, -1], "w": "1/10"}, {"x": [2, 0], "w": "3/10"},
    {"x": [2, 2], "w": "1/5"},
]}


def stdout_digest(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_dim1_suite_stdout_digest(capsys):
    argv = ["random-suite", "--seed", "7", "--instances", "300", "--dim", "1",
            "--op", "midpoint", "--checks", ALL_SUITE_CHECKS]
    assert stdout_digest(capsys, argv) == (
        1, "0730f555c44e16ff99e1e2bd94123ed39a7e422ada715a4afaf09fbebae5a5e3"
    )


def test_dim3_suite_stdout_digest(capsys):
    argv = ["random-suite", "--seed", "3", "--instances", "40", "--dim", "3",
            "--op", "midpoint", "--checks", ALL_SUITE_CHECKS]
    assert stdout_digest(capsys, argv) == (
        1, "761d8bbd2689d83bc3e6535cb7624896d112a23b1e183a6376d687ca996eae35"
    )


def test_couple_stdout_digests(tmp_path, capsys):
    mu = write(tmp_path, "mu.json", COUPLE_MU)
    nu = write(tmp_path, "nu.json", COUPLE_NU)
    order = '{"dim":2,"perm":[2,1],"signs":[1,-1]}'
    blocks = '{"blocks":[{"dim":1,"order":{"dim":1,"perm":[1],"signs":[-1]}},' \
             '{"dim":1,"order":{"dim":1,"perm":[1],"signs":[1]}}]}'
    digests = [
        stdout_digest(capsys, ["couple", mu, nu]),
        stdout_digest(capsys, ["couple", mu, nu, "--order", order]),
        stdout_digest(capsys, ["couple", mu, nu, "--mode", "knothe"]),
        stdout_digest(capsys, ["couple", nu, mu, "--mode", "knothe", "--decomposition", blocks]),
    ]
    assert digests == [
        (0, "990670ef86e3f6c42fbe37b5f1536dcde37010eb6eb7f044ae4ec473a9f23074"),
        (0, "af0727e2ba8e5f7eb145dad8e006b0b83fd2265c4ad957480c68ac83a770269a"),
        (0, "0d5f9e8fa286a7b33d58ba9b481e142c1db39bcb94add8c724d0bcd3d89c52ee"),
        (0, "0f1f24a43017cd2390a947cde07d8cfc935c4ab7f231e75c232aca1a293458b3"),
    ]


def test_verify_stdout_digests(tmp_path, capsys):
    midpoint = {**FLAG_INSTANCE, "op": {"kind": "midpoint", "dim": 1}, "mu": MEASURE_U3, "nu": MEASURE_U2}
    powered = {**midpoint, "nu": MEASURE_U02, "alpha": "1/2", "beta": "1/3", "gamma": "3/4", "delta": "1"}
    out = []
    for doc in (FLAG_INSTANCE, midpoint, powered):
        inst = write(tmp_path, "inst.json", doc)
        for check in VERIFY_CHECKS[:-1]:
            out.append(stdout_digest(capsys, ["verify", inst, "--check", check]))
    assert out == [
        # FLAG_INSTANCE: the negation operation fails P2
        (3, "518ac534f9c67b61456082e194ff0dd5da2958e4859cfc047625e8e3331a7c07"),
        (0, "177901c30345e1f7b252e4f8bea39f81a8db1eee9b89b6dbff17ed4472ae9523"),
        (1, "b53228741a749db2acde482216453c8ce5f3e000fa75efa119a33624f2fa3cad"),
        (1, "7025a06561cde771cb9f9e2255c60da82bc23ffcc4fbe4cf40b5d237564f2adc"),
        (1, "bd33b7d57eb1108c7856ae573abe092d32c56b56954b5851d0196fe570912b59"),
        (0, "982b085e997fd7172d86e94cc0be008c4944f83bdb2f7546a61e048a2abf4bff"),
        # midpoint
        (0, "2489caf5a07821da5937508d02ebe00a40b3c11e2398daa928b00e8addbe9b59"),
        (0, "177901c30345e1f7b252e4f8bea39f81a8db1eee9b89b6dbff17ed4472ae9523"),
        (0, "5c1afe815ccd97a047c4081cd4943e778de2b773ba7f1c506823c4c03f4e726d"),
        (0, "0f297b64c1c9a46b13c32327a630bdc805fb48b3cc6d0a2c4e823c15622fbc20"),
        (0, "1e0318a9ed9cbf2e15ddd1d27f570684b7d3a308534e6dd33c9f3e1e66b41c94"),
        (0, "982b085e997fd7172d86e94cc0be008c4944f83bdb2f7546a61e048a2abf4bff"),
        # midpoint with exponents of common denominator 12
        (0, "6770b5365b7d857fa58121a81fcff1f2c971d0d637063c4c9436f403bc601538"),
        (0, "2ec415d73178f284d9396e9f62bf911738552b106cb5b7b5f183b8e46993c941"),
        (0, "b096c9ff5393a683d70d2450c7821d93d894d101f694be67e8137bd6544079ac"),
        (0, "e4ef12e086247a5e5e97cab74ffd5ffc1dcebb73192cc33236001126cf17b26f"),
        (0, "1e0318a9ed9cbf2e15ddd1d27f570684b7d3a308534e6dd33c9f3e1e66b41c94"),
        (0, "982b085e997fd7172d86e94cc0be008c4944f83bdb2f7546a61e048a2abf4bff"),
    ]


# the operations of the benchmark's structure-checks workload
CHECK_OP_SPECS = (
    {"kind": "midpoint", "dim": 2},
    {"kind": "meet_join", "dim": 2},
    {"kind": "product", "factors": [{"kind": "midpoint", "dim": 1}, {"kind": "meet_join", "dim": 1}]},
    {"kind": "product", "factors": [{"kind": "midpoint", "dim": 2}, {"kind": "meet_join", "dim": 1}]},
    NEGATE,
)


def test_check_op_stdout_digests(capsys):
    out = [
        stdout_digest(capsys, ["check-op", "--op", json.dumps(spec), "--radius", str(r)])
        for spec in CHECK_OP_SPECS
        for r in (1, 2)
    ]
    assert out == [
        # midpoint(2), meet_join(2) and the dim-2 product print the same bytes
        (0, "cd4eb879a125462050821a027dc39438fbe3064fe952bdef89b507c89e81621c"),
        (0, "668ea38107140cd7ed1cf805fb2475a08631adf0d9a558eb69a09f94dd967bd6"),
        (0, "cd4eb879a125462050821a027dc39438fbe3064fe952bdef89b507c89e81621c"),
        (0, "668ea38107140cd7ed1cf805fb2475a08631adf0d9a558eb69a09f94dd967bd6"),
        (0, "cd4eb879a125462050821a027dc39438fbe3064fe952bdef89b507c89e81621c"),
        (0, "668ea38107140cd7ed1cf805fb2475a08631adf0d9a558eb69a09f94dd967bd6"),
        (0, "dabe975435c60d4fcbefbc516a0da27b5e5f16c271bb850582371be81df01c78"),
        (0, "3d3ce28c69b8c546c8cc6a82795435611cc9e127cf0ddb3807107fa62ca49686"),
        # negate fails P2
        (1, "3d52b8f0d52d44a0260cb10b657cceccaf68645a3719200eea8063f996d38689"),
        (1, "6c36c248ea1df68dc79ad6e03d484f567695368142505956db622441a5123f01"),
    ]


def _one_dim_blocks(*signs):
    return {"blocks": [{"dim": 1, "order": {"dim": 1, "perm": [1], "signs": [s]}} for s in signs]}


# difference maps on 1-dim blocks in both orders: one verified, two P2 violations
# whose witnesses follow the reversed order
BLOCK_CHAIN_SPECS = (
    {"kind": "difference_map", "dim": 2, "default": "floor_half", "table": [],
     "decomposition": _one_dim_blocks(-1, 1)},
    # block 2 is not monotone at the prefix difference 2
    {"kind": "difference_map", "dim": 2, "default": "floor_half",
     "table": [{"w": [2, 1], "t": [1, 2]}], "decomposition": _one_dim_blocks(-1, -1)},
    # in the reversed order, t(1) = 2 precedes t(2) = 1
    {"kind": "difference_map", "dim": 1, "default": "floor_half",
     "table": [{"w": [1], "t": [2]}], "decomposition": _one_dim_blocks(-1)},
)


def test_check_op_stdout_digests_at_radius_3_and_on_block_chains(capsys):
    out = [
        stdout_digest(capsys, ["check-op", "--op", json.dumps(spec), "--radius", "3"])
        for spec in CHECK_OP_SPECS + BLOCK_CHAIN_SPECS
    ] + [
        stdout_digest(capsys, ["check-op", "--op", json.dumps(spec), "--radius", "2"])
        for spec in BLOCK_CHAIN_SPECS
    ]
    assert out == [
        # at radius 3 every verified dim-2 operation prints the same bytes
        (0, "159c742dd3fa2bd08af4a32288fce1e56243197e37d193aa435be977c5db4a30"),
        (0, "159c742dd3fa2bd08af4a32288fce1e56243197e37d193aa435be977c5db4a30"),
        (0, "159c742dd3fa2bd08af4a32288fce1e56243197e37d193aa435be977c5db4a30"),
        (0, "f1ed4b6fc0862b5e35f1dd27a7efe89e8340ae0d8696050cfd6991d862303795"),
        (1, "7ddc51a2980e3195ad6557d99b97ef7ebb4bd6f7ccccd8320f4d6f382458f5e5"),
        (0, "159c742dd3fa2bd08af4a32288fce1e56243197e37d193aa435be977c5db4a30"),
        (1, "d21c221ef4a731be6966e32c5b33945e10a4a8b2784a1092c83b9453b857a22d"),
        (1, "3220444d03c42cce0a98161bbaf26218fe29faa62b70a12abb3c03f469e618cf"),
        # radius 2
        (0, "668ea38107140cd7ed1cf805fb2475a08631adf0d9a558eb69a09f94dd967bd6"),
        (1, "4bb92c017a4d431eb2c80f5ad2db761c8928160ce05215660f0ce36fbedb7b31"),
        (1, "11fd0e79e036dc3ebb8127bbb76c64d2f921ea8f0d32e626c24f6933e52fbbf5"),
    ]


SET_A = [[-3, 1], [0, 0], [2, -5], [4, 4], [-1, -1], [7, 2]]
SET_B = [[1, 1], [-6, 3], [0, -2], [3, 0], [-2, -4]]
# one override sends a single difference far outside the box
FAR_TABLE = {"kind": "difference_map", "dim": 2, "default": "floor_half",
             "table": [{"w": [3, 1], "t": [10**40, -(10**40)]}]}


def test_verify_set_bm_stdout_digests(tmp_path, capsys):
    out = []
    for op in ({"kind": "midpoint", "dim": 2}, {"kind": "meet_join", "dim": 2}, FAR_TABLE,
               {"kind": "difference_map", "dim": 2, "default": "negate", "table": []}):
        for exponents in ({}, {"alpha": "1/2", "beta": "1/3", "gamma": "3/4", "delta": "1"}):
            inst = write(tmp_path, "sets.json", {"op": op, "A": SET_A, "B": SET_B, **exponents})
            out.append(stdout_digest(capsys, ["verify", inst, "--check", "set-bm"]))
    assert out == [
        (0, "8be7294f5426076a48d226178e37aeca3c8d1ecf7a83ad364084369bc1f54285"),
        (0, "a726983df04cbc6a8fdd0b9c6f6c0defb97424c119eb9e73fdbbf135e4fcc06f"),
        (0, "b6f12944de8aa38cc13e14f2b25f896c3e59bcc10c7b38d06a6a0764ddc6a058"),
        (0, "29c1fa60cf312ecd8e81162ba4b225c5484d0247ec82b8140180766663b74c19"),
        (0, "8be7294f5426076a48d226178e37aeca3c8d1ecf7a83ad364084369bc1f54285"),
        (0, "a726983df04cbc6a8fdd0b9c6f6c0defb97424c119eb9e73fdbbf135e4fcc06f"),
        (0, "5f7eba38ad03aaef6e12b3417783ff438c17cd4520cb330b9d471ccf4e0bc9d0"),
        (0, "3c7020b91a81a0196a784b74059d7092e680fb507508a853d561718282489dd7"),
    ]


def test_out_file(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = main(["random-suite", "--seed", "1", "--instances", "3", "--op", "midpoint",
                 "--checks", "p-bound", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4


def test_out_file_holds_the_bytes_of_stdout(tmp_path, capsys):
    checks = ["--checks", "pointwise,p-bound,entropy,fibers,marginals"]
    product = '{"kind":"product","factors":[{"kind":"midpoint","dim":1},{"kind":"meet_join","dim":1}]}'
    suites = [
        ["random-suite", "--seed", "3", "--instances", "5", "--op", "midpoint", *checks],
        ["random-suite", "--seed", "3", "--instances", "5", "--dim", "2", "--op", product, *checks],
    ]
    for i, argv in enumerate(suites):
        code = main(argv)
        stdout = capsys.readouterr().out.encode()
        out = tmp_path / f"suite{i}.jsonl"
        assert main([*argv, "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout


def test_env_tolerance_default(tmp_path, capsys, monkeypatch):
    inst = write(tmp_path, "inst.json", {"op": {"kind": "midpoint", "dim": 1}, "mu": MEASURE_U2, "nu": MEASURE_U2})
    monkeypatch.setenv("DT_TOLERANCE", "0.125")
    code, lines = run(capsys, ["verify", inst, "--check", "entropy"])
    assert code == 0
    assert lines[0]["tolerance"] == 0.125
    for raw in ("not-a-float", "nan", "-inf", "-0.5"):
        monkeypatch.setenv("DT_TOLERANCE", raw)
        assert main(["verify", inst, "--check", "entropy"]) == 2
        assert not capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_call_unchanged(capsys):
    # the parser is built once per process; no call may leave a flag value,
    # a default or a usage error behind for the next one
    default = ["check-op", "--op", "midpoint", "--dim", "1"]
    first = _outcome(capsys, default)
    for argv in (
        ["check-op", "--op", "nope"],
        ["verify"],
        ["--bogus"],
        ["check-op", "--radius", "x"],
        ["random-suite", "--instances", "1", "--checks", "nope"],
    ):
        assert _outcome(capsys, argv) == (2, "")
    assert _outcome(capsys, ["check-op", "--op", "midpoint", "--dim", "1", "--radius", "1"]) != first
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert _outcome(capsys, default) == first
    assert build_parser() is build_parser()


INDICATOR = {"dim": 1, "atoms": [{"x": [0], "w": "1"}, {"x": [1], "w": "1"}]}
PHI = {"dim": 1, "points": [{"x": [0], "v": 0.0}, {"x": [1], "v": 1.0986122886681098}]}

# an operation whose decomposition declares its block dims and order dims
ORDERED = {
    "kind": "difference_map",
    "dim": 2,
    "default": "floor_half",
    "decomposition": {"blocks": [{"dim": 2, "order": {"dim": 2, "perm": [2, 1], "signs": [1, -1]}}]},
}

# valid instances of the tests above, each with its check and the fields that
# may be replaced; the operation's dim is fuzzed only where the instance
# holds no box check, whose cost grows as (2r+3)^(2 dim)
FUZZ_INSTANCES = (
    (
        {"op": {"kind": "midpoint", "dim": 1}, "mu": MEASURE_U3, "nu": MEASURE_U2},
        "p-bound",
        (("op", "dim"), ("mu", "dim"), ("nu", "atoms", 1, "x", 0), ("tolerance",), ("seed",)),
    ),
    (
        {"op": NEGATE, "mu": MEASURE_U2, "nu": MEASURE_U02},
        "entropy",
        (("op", "dim"), ("nu", "dim"), ("mu", "atoms", 0, "x", 0), ("tolerance",)),
    ),
    (
        {"op": NEGATE, "mu": MEASURE_U2, "nu": MEASURE_U02},
        "pointwise",
        (("mu", "atoms", 1, "x", 0), ("radius",), ("seed",)),
    ),
    (
        {"op": NEGATE, "f": INDICATOR, "g": INDICATOR, "h": INDICATOR, "k": INDICATOR, "radius": 2},
        "dbm",
        (("radius",), ("f", "dim"), ("g", "atoms", 1, "x", 0), ("seed",), ("tolerance",)),
    ),
    (
        {"op": {"kind": "meet_join", "dim": 2}, "A": [[0, 0], [1, 1]], "B": [[0, 1], [1, 0]]},
        "set-bm",
        (("op", "dim"), ("dim",), ("A", 0, 1), ("B", 1, 0)),
    ),
    (
        {"op": ORDERED, "A": [[0, 0], [1, 1]], "B": [[0, 1], [1, 0]]},
        "set-bm",
        (
            ("op", "dim"),
            ("op", "decomposition", "blocks", 0, "dim"),
            ("op", "decomposition", "blocks", 0, "order", "dim"),
        ),
    ),
    (
        {"phi": PHI},
        "log-laplace",
        (
            ("phi", "dim"),
            ("phi", "points", 1, "v"),
            ("phi", "points", 0, "x", 0),
            ("tolerance",),
            ("seed",),
        ),
    ),
)

# integers stay within |n| <= 6, so no replacement makes a run's work
# unbounded; operation and order dims may also be huge, since a dim is
# checked before anything is built with it
HUGE_DIMS = st.sampled_from((10**6, 10**8, 2**63))
HUGE_ORDER = {"dim": 10**8, "perm": [1], "signs": [1]}
FUZZ_VALUES = st.one_of(
    st.booleans(),
    st.floats(-6, 6),
    st.sampled_from((math.nan, math.inf, -math.inf)),
    st.integers(-6, 6),
    st.sampled_from(("", "x", "1", "-2", "0.5", "nan", "inf", "2/3")),
    st.lists(st.integers(-6, 6), max_size=2),
    st.none(),
)


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def fuzzed_instances(draw):
    instance, check, paths = draw(st.sampled_from(FUZZ_INSTANCES))
    path = draw(st.sampled_from(paths))
    doc = copy.deepcopy(instance)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    huge = path[0] == "op" and path[-1] == "dim"
    parent[path[-1]] = draw(FUZZ_VALUES | HUGE_DIMS if huge else FUZZ_VALUES)
    return doc, check


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fuzzed_instances())
@example(({"op": NEGATE, "mu": MEASURE_U2, "nu": MEASURE_U2, "tolerance": math.nan}, "entropy"))
@example(({"phi": {"dim": 1, "points": [{"x": [0], "v": math.inf}]}}, "log-laplace"))
@example(({"op": {"kind": "midpoint", "dim": 10**8}, "mu": MEASURE_U3, "nu": MEASURE_U2}, "p-bound"))
@example(({"op": {**ORDERED, "decomposition": {"blocks": [{"dim": 2, "order": HUGE_ORDER}]}},
           "A": [[0, 0]], "B": [[0, 1]]}, "set-bm"))
def test_verify_fuzzed_instance_fields(case):
    doc, check = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(path), "--check", check])
    assert code in (0, 1, 2, 3)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1
        assert "error" in json.loads(lines[0], parse_constant=_not_json)
    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=_not_json)


# flag values: bools as strings, non-integral, negative, NaN/inf strings and
# unknown names; huge values only where a cap or the flag's meaning bounds the
# work (a huge --instances runs that many instances)
JUNK = ("true", "False", "1.5", "-0.5", "2/3", "nan", "NaN", "inf", "-inf", "1e400", "", "x")
HUGE = (str(10**8), str(2**63))
SMALL = st.integers(-3, 2).map(str)
OPS = (
    '{"kind":"midpoint","dim":1}',
    '{"kind":"meet_join","dim":2}',
    '{"kind":"product","factors":[{"kind":"midpoint","dim":1},{"kind":"meet_join","dim":1}]}',
    json.dumps(NEGATE),
    '{"kind":"midpoint","dim":true}',
    '{"kind":"midpoint","dim":NaN}',
    "midpoint",
    "bogus",
)
SUITE_CHECK_LISTS = ("pointwise", "p-bound,entropy", "fibers,marginals", "bogus", "", "pointwise,nope")
VERIFY_CHECKS = ("dbm", "set-bm", "entropy", "p-bound", "pointwise", "log-laplace", "bogus")
FLAG_INSTANCE = {
    "op": NEGATE,
    "mu": MEASURE_U2,
    "nu": MEASURE_U02,
    "f": INDICATOR,
    "g": INDICATOR,
    "h": INDICATOR,
    "k": INDICATOR,
    "A": [[0], [2]],
    "B": [[1]],
    "phi": PHI,
}


def flag_values(*valid, huge=True):
    values = st.sampled_from(valid + JUNK) | SMALL
    return values | st.sampled_from(HUGE) if huge else values


@st.composite
def cli_argvs(draw):
    def optional(flag, values):
        return [flag, draw(values)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(("check-op", "random-suite", "verify")))
    if command == "check-op":
        # the radius is always given: the default 4 is slow in dim 2
        return ["check-op", "--op", draw(st.sampled_from(OPS)), "--radius", draw(flag_values("1", "2"))]
    tolerance = optional("--tolerance", flag_values("0", "1e-9", "0.5"))
    if command == "random-suite":
        return [
            "random-suite",
            "--instances",
            draw(flag_values("0", "5", huge=False)),
            *optional("--seed", flag_values("7")),
            *optional("--dim", flag_values("1", "2")),
            *optional("--checks", st.sampled_from(SUITE_CHECK_LISTS)),
            *tolerance,
        ]
    return [
        "verify",
        "{instance}",
        *optional("--check", st.sampled_from(VERIFY_CHECKS)),
        *optional("--radius", flag_values("1", "2")),
        *tolerance,
    ]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cli_argvs())
@example(["check-op", "--op", '{"kind":"midpoint","dim":2}', "--radius", str(10**8)])
@example(["verify", "{instance}", "--check", "dbm", "--radius", str(2**63)])
@example(["random-suite", "--instances", "2", "--seed", str(2**63), "--tolerance", "1e400"])
@example(["random-suite", "--instances", "2", "--dim", str(10**8)])
def test_cli_fuzzed_flags(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(FLAG_INSTANCE))
        argv = [str(path) if arg == "{instance}" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1
        assert "error" in json.loads(lines[0], parse_constant=_not_json)
    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=_not_json)
