"""Self-test of the benchmark's verdict checks and tracer.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import verdicts  # noqa: E402
from calibrate import EVERY_S, Clock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, call_cli  # noqa: E402


def _library():
    # the package as pytest already imported it; re-importing would give tests
    # collected earlier a second copy of every class
    lib = importlib.import_module(run.PACKAGE)
    for sub in run.SUBMODULES:
        importlib.import_module(f"{run.PACKAGE}.{sub}")
    return lib


def _reference(workload: str) -> list:
    stored = json.loads((BENCH / "reference" / f"seed{run.DEFAULT_SEED}.json").read_text())
    return stored[workload]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_perturbed_verdict_gives_nonzero_error_rate():
    lib = _library()
    workload = WORKLOADS["structure-checks"]
    _inputs, state = workload.setup(lib, run.DEFAULT_SEED)
    reference = _reference("structure-checks")
    # the cheap items: the negate control and the two set inequalities
    cheap = [i for i, (label, _, _) in enumerate(state) if "negate" in label or "set_dbm" in label]
    assert len(cheap) == 3
    outputs = {i: state[i][1](lib) for i in cheap}
    records = list(reference)
    for i in cheap:
        records[i] = verdicts.record(state[i][2](outputs[i]))
        assert verdicts.matches(records[i], reference[i]), state[i][0]
    assert run.count_failures(records, reference, len(state)) == 0

    negate = next(i for i in cheap if "negate" in state[i][0])
    doc = state[negate][2](outputs[negate])
    assert doc["reports"][0]["outcome"] == "violated"
    doc["reports"][0]["outcome"] = "verified"
    records[negate] = verdicts.record(doc)
    failed = run.count_failures(records, reference, len(state))
    assert failed == 1
    assert failed / len(state) > 0


def test_float_fields_compare_within_tolerance():
    want = next(r for r in _reference("large-coupling") if r[1])
    close = [want[0], [v + 1e-12 for v in want[1]]]
    far = [want[0], [want[1][0] + 1e-6] + want[1][1:]]
    assert verdicts.matches(close, want)
    assert not verdicts.matches(far, want)


def test_digest_ignores_detail_and_tolerance_but_not_witness():
    report = {"check": "p2", "outcome": "violated", "witness": {"x1": [1], "t1": [0]},
              "tolerance": 0.0, "detail": "12 evaluations"}
    base = verdicts.record(report)
    assert verdicts.record({**report, "detail": "13 evaluations", "tolerance": 1e-9}) == base
    assert verdicts.record({**report, "witness": {"x1": [2], "t1": [0]}}) != base


def test_traced_suite_counts_and_restores_bindings():
    lib = _library()
    knothe = lib.coupling.knothe_coupling
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.suite.knothe_coupling is not knothe
        result = call_cli(lib, ["random-suite", "--seed", "7", "--instances", "20", "--dim", "1",
                                "--op", "midpoint", "--checks",
                                "pointwise,p-bound,entropy,fibers,marginals"])
    finally:
        tracer.uninstall()
    assert result.code in (0, 1)
    assert tracer.calls["coupling.knothe_coupling"] == 2 * 20
    assert tracer.calls["coupling.Coupling.init"] == 5 * 20
    assert tracer.self_s["coupling.knothe_coupling"] > 0
    assert lib.suite.knothe_coupling is knothe and lib.coupling.knothe_coupling is knothe
    assert "__init__" in vars(lib.coupling.Coupling)
    assert lib.coupling.Coupling.__init__.__name__ == "__init__"
    assert not hasattr(lib.coupling.Coupling.__init__, "__wrapped__")


def test_clock_removes_and_scales_by_its_slices():
    clock = Clock(lambda: None, reference_s=2.0)
    clock.starts, clock.ends = [0.0, 10.0, 20.0, 30.0, 40.0], [1.0, 11.0, 21.0, 31.0, 41.0]
    clock.durations = [1.0, 1.0, 1.0, 4.0, 4.0]
    assert clock.paused(5.0, 25.0) == 2.0  # the slices at 10 and 20
    assert clock.scale(5.0, 25.0) == 2.0  # median of those and two on each side
    assert clock.paused(32.0, 45.0) == 4.0
    assert clock.scale(32.0, 45.0) == 0.5  # median of 1, 4 and 4


def test_clock_timer_takes_slices_inside_a_span():
    clock = Clock(lambda: sum(range(1000)), reference_s=1.0)
    with clock.running():
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * EVERY_S:
            pass
        end = time.perf_counter()
    inside = len(clock.durations) - 2  # one slice before and one after
    assert inside >= 2
    assert 0 < clock.paused(start, end) < end - start
