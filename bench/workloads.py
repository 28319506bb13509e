"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
fixed round of items in ``run_round``.  An item is a suite instance, a
large-coupling pair, or one structure check.  ``run_round`` returns the
time span of each item and the raw outputs; ``records`` turns the raw outputs
into verdict records (see ``verdicts.py``) after the clock has stopped.
``calibration`` builds the workload's calibration kernel on the frozen copy
of the package, and ``reference_s`` is the kernel's time on the baseline
machine (see ``calibrate.py``).

``lib`` is the imported ``discretebm`` package, so the same code runs
against the program under test and against the frozen oracle copy.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
import time
import traceback
from typing import NamedTuple

from verdicts import record

SUITE_CHECKS = "pointwise,p-bound,entropy,fibers,marginals"
SUITE_INSTANCES = 1000
DIM2_OP = '{"kind":"product","factors":[{"kind":"midpoint","dim":1},{"kind":"meet_join","dim":1}]}'

# (|supp mu|, |supp nu|) of the large-coupling pairs: 13 sizes evenly spaced from
# 500x300 to 1500x700, so that item latencies have no gap and their median does
# not hang on the seed-dependent cost of one or two pairs
PAIR_SIZES = tuple((500 + 1000 * i // 12, 300 + 400 * i // 12) for i in range(13))

# (label, operation spec, box radius) of the check-op items
CHECK_OPS = (
    ("check-op midpoint(2) r=3", '{"kind":"midpoint","dim":2}', 3),
    ("check-op meet_join(2) r=3", '{"kind":"meet_join","dim":2}', 3),
    ("check-op product(midpoint(1),meet_join(1)) r=3", DIM2_OP, 3),
    (
        "check-op product(midpoint(2),meet_join(1)) r=2",
        '{"kind":"product","factors":[{"kind":"midpoint","dim":2},{"kind":"meet_join","dim":1}]}',
        2,
    ),
    ("check-op negate r=3", '{"kind":"difference_map","dim":1,"table":[],"default":"negate"}', 3),
)
SET_POINTS = 200
SET_BOUND = 15
FIBER_ATOMS = (260, 240)

# calibration kernels: small fixed pieces of each workload, independent of --seed
CALIBRATION_SEED = 7
CALIBRATION_PAIR = (60, 40)
CALIBRATION_CHECK_OPS = ('{"kind":"midpoint","dim":2}', '{"kind":"meet_join","dim":2}')
CALIBRATION_SET_POINTS = 40
CALIBRATION_FIBER_ATOMS = (40, 30)


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def call_cli(lib, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_doc(raw: CliResult) -> dict:
    # exit 1 (violated) is a result; any other nonzero exit is a failure
    if raw.code not in (0, 1):
        return {"exit": raw.code, "error": raw.stderr}
    return {"exit": raw.code, "reports": [json.loads(line) for line in raw.stdout.splitlines()]}


def random_measure_doc(lib, rng: random.Random, atoms: int, dim: int = 1) -> dict:
    points = set()
    while len(points) < atoms:
        points.add(tuple(rng.randint(-5 * atoms, 5 * atoms) for _ in range(dim)))
    raw = lib.measures.FiniteMeasure(dim, [(p, rng.randint(1, 20)) for p in sorted(points)])
    return lib.jsonio.measure_to_json(raw.normalize())


class Round:
    """Outputs and timings of one round; ``output_bytes`` counts CLI stdout.

    ``spans`` holds the (start, end) clock readings of each item, and
    ``start`` and ``end`` those of the whole round.  They include any
    calibration slices taken meanwhile.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []
        self.raw: list = []
        self.output_bytes = 0
        self.start = 0.0
        self.end = 0.0


class Suite:
    """``cli.main random-suite`` over SUITE_INSTANCES seeded instances."""

    def __init__(self, name: str, dim: int, op: str, reference_s: float) -> None:
        self.name, self.dim, self.op, self.reference_s = name, dim, op, reference_s

    def argv(self, seed: int, instances: int) -> list[str]:
        return [
            "random-suite", "--seed", str(seed), "--instances", str(instances),
            "--dim", str(self.dim), "--op", self.op, "--checks", SUITE_CHECKS,
        ]

    def setup(self, lib, seed: int):
        argv = self.argv(seed, SUITE_INSTANCES)
        return {"argv": argv}, argv

    def calibration(self, frozen):
        argv = self.argv(CALIBRATION_SEED, 2)
        return lambda: call_cli(frozen, argv)

    def items(self, state) -> int:
        return SUITE_INSTANCES

    def run_round(self, lib, argv) -> Round:
        # one timestamp as each instance starts and one as the batch ends
        stamps: list[float] = []
        suite, cli = lib.suite, lib.cli
        generate, run_suite = suite.generate_instance, cli.run_suite

        def stamped_generate(*args):
            stamps.append(time.perf_counter())
            return generate(*args)

        def stamped_run_suite(*args):
            try:
                return run_suite(*args)
            finally:
                stamps.append(time.perf_counter())

        suite.generate_instance, cli.run_suite = stamped_generate, stamped_run_suite
        rnd = Round()
        rnd.start = time.perf_counter()
        try:
            raw = call_cli(lib, argv)
        except Exception:  # a batch that raises fails all of its items
            raw = CliResult(-1, "", traceback.format_exc())
            sys.stderr.write(raw.stderr)
        finally:
            rnd.end = time.perf_counter()
            suite.generate_instance, cli.run_suite = generate, run_suite
        rnd.spans = list(zip(stamps, stamps[1:]))
        rnd.raw = [raw]
        rnd.output_bytes = len(raw.stdout.encode())
        return rnd

    def records(self, state, raw: list) -> list:
        (result,) = raw
        lines = result.stdout.splitlines()
        if result.code not in (0, 1) or len(lines) != SUITE_INSTANCES + 1:
            return [record({"exit": result.code, "error": result.stderr})] * (SUITE_INSTANCES + 1)
        # instance rows, then the summary line
        return [record(json.loads(line)) for line in lines]


class ItemList:
    """A fixed list of independent items, timed one by one.

    Each item starts from a collected heap, so that a full garbage
    collection caused by earlier items' garbage does not land in it at
    random; the collections its own allocations cause are timed.
    """

    def items(self, state) -> int:
        return len(state)

    def run_round(self, lib, state) -> Round:
        rnd = Round()
        rnd.start = time.perf_counter()
        for label, fn, _to_doc in state:
            gc.collect()
            t0 = time.perf_counter()
            try:
                out = fn(lib)
            except Exception as exc:  # an item that raises is a failed item
                out = exc
                sys.stderr.write(f"{label}:\n{traceback.format_exc()}")
            rnd.spans.append((t0, time.perf_counter()))
            rnd.raw.append(out)
            if isinstance(out, CliResult):
                rnd.output_bytes += len(out.stdout.encode())
        rnd.end = time.perf_counter()
        return rnd

    def records(self, state, raw: list) -> list:
        return [
            record({"item": label, "error": type(out).__name__})
            if isinstance(out, Exception)
            else record(to_doc(out))
            for (label, _fn, to_doc), out in zip(state, raw)
        ]


def reports_doc(reports) -> dict:
    return {"reports": [r.to_json_dict() for r in reports]}


class LargeCoupling(ItemList):
    """Seeded dim-1 pairs of PAIR_SIZES atoms: parse, couple, verify, serialize."""

    name = "large-coupling"
    reference_s = 0.033

    def calibration(self, frozen):
        rng = random.Random(f"{self.name}/calibration")
        mu_doc, nu_doc = (random_measure_doc(frozen, rng, n) for n in CALIBRATION_PAIR)
        item = self._item(mu_doc, nu_doc)
        return lambda: item(frozen)

    def setup(self, lib, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        docs = [
            (random_measure_doc(lib, rng, m), random_measure_doc(lib, rng, n))
            for m, n in PAIR_SIZES
        ]
        state = [
            (f"pair {m}x{n}", self._item(mu_doc, nu_doc), self._doc)
            for (m, n), (mu_doc, nu_doc) in zip(PAIR_SIZES, docs)
        ]
        return {"pairs": [{"mu": a, "nu": b} for a, b in docs]}, state

    @staticmethod
    def _item(mu_doc: dict, nu_doc: dict):
        def run(lib):
            jsonio, verify = lib.jsonio, lib.verify
            mu = jsonio.parse_probability_measure(mu_doc)
            nu = jsonio.parse_probability_measure(nu_doc)
            op = lib.operations.midpoint(1)
            unit = lib.operations.ExponentQuadruple.unit()
            pi = lib.coupling.monotone_coupling(mu, nu, lib.lattice.standard_order(1))
            reports = [
                verify.p_value(mu, nu, pi, op, unit)[1],
                verify.pointwise_term_bound(mu, nu, pi, op, unit),
                verify.entropy_gap(mu, nu, op, None, unit)[1],
                verify.marginal_exactness(pi, mu, nu),
            ]
            return reports, jsonio.coupling_to_json(pi)

        return run

    @staticmethod
    def _doc(out) -> dict:
        reports, coupling_doc = out
        return {**coupling_doc, **reports_doc(reports)}


class StructureChecks(ItemList):
    """Box checks, the set inequality and fiber scans: the structure layers."""

    name = "structure-checks"
    reference_s = 0.038

    def calibration(self, frozen):
        rng = random.Random(f"{self.name}/calibration")
        set_a, set_b = (
            frozen.suite.random_points(rng, 2, CALIBRATION_SET_POINTS, SET_BOUND) for _ in range(2)
        )
        mu_doc, nu_doc = (random_measure_doc(frozen, rng, n) for n in CALIBRATION_FIBER_ATOMS)
        pi = frozen.coupling.monotone_coupling(
            frozen.jsonio.parse_probability_measure(mu_doc),
            frozen.jsonio.parse_probability_measure(nu_doc),
            frozen.lattice.standard_order(1),
        )
        parts = [self._check_op(spec, 1) for spec in CALIBRATION_CHECK_OPS]
        parts += [self._set_dbm("midpoint", set_a, set_b), self._fibers("midpoint", pi)]

        def kernel():
            for part in parts:
                part(frozen)

        return kernel

    def setup(self, lib, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        sets = {
            kind: [
                lib.suite.random_points(rng, 2, SET_POINTS, SET_BOUND),
                lib.suite.random_points(rng, 2, SET_POINTS, SET_BOUND),
            ]
            for kind in ("midpoint", "meet_join")
        }
        mu_doc, nu_doc = (random_measure_doc(lib, rng, n) for n in FIBER_ATOMS)
        pi = lib.coupling.monotone_coupling(
            lib.jsonio.parse_probability_measure(mu_doc),
            lib.jsonio.parse_probability_measure(nu_doc),
            lib.lattice.standard_order(1),
        )
        state = [
            (label, self._check_op(spec, radius), cli_doc)
            for label, spec, radius in CHECK_OPS
        ]
        state += [
            (f"set_dbm {kind}(2) {SET_POINTS}x{SET_POINTS}", self._set_dbm(kind, a, b), _one_report)
            for kind, (a, b) in sets.items()
        ]
        state += [
            (f"check_fiber_structure {kind}(1) {len(pi)} atoms", self._fibers(kind, pi), _one_report)
            for kind in ("midpoint", "meet_join")
        ]
        inputs = {
            "sets": {kind: [list(map(list, a)), list(map(list, b))] for kind, (a, b) in sets.items()},
            "coupling": lib.jsonio.coupling_to_json(pi),
        }
        return inputs, state

    @staticmethod
    def _check_op(spec: str, radius: int):
        return lambda lib: call_cli(lib, ["check-op", "--op", spec, "--radius", str(radius)])

    @staticmethod
    def _set_dbm(kind: str, set_a, set_b):
        def run(lib):
            op = getattr(lib.operations, kind)(2)
            return lib.verify.set_dbm(set_a, set_b, op, lib.operations.ExponentQuadruple.unit())

        return run

    @staticmethod
    def _fibers(kind: str, pi):
        return lambda lib: lib.coupling.check_fiber_structure(pi, getattr(lib.operations, kind)(1))


def _one_report(report) -> dict:
    return reports_doc([report])


WORKLOADS = {
    w.name: w
    for w in (
        Suite("suite-dim1", 1, "midpoint", 0.0113),
        Suite("suite-dim2", 2, DIM2_OP, 0.024),
        LargeCoupling(),
        StructureChecks(),
    )
}
