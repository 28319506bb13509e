"""discretebm benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload suite-dim1 [--seed 7] [--seconds 15] [--trace 0|1]

Runs from the root of a source checkout and imports the package from
``src/``.  Set-up imports the package and builds the workload's inputs from
the seed; the timed phase repeats the workload's fixed round of items until
``--seconds`` have been measured, with a fresh set-up before each round and
more after the last until there are MIN_SETUPS (``setup_s`` is their
median).  Calibration slices taken during the rounds and around each
set-up scale every time to the reference machine speed (see
``calibrate.py``); the unscaled times are per-layer diagnostics.  Every
item's verdicts are checked against a reference: the recorded digests in
``reference/`` for the default seed, or otherwise the digests of the same
round computed by the frozen copy of the library in ``oracle/`` (in a
child process, cached under ``.bench_build/``).

With ``--trace 1`` one more round runs with every layer traced (see
``tracer.py``) and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of stdout is the JSON result; the same
result, with the environment, is written under ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 7
MIN_SETUPS = 5
ORACLE_TIMEOUT_S = 150
PACKAGE = "discretebm"
SUBMODULES = ("cli", "coupling", "jsonio", "lattice", "measures", "operations", "suite", "verify")

sys.path.insert(0, str(BENCH))

import verdicts  # noqa: E402
from calibrate import Clock, load_frozen  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics: self time and call counts of these traced names
SELF_TIMES = (
    "suite.generate_instance", "report.to_json_dict", "cli.main",
    "coupling.Coupling.init", "coupling.knothe_coupling", "measures.disintegrate",
    "coupling.iter_conditional_couplings", "coupling.blockwise_fiber_check",
    "measures.FiniteMeasure.init", "measures.cumulative_weights",
    "lattice.AdditiveTotalOrder.sorted_points", "coupling.monotone_coupling",
    "coupling.pushforward_by", "measures.relative_entropy",
    "verify.p_value", "verify.pointwise_term_bound", "verify.entropy_gap",
    "verify.marginal_exactness", "jsonio.parse_probability_measure", "jsonio.coupling_to_json",
    "operations.check_complement", "operations.check_p1", "operations.check_p2",
    "verify.set_dbm", "coupling.check_support_monotone", "coupling.check_fiber_structure",
)
CALLS = (
    "coupling.Coupling.init", "coupling.knothe_coupling", "measures.disintegrate",
    "operations.block_section", "measures.FiniteMeasure.init", "coupling.monotone_coupling",
    "lattice.AdditiveTotalOrder.compare",
)
PER_ITEM = {
    "coupling.certifications_per_item": "coupling.Coupling.init",
    "coupling.knothe_builds_per_item": "coupling.knothe_coupling",
}
LAYER_UNITS = {
    "item_ms_p99": "ms",
    "wall.items_per_s": "1/s",
    "wall.item_ms_p50": "ms",
    "wall.setup_s": "s",
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{f"{name}.calls": "count" for name in CALLS},
    **{metric: "1/item" for metric in PER_ITEM},
    "operations.pair_map.evals": "count",
    "cli.output_bytes": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(1)


def import_library(lib_root: Path):
    """Import (or re-import) the package from ``lib_root``."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if not sys.path or sys.path[0] != str(lib_root):
        sys.path.insert(0, str(lib_root))
    lib = importlib.import_module(PACKAGE)
    for sub in SUBMODULES:
        importlib.import_module(f"{PACKAGE}.{sub}")
    return lib


def setup(workload, lib_root: Path, seed: int, workdir: Path, clock: Clock):
    """Import the package and build the inputs.

    Returns (lib, state, seconds, seconds scaled to the reference speed).
    """
    clock.tick()
    start = time.perf_counter()
    lib = import_library(lib_root)
    inputs, state = workload.setup(lib, seed)
    (workdir / "inputs.json").write_text(json.dumps(inputs))
    end = time.perf_counter()
    clock.tick()
    return lib, state, end - start, (end - start) * clock.scale(start, end)


class Timing:
    """A round's item latencies and wall time without calibration slices,
    as measured (``raw_*``) and scaled to the reference speed."""

    def __init__(self, clock: Clock, rnd) -> None:
        self.raw_latencies = [b - a - clock.paused(a, b) for a, b in rnd.spans]
        self.latencies = [t * clock.scale(a, b) for t, (a, b) in zip(self.raw_latencies, rnd.spans)]
        self.raw_wall = rnd.end - rnd.start - clock.paused(rnd.start, rnd.end)
        # outside any item: CLI parsing, the suite summary
        rest = self.raw_wall - sum(self.raw_latencies)
        self.wall = sum(self.latencies) + rest * clock.scale(rnd.start, rnd.end)


def code_key() -> str:
    """Hash of the benchmark's own code, so cached oracle digests follow it."""
    h = hashlib.sha256()
    for path in sorted(BENCH.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def reference_records(name: str, seed: int) -> list:
    if seed == DEFAULT_SEED:
        stored = json.loads((BENCH / "reference" / f"seed{DEFAULT_SEED}.json").read_text())
        return stored[name]
    cache = BUILD / "oracle" / f"{name}-seed{seed}-{code_key()}.json"
    if not cache.is_file():
        cache.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--oracle-out", str(cache)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ORACLE_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"oracle run failed: {done.stderr.strip()}")
    return json.loads(cache.read_text())


def count_failures(records: list, reference: list, items: int) -> int:
    """Items whose record differs from the reference.

    Records past ``items`` (the suite summary line) belong to no single
    item; a mismatch there fails the round's first item.
    """
    if len(records) != len(reference):
        return items
    bad = [not verdicts.matches(got, want) for got, want in zip(records, reference)]
    failed = sum(bad[:items])
    if failed == 0 and any(bad[items:]):
        failed = 1
    return failed


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1 <= q <= 99) by the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    src = ROOT / "src" / PACKAGE
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def new_clock(workload) -> Clock:
    """A calibration clock whose kernel runs on the frozen copy in ``oracle/``."""
    frozen = load_frozen(BENCH / "oracle" / PACKAGE, SUBMODULES)
    return Clock(workload.calibration(frozen), workload.reference_s)


def run_oracle(workload, seed: int, out: Path) -> None:
    lib_root = BENCH / "oracle"
    lib = import_library(lib_root)
    _inputs, state = workload.setup(lib, seed)
    rnd = workload.run_round(lib, state)
    out.write_text(json.dumps(workload.records(state, rnd.raw)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle-out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.oracle_out is not None:
        run_oracle(workload, args.seed, args.oracle_out)
        return 0

    lib_root = ROOT / "src"
    if not (lib_root / PACKAGE / "__init__.py").is_file():
        fail(f"no {PACKAGE} package under {lib_root}; run from the root of a source checkout")
    reference = reference_records(args.workload, args.seed)
    workdir = BUILD / "work" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    # Set-up runs again before every round, so that its median, like the
    # timings, spans the whole run rather than one moment of machine load.
    clock = new_clock(workload)
    lib, state, raw_setup, first = setup(workload, lib_root, args.seed, workdir, clock)
    if not Path(lib.__file__).resolve().is_relative_to(lib_root.resolve()):
        fail(f"imported {PACKAGE} from {lib.__file__}, not from {lib_root}")
    setup_times, raw_setup_times = [first], [raw_setup]
    items = workload.items(state)

    # timed phase: whole rounds until --seconds have been measured; walls
    # and latencies are scaled, raw_* are as measured
    walls, raw_walls, latencies, raw_latencies = [], [], [], []
    attempted, failed, digest = 0, 0, None
    while True:
        with clock.running():
            rnd = workload.run_round(lib, state)
        timing = Timing(clock, rnd)
        walls.append(timing.wall)
        raw_walls.append(timing.raw_wall)
        latencies += timing.latencies
        raw_latencies += timing.raw_latencies
        records = workload.records(state, rnd.raw)
        digest = verdicts.run_digest(records)
        attempted += items
        failed += count_failures(records, reference, items)
        if sum(raw_walls) >= args.seconds:
            break
        lib, state, raw_setup, seconds = setup(workload, lib_root, args.seed, workdir, clock)
        setup_times.append(seconds)
        raw_setup_times.append(raw_setup)
    # set-up is short next to a round: repeat it until the median has enough samples
    while len(setup_times) < MIN_SETUPS:
        lib, state, raw_setup, seconds = setup(workload, lib_root, args.seed, workdir, clock)
        setup_times.append(seconds)
        raw_setup_times.append(raw_setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    items_per_s = items * len(walls) / sum(walls)

    metrics = {
        "items_per_s": items_per_s,
        "item_ms_p50": statistics.median(latencies) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    # the latency tail is too sensitive to host stalls to gate on, so it is
    # reported with the per-layer diagnostics, from the untraced rounds
    diagnostics = {
        "item_ms_p99": percentile(latencies, 99) * 1e3,
        "wall.items_per_s": items * len(raw_walls) / sum(raw_walls),
        "wall.item_ms_p50": statistics.median(raw_latencies) * 1e3,
        "wall.setup_s": statistics.median(raw_setup_times),
    }
    units = END_TO_END_UNITS

    if args.trace:
        # no calibration slices inside traced spans: one before and one after
        clock.tick()
        tracer = Tracer()
        tracer.install()
        try:
            rnd = workload.run_round(lib, state)
        finally:
            tracer.uninstall()
        clock.tick()
        traced_wall = Timing(clock, rnd).wall
        records = workload.records(state, rnd.raw)
        attempted += items
        failed += count_failures(records, reference, items)
        metrics = {**diagnostics,
                   **layer_metrics(tracer, rnd, items, items / traced_wall / items_per_s)}
        units = LAYER_UNITS
        # every traced name, not only the reported ones, goes to the result file
        layers = {name: {"calls": tracer.calls[name], "self_s": tracer.self_s.get(name)}
                  for name in sorted(tracer.calls)}
    else:
        layers = None
    env = environment(args.seed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    log = {
        "workload": args.workload,
        "trace": args.trace,
        "rounds": len(walls),
        "items_per_round": items,
        "latency_samples": len(latencies),
        "error_rate": failed / attempted,
        "calibration_slices": len(clock.durations),
        "calibration_kernel_ms": clock.kernel_s() * 1e3,
        "diagnostics": diagnostics,
        "verdict_digest": digest,
        "env": env,
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps({**log, **result, "layers": layers}, indent=1)
    )
    print(json.dumps(log))
    for name, value in metrics.items():
        print(f"{name:48s} {value:16.6f} {units[name]}")
    print(json.dumps(result))
    return 0


def layer_metrics(tracer: Tracer, rnd, items: int, overhead_ratio: float) -> dict:
    metrics: dict[str, float] = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    for name in CALLS:
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0)
    for metric, name in PER_ITEM.items():
        metrics[metric] = tracer.calls.get(name, 0) / items
    metrics["operations.pair_map.evals"] = tracer.calls.get("operations.pair_map", 0)
    metrics["cli.output_bytes"] = rnd.output_bytes
    metrics["trace.spans"] = tracer.span_count
    metrics["trace.overhead_ratio"] = overhead_ratio
    return metrics


if __name__ == "__main__":
    sys.exit(main())
