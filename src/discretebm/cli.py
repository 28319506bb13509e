"""Command-line front end.

Subcommands:

* ``check-op``      run the complement / P1 / P2 box checks on an operation
* ``couple``        build the monotone or Knothe coupling of two measures
* ``verify``        run one named verifier on an instance file
* ``random-suite``  run seeded random instances through a set of checks

Output is line-delimited JSON on stdout (or ``--out``), written line by
line as it is computed; identical flags and seed produce byte-identical
output.  Exit codes: 0 verified / all passed, 1 violated, 2 input or
usage error (one JSON error line on stderr), 3 inapplicable.  The default
floating tolerance is 1e-9, overridable per run with ``--tolerance`` or
globally with the DT_TOLERANCE environment variable; any tolerance must
be finite and >= 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import jsonio
from .coupling import knothe_coupling, monotone_coupling
from .errors import FormatError, LatticeError
from .lattice import singleton_decomposition, standard_order
from .operations import check_operation
from .report import INAPPLICABLE, VERIFIED, VIOLATED, VerificationReport
from .seeding import check_seed
from .suite import SUITE_CHECKS, SuiteInstance, run_instance, run_suite, seeded_instances
from .verify import (
    DEFAULT_TOLERANCE,
    FunctionQuadruple,
    entropy_gap,
    log_laplace_gap,
    set_dbm,
    verify_dbm,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_ERROR = 2
EXIT_INAPPLICABLE = 3

_OUTCOME_CODES = {VERIFIED: EXIT_OK, VIOLATED: EXIT_VIOLATED, INAPPLICABLE: EXIT_INAPPLICABLE}

VERIFY_CHECKS = ("dbm", "set-bm", "entropy", "p-bound", "pointwise", "log-laplace")
_EXPONENTS = ("alpha", "beta", "gamma", "delta")


def _tolerance(flag: float | None, instance: float | None = None) -> float:
    """``--tolerance``, else the instance file's (checked when parsed), else
    DT_TOLERANCE, else the default; each must be finite and >= 0."""
    if flag is not None:
        return jsonio.parse_tolerance(flag, "--tolerance")
    if instance is not None:
        return instance
    raw = os.environ.get("DT_TOLERANCE")
    return DEFAULT_TOLERANCE if raw is None else jsonio.parse_tolerance(raw, "DT_TOLERANCE")


# json.dumps with non-default separators builds a new encoder on every call
_dumps = json.JSONEncoder(separators=(",", ":")).encode


@contextlib.contextmanager
def _output(out: str | None):
    """Yield a function that writes one JSON line to stdout or to the file
    ``out``, which is line-buffered so that each line reaches it as it is
    written.  A reader that closes stdout early drops the remaining lines:
    they, and the last flush, go to the null device, so the command runs to
    its end and keeps its exit code, with nothing on stderr."""
    if out is not None and out != "stdout":
        with open(out, "w", encoding="utf-8", buffering=1) as fh:
            yield lambda obj: fh.write(_dumps(obj) + "\n")
        return
    stdout = sys.stdout

    def guarded(call, *args) -> None:
        try:
            call(*args)
        except BrokenPipeError:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, stdout.fileno())
            os.close(null)

    yield lambda obj: guarded(stdout.write, _dumps(obj) + "\n")
    guarded(stdout.flush)


def _json(text: str | bytes):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # malformed JSON or text, an integer longer than int() reads, or
        # arrays and objects nested deeper than the decoder's stack
        raise FormatError(str(exc)) from exc


def _load_json(path: str):
    with open(path, "rb") as fh:
        return _json(fh.read())


def _parse_op_args(args):
    if args.op is not None:
        raw = args.op
        spec = _json(raw) if raw.lstrip().startswith("{") else raw
        return jsonio.parse_operation(spec, getattr(args, "dim", None))
    raise LatticeError("an operation is required: pass --op")


def _add_exponent_flags(sub) -> None:
    for name in _EXPONENTS:
        sub.add_argument(f"--{name}", metavar="p/q", help=f"exponent {name} (default 1)")


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as :class:`FormatError`, so that they exit 2
    with one JSON error line like every other input error."""

    def error(self, message):
        raise FormatError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use and
    shared by every call of :func:`main`: treat it as read-only."""
    parser = _ArgumentParser(
        prog="discretebm",
        description="Exact couplings on Z^n and discrete Brunn-Minkowski verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check-op", help="run the operation box checks")
    p_check.add_argument("--op", help="operation spec, JSON or a kind name")
    p_check.add_argument("--dim", type=int)
    p_check.add_argument("--radius", type=int, default=4)
    p_check.add_argument("--out", default=None)

    p_couple = sub.add_parser("couple", help="couple two probability measures")
    p_couple.add_argument("mu", help="path to the first measure (JSON)")
    p_couple.add_argument("nu", help="path to the second measure (JSON)")
    p_couple.add_argument("--mode", choices=("monotone", "knothe"), default="monotone")
    p_couple.add_argument("--order", help="order spec (JSON), monotone mode")
    p_couple.add_argument("--decomposition", help="decomposition spec (JSON), knothe mode")
    p_couple.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run one verifier on an instance file")
    p_verify.add_argument("instance", help="path to the instance file (JSON)")
    p_verify.add_argument("--check", required=True, choices=VERIFY_CHECKS)
    p_verify.add_argument("--radius", type=int, default=None)
    p_verify.add_argument("--tolerance", type=float, default=None)
    _add_exponent_flags(p_verify)
    p_verify.add_argument("--out", default=None)

    p_suite = sub.add_parser("random-suite", help="seeded random instance suite")
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--instances", type=int, default=100)
    p_suite.add_argument("--dim", type=int, default=1)
    p_suite.add_argument("--op", default="midpoint", help="operation spec, JSON or a kind name")
    p_suite.add_argument(
        "--checks",
        default="pointwise,p-bound,entropy",
        help=f"comma-separated subset of {','.join(SUITE_CHECKS)}",
    )
    p_suite.add_argument("--tolerance", type=float, default=None)
    p_suite.add_argument("--out", default=None)

    return parser


def cmd_check_op(args) -> int:
    report = check_operation(_parse_op_args(args), args.radius)
    with _output(args.out) as emit:
        emit(report.to_json_dict())
    return EXIT_OK if report.ok else EXIT_VIOLATED


def cmd_couple(args) -> int:
    # each mode reads one of --order and --decomposition; the other one is refused
    for flag, mode in (("order", "knothe"), ("decomposition", "monotone")):
        if args.mode == mode and getattr(args, flag) is not None:
            raise FormatError(f"--{flag} does not apply to --mode {mode}")
    mu = jsonio.parse_probability_measure(_load_json(args.mu))
    nu = jsonio.parse_probability_measure(_load_json(args.nu))
    if args.mode == "monotone":
        order = (
            jsonio.parse_order(_json(args.order))
            if args.order is not None
            else standard_order(mu.dim)
        )
        pi = monotone_coupling(mu, nu, order)
    else:
        decomposition = (
            jsonio.parse_decomposition(_json(args.decomposition))
            if args.decomposition is not None
            else singleton_decomposition(mu.dim)
        )
        pi = knothe_coupling(mu, nu, decomposition)
    # construction certifies the marginals exactly before anything is emitted
    with _output(args.out) as emit:
        emit(jsonio.coupling_to_json(pi))
    return EXIT_OK


def _run_verify_check(args, spec: jsonio.InstanceSpec, tolerance: float) -> VerificationReport:
    name = args.check
    flags = {n: getattr(args, n) for n in _EXPONENTS if getattr(args, n) is not None}
    exponents = jsonio.parse_exponents(flags, spec.exponents)
    radius = args.radius if args.radius is not None else spec.radius

    def need(field: str, value):
        if value is None:
            raise LatticeError(f"check {name!r} needs {field!r} in the instance file")
        return value

    if name == "log-laplace":
        phi = need("phi", spec.phi)
        _, report = log_laplace_gap(phi, tolerance=tolerance, seed=spec.seed)
        return report
    op = need("op", spec.op)
    if name == "set-bm":
        return set_dbm(need("A", spec.set_a), need("B", spec.set_b), op, exponents)
    if name == "dbm":
        quad = FunctionQuadruple(
            need("f", spec.f), need("g", spec.g), need("h", spec.h), need("k", spec.k)
        )
        return verify_dbm(quad, exponents, op, radius)
    mu = need("mu", spec.mu)
    nu = need("nu", spec.nu)
    if name == "entropy":
        _, report = entropy_gap(mu, nu, op, spec.decomposition, exponents, tolerance)
        return report
    # pointwise or p-bound, which the suite runs too: argparse admits only
    # the names of VERIFY_CHECKS
    return run_instance(SuiteInstance(0, mu, nu, exponents), op, [name], tolerance)[0]


def cmd_verify(args) -> int:
    spec = jsonio.parse_instance(_load_json(args.instance))
    report = _run_verify_check(args, spec, _tolerance(args.tolerance, spec.tolerance))
    with _output(args.out) as emit:
        emit(report.to_json_dict())
    return _OUTCOME_CODES[report.outcome]


def cmd_random_suite(args) -> int:
    if args.instances < 0 or not 1 <= args.dim <= jsonio.MAX_DIM:
        raise LatticeError(f"--instances must be >= 0 and --dim between 1 and {jsonio.MAX_DIM}")
    check_seed(args.seed)
    op = _parse_op_args(args)
    if op.dim != args.dim:
        raise LatticeError(f"--op acts on Z^{op.dim} but --dim is {args.dim}; they must agree")
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in SUITE_CHECKS]
    if not checks or unknown:
        raise LatticeError(f"--checks must name a subset of {SUITE_CHECKS}, got {args.checks!r}")
    tolerance = _tolerance(args.tolerance)
    instances = seeded_instances(args.seed, args.instances, args.dim)
    # every input check above runs before --out is opened or a line written
    with _output(args.out) as emit:
        fields = run_suite(instances, op, checks, tolerance, emit)
        emit({"summary": {"seed": args.seed, **fields}})
    return EXIT_OK if fields["failed"] == 0 else EXIT_VIOLATED


_COMMANDS = {
    "check-op": cmd_check_op,
    "couple": cmd_couple,
    "verify": cmd_verify,
    "random-suite": cmd_random_suite,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (LatticeError, OSError) as exc:
        sys.stderr.write(_dumps({"error": str(exc)}) + "\n")
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
