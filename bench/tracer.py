"""Per-layer tracing of discretebm from outside the package.

``Tracer.install`` rebinds every public function of every loaded
``discretebm`` module, in its defining module and in every module that
imported it, plus a fixed list of methods, to wrappers that record spans.
Spans (name, start, end, parent) are kept in memory; a span's self time
is its duration minus the part covered by its children.

Element-level helpers (point arithmetic, order keys and comparisons, RNG
streams, the operation's T-/T+ maps) run millions of times per workload,
so they are counted rather than spanned: their time stays in the caller's
self time.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

PACKAGE = "discretebm"

# module-level functions that are counted, not spanned
COUNTED_FUNCTIONS = {
    "lattice.as_point",
    "lattice.point_add",
    "lattice.point_sub",
    "lattice.zero_point",
    "lattice.basis_point",
    "seeding.mix64",
    "seeding.stream",
    "report.jsonable",
}

# (module, class, attribute, metric name, kind)
METHODS = (
    ("measures", "FiniteMeasure", "__init__", "measures.FiniteMeasure.init", "span"),
    ("measures", "ProbabilityMeasure", "disintegrate", "measures.disintegrate", "span"),
    ("measures", "ProbabilityMeasure", "relative_entropy", "measures.relative_entropy", "span"),
    ("coupling", "Coupling", "__init__", "coupling.Coupling.init", "span"),
    ("coupling", "Coupling", "pushforward_by", "coupling.pushforward_by", "span"),
    ("report", "VerificationReport", "to_json_dict", "report.to_json_dict", "span"),
    ("lattice", "AdditiveTotalOrder", "sorted_points", "lattice.AdditiveTotalOrder.sorted_points", "span"),
    ("lattice", "AdditiveTotalOrder", "compare", "lattice.AdditiveTotalOrder.compare", "count"),
    ("lattice", "AdditiveTotalOrder", "key", "lattice.AdditiveTotalOrder.key", "count"),
    ("lattice", "AdditiveTotalOrder", "leq", "lattice.AdditiveTotalOrder.leq", "count"),
    ("lattice", "AdditiveTotalOrder", "unit", "lattice.AdditiveTotalOrder.unit", "count"),
)

PAIR_MAP = "operations.pair_map"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span table, one entry per span, in start order
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name id, start, child time]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._pair_depth = 0

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
            self.calls.setdefault(name, 0)
        return self._ids[name]

    def _enter(self, nid: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_name)
        now = time.perf_counter()
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(now)
        self.span_end.append(now)
        self._stack.append([index, nid, now, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        index, nid, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        self.self_s[self.names[nid]] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    # -- wrappers ------------------------------------------------------------

    def spanned(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # the work of a generator happens in next(); time each step
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    tracer._enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    def counted(self, name: str, fn):
        self.calls.setdefault(name, 0)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _pair_map(self, fn):
        # counts outermost T-/T+ evaluations only: product and section maps
        # call their factors' maps, which must not count twice
        tracer = self

        def wrapper(x, y):
            if tracer._pair_depth:
                return fn(x, y)
            tracer.calls[PAIR_MAP] += 1
            tracer._pair_depth = 1
            try:
                return fn(x, y)
            finally:
                tracer._pair_depth = 0

        return wrapper

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        wrapped: dict[int, object] = {}
        for modname, mod in modules.items():
            short = modname[len(PACKAGE) + 1 :]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != modname:
                    continue
                name = f"{short}.{attr}"
                if name in COUNTED_FUNCTIONS:
                    wrapped[id(obj)] = self.counted(name, obj)
                else:
                    wrapped[id(obj)] = self.spanned(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        for modname, cls_name, attr, name, kind in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{modname}"], cls_name)
            original = cls.__dict__[attr]
            wrapper = self.spanned(name, original) if kind == "span" else self.counted(name, original)
            self._set(cls, attr, wrapper)
        self.calls[PAIR_MAP] = 0
        op_cls = modules[f"{PACKAGE}.operations"].LatticeOperation
        post_init = op_cls.__dict__["__post_init__"]
        tracer = self

        def counting_post_init(op):
            post_init(op)
            object.__setattr__(op, "t_minus", tracer._pair_map(op.t_minus))
            object.__setattr__(op, "t_plus", tracer._pair_map(op.t_plus))

        self._set(op_cls, "__post_init__", counting_post_init)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @property
    def span_count(self) -> int:
        return len(self.span_name)
