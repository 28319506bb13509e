"""Machine-speed calibration of the benchmark's timings.

The baseline machine (2 vCPUs, Intel Xeon at 2.1 GHz) runs the same
single-threaded Python code at speeds up to about 1.9x apart, in phases of
seconds to minutes, and CPU time moves with wall time, so neither longer
runs nor CPU clocks remove it.  So every workload interleaves a short
calibration kernel with its items: a SIGALRM timer runs one slice of it
every ``EVERY_S`` seconds of the timed rounds, also inside long items, and
each measured span is scaled by the workload's ``reference_s`` over the
median time of the slices inside and around it.  A scaled time reads as
the wall time the span takes when the kernel takes ``reference_s``, the
kernel's median time on the baseline machine.  A slower program still shows
as slower; a slower machine phase does not.

The kernel is a small, fixed piece of the workload itself, run on the
frozen seed-commit copy of the package in ``oracle/`` (imported under the
name ``FROZEN``), so it exercises the same interpreter paths as the items
and does not change when the program under test does.  A kernel of other
code (a stdlib loop) tracked the items much worse: its time moved with the
process's memory layout by up to 1.4x between runs.  Kernels run with the
garbage collector paused, so the program's heap does not change their time,
and their time is left out of every measured span.  The timer is armed
only around untraced rounds, never during an import, so a slice never runs
inside a traced span or holds up an import.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import importlib
import importlib.util
import signal
import statistics
import sys
import time
from pathlib import Path

FROZEN = "frozen_discretebm"
# interval of the calibration timer
EVERY_S = 0.25
# slices on each side of a span that set its scale, with those inside it
NEIGHBOURS = 2


def load_frozen(package_dir: Path, submodules: tuple[str, ...]):
    """Import the package in ``package_dir`` and its submodules as FROZEN."""
    if FROZEN not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            FROZEN, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[FROZEN] = module
        spec.loader.exec_module(module)
    for sub in submodules:
        importlib.import_module(f"{FROZEN}.{sub}")
    return sys.modules[FROZEN]


class Clock:
    """Calibration slices taken between and inside timed spans, and the scale they give."""

    def __init__(self, kernel, reference_s: float) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.busy = False
        kernel()  # warm-up, not recorded

    def tick(self, *_signal) -> None:
        """Run one calibration slice (also the SIGALRM handler)."""
        if self.busy:
            return
        self.busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self.busy = False
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    @contextlib.contextmanager
    def running(self):
        """Take slices every EVERY_S seconds, and one before and after."""
        self.tick()
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.tick()

    def paused(self, start: float, end: float) -> float:
        """Time spent in slices between start and end."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.durations[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """reference_s over the median of the slices inside and next to a span."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        near = self.durations[max(0, lo - NEIGHBOURS):hi + NEIGHBOURS]
        return self.reference_s / statistics.median(near)

    def kernel_s(self) -> float:
        return statistics.median(self.durations)
