"""Host speed, measured by timing a fixed slice of exact arithmetic.

On a shared container the same op can take twice as long in one minute as in
the next.  Timing a fixed slice of ``Fraction`` and dict work between ops
measures how fast the host runs at that moment, and dividing an op's time by
the slowdown reports it at the reference speed: the speed at which one slice
takes REFERENCE_SLICE_NS, about its time on a quiet 2-core x86-64 container.
A run on a slowed host then reads the same as a run on a quiet one.  The
slice is the benchmark's own code, so a change to brokerlab cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

SLICE_TERMS = [Fraction(i, 7) for i in range(1, 41)]
REFERENCE_SLICE_NS = 1_600_000
SLICE_EVERY_NS = 20_000_000
WINDOW = 7


def calibration_slice() -> int:
    """Nanoseconds one fixed slice of exact arithmetic takes right now.

    The cyclic collector is paused so that the slice never pays for the
    garbage of the op before it; that work falls to the next op instead.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc, seen = Fraction(0), {}
        for a in SLICE_TERMS:
            for b in SLICE_TERMS[:6]:
                acc += a * b - b / 3
                seen[a, b] = acc
        return time.perf_counter_ns() - start
    finally:
        if paused:
            gc.enable()


class HostSpeed:
    """Slices taken between ops, one whenever SLICE_EVERY_NS have passed.

    ``tick`` is called before each op and returns the op's place in the
    slice sequence; ``slowdown`` of that place, read after the run, is the
    median of the WINDOW slices around the op over the reference time, so a
    long op is judged by the host's speed on both sides of it.
    """

    def __init__(self):
        self.slices = [calibration_slice() for _ in range(WINDOW // 2)]
        self.last = time.perf_counter_ns()

    def tick(self) -> int:
        if time.perf_counter_ns() - self.last >= SLICE_EVERY_NS:
            self.slices.append(calibration_slice())
            self.last = time.perf_counter_ns()
        return len(self.slices)

    def slowdown(self, place: int) -> float:
        window = self.slices[max(0, place - (WINDOW + 1) // 2) : place + WINDOW // 2]
        return statistics.median(window) / REFERENCE_SLICE_NS
