"""Timing on a host whose speed will not hold still.

The sandbox this benchmark is gated on swings by up to 2x for one to
three seconds at a time (a fixed pure-Python loop timed back to back
for 90 s: min 96 ms, median 134 ms, max 269 ms; the same 8 s farm run
with the same seed took 7.4 to 11.2 s).  No regression bound a user
would care about survives that, so every timed region is cut into
slices and a fixed **calibration kernel** is timed between slices; a
slice's time is then divided by how slow its neighbouring kernels ran
against ``C_REF_S``, the kernel's time on the idle reference host.

What comes out is *reference-speed seconds*: what the run would have
taken had the host run at its idle speed throughout.  On an idle host
they equal wall seconds.  In the sizing experiment (12 same-seed runs
of ``scan_journaled`` and of ``flow_churn``) this cut the
interquartile spread of the total from 14% / 11% of the median to
3.5% / 3.4%.  The kernel exercises what the simulator leans on —
object allocation, a heap, a dict, byte slicing — because a pure
arithmetic loop tracked the slowdowns measurably worse (4.2% / 5.4%).
It runs with the collector off: left on, its allocations trigger
collections of the *farm's* heap, and the yardstick would shrink
whenever the program did.  The kernel lives here, outside ``src/``,
so no change to the program can move it.

Imports only the standard library: ``worker.py`` calibrates once
before importing anything heavy, to normalise set-up time too.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter
from typing import List

# About what the kernel takes between slices on the idle reference
# host (cache-cold; back to back it runs in 3.7 ms).
C_REF_S = 0.005
_BLOB = bytes(range(256)) * 2


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c) -> None:
        self.a = a
        self.b = b
        self.c = c


def calibrate(n: int = 6000) -> float:
    """Seconds the fixed kernel took just now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        heap: list = []
        table: dict = {}
        push = heapq.heappush
        pop = heapq.heappop
        for i in range(n):
            cell = _Cell(i, (i * 7919) & 0xFFFF,
                         _BLOB[i & 255:(i & 255) + 64])
            push(heap, (cell.b, i, cell))
            table[(cell.b, i)] = cell
            if i & 3 == 3:
                key = pop(heap)
                table.pop((key[0], key[1]), None)
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two kernel timings, at reference
    speed."""
    return seconds * C_REF_S * 2.0 / (before + after)


class Slices:
    """A timed region as slices: ``w[i]`` wall seconds of slice ``i``,
    ``c[i]`` the kernel timings just before and after it, ``ops[i]``
    the operations the application completed in it."""

    def __init__(self) -> None:
        self.w: List[float] = []
        self.c: List[List[float]] = []
        self.ops: List[int] = []
        self._last = calibrate()

    def timed(self, app, fn, *args, **kwargs) -> None:
        """Run ``fn(*args, **kwargs)`` as one slice; ``app.progress``
        is the application's operation counter."""
        before = app.progress
        started = perf_counter()
        fn(*args, **kwargs)
        self.w.append(perf_counter() - started)
        self.ops.append(app.progress - before)
        after = calibrate()
        self.c.append([self._last, after])
        self._last = after

    def to_dict(self) -> dict:
        return {"w": self.w, "c": self.c, "ops": self.ops}


def normalised(slices: dict) -> List[float]:
    return [normalise(w, before, after)
            for w, (before, after) in zip(slices["w"], slices["c"])]


def slowdown(slices: dict) -> float:
    """How much slower than reference the host ran over these slices
    (time-weighted); 1.0 on the idle reference host."""
    return sum(slices["w"]) / sum(normalised(slices))


def run_sliced(built, count: int) -> Slices:
    """``built.farm.run(until=built.until)`` in about ``count`` equal
    virtual-time slices of the generators' active period, plus the
    warm-up before it and the drain after it.

    Generators issue at a constant virtual rate, so equal virtual
    slices are equal shares of the operations; a closed-loop workload
    whose round trip differs from the estimate simply takes a few
    slices more or fewer.
    """
    farm = built.farm
    app = built.app
    slices = Slices()
    step = (built.active_end - built.active_start) / count
    edge = built.active_start
    slices.timed(app, farm.run, until=edge)
    while edge < built.until:
        edge = built.until if built.finished() \
            else min(built.until, edge + step)
        slices.timed(app, farm.run, until=edge)
    return slices
