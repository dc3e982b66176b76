"""A calibration chunk run between timestamps, and the box-speed factors it gives.

Why it exists: on the 2-core sandbox this benchmark was built on, the same
pure-Python loop runs up to 2x slower for seconds at a time (measured: 1-second
means between 2.1 and 4.2 ms for one fixed loop, regimes lasting 3-10 s), so
the raw wall of a fixed stream spreads 12-30 % run to run.  A calibration
sample taken *once, before* a run does not follow that (it was tried and
rejected); one taken after every timestamp does: dividing each timestamp by
the box speed around it brought the spread of the same 30 runs from 15.9 % to
4.9 % (stream) and from 16.8 % to 2.8 % (median update).

The chunk mixes what the engine does — integer arithmetic, attribute reads,
method calls, ``math.hypot``, a dict, a sort — because a tight integer loop
alone over-reacts to the interference.  It runs in the driver, never inside a
timed operation, and its own time is excluded from every metric.

``NOMINAL_S`` fixes the reference box speed: a factor of 1.0 means one chunk
takes exactly that long.  It is an arbitrary constant near this sandbox's
quiet speed and must never change, or every normalised metric shifts.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Sequence

_clock = time.perf_counter

NOMINAL_S = 200e-6

#: Timestamps on each side whose samples smooth one factor (a median, so a
#: single chunk that was descheduled does not count).
HALF_WINDOW = 5


class _Point:
    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def distance(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


_POINTS = [_Point(i * 0.37 % 100.0, i * 0.73 % 100.0) for i in range(350)]
_ORIGIN = _Point(50.0, 50.0)


def chunk() -> float:
    """Run one calibration chunk; returns how long it took."""
    started = _clock()
    total = 0
    for i in range(2500):
        total += i * i
    distances = {}
    for index, point in enumerate(_POINTS):
        distances[index] = _ORIGIN.distance(point)
    sorted(distances, key=distances.get)[:8]
    return _clock() - started


def factors(samples: Sequence[float]) -> List[float]:
    """Per sample, how much slower than the reference speed the box ran
    around it (> 1 is slower): the windowed median over ``NOMINAL_S``."""
    out = []
    for i in range(len(samples)):
        window = samples[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
        out.append(statistics.median(window) / NOMINAL_S)
    return out
