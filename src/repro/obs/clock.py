"""The injectable monotonic clock seam every instrument times through.

All observability timing — latency histograms, span traces, the re-homed
legacy timers (``maintenance_seconds``, ``handoff_seconds``, the
simulation drivers' elapsed measurements) — reads the clock through
:func:`clock` instead of calling :func:`time.perf_counter` directly.
That single indirection buys two things:

* **determinism in tests** — :func:`set_clock` swaps in a scripted clock,
  so span durations and histogram buckets become exact assertions rather
  than wall-clock approximations;
* **a greppable hygiene boundary** — the timing-hygiene tier-1 test
  (``tests/test_timing_hygiene.py``) asserts this module is the *only*
  place in ``src/repro`` that touches ``time.perf_counter``, and that
  wall-clock ``time.time()`` never appears at all: an instrument that
  bypassed the seam would be non-injectable and would silently undermine
  the deterministic-trace contract.

The default clock is :func:`time.perf_counter` — monotonic,
high-resolution, unaffected by system clock steps.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

__all__ = ["clock", "set_clock"]

_DEFAULT: Callable[[], float] = time.perf_counter
#: The current source, in a one-element list so that a hot path can hold the
#: list and call ``SOURCE[0]()`` — one frame fewer than :func:`clock` — and
#: still follow :func:`set_clock`.
SOURCE: List[Callable[[], float]] = [_DEFAULT]


def clock() -> float:
    """Seconds on the observability clock (monotonic; injectable)."""
    return SOURCE[0]()


def set_clock(source: Optional[Callable[[], float]] = None) -> None:
    """Replace the clock source (``None`` restores ``time.perf_counter``).

    Tests inject a scripted callable here to make every timing-derived
    number — span ``ts``/``dur``, histogram observations, re-homed legacy
    timers — exactly reproducible.
    """
    SOURCE[0] = source if source is not None else _DEFAULT
