"""Lightweight span tracing with a bounded ring buffer.

A :class:`Tracer` records ``(name, start, duration)`` spans into a
``deque(maxlen=capacity)`` — old events fall off the back, so a tracer
left on for hours holds the newest window and never grows.  Spans read
the injectable clock seam (:mod:`repro.obs.clock`), so scripted clocks
make every ``ts``/``dur`` in a test an exact assertion.

Tracing defaults **off**: :meth:`Tracer.span` on a disabled tracer costs
one flag check and returns a shared no-op context, so span sites can sit
permanently on hot paths.  ``insq serve --trace FILE`` enables the
process tracer and exports the ring on shutdown as Chrome-trace-format
JSONL — one complete-event object per line — which loads directly into
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Dict, Optional, Tuple

from repro.core.objects import immutable
from repro.obs.clock import clock

__all__ = ["Span", "TraceEvent", "Tracer", "TRACER"]

DEFAULT_CAPACITY = 16384


@immutable
class TraceEvent:
    """One completed span: seconds on the obs clock, plus identity."""

    name: str
    start: float
    duration: float
    pid: int
    tid: int
    attrs: Tuple[Tuple[str, str], ...] = ()


class _NullSpan:
    """The shared do-nothing context a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One live span; records a :class:`TraceEvent` on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, str]):
        self._tracer = tracer
        self._name = name
        self._attrs = tuple(sorted((k, str(v)) for k, v in attrs.items()))
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = clock()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        end = clock()
        self._tracer._record(
            TraceEvent(
                name=self._name,
                start=self._start,
                duration=end - self._start,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=self._attrs,
            )
        )
        return False


class Tracer:
    """A bounded span recorder (see the module docstring)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        #: True while recording; set by :meth:`enable` / :meth:`disable`.  A
        #: plain attribute, so a hot path can test it before building a span.
        self.enabled = False

    def enable(self, capacity: Optional[int] = None) -> None:
        """Start recording (optionally resizing the ring, which clears it)."""
        with self._lock:
            if capacity is not None:
                self._events = deque(maxlen=capacity)
            self.enabled = True

    def disable(self) -> None:
        """Stop recording; the ring keeps what it holds for export."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every buffered event (tests)."""
        with self._lock:
            self._events.clear()

    def span(self, name: str, **attrs: str):
        """A context manager timing one span (no-op context when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def add(self, name: str, start: float, duration: float, **attrs: str) -> None:
        """Record an already-timed span.

        Instrumented sites that clocked the work anyway (the re-homed
        latency timers) report through here — tracing then costs zero
        extra clock reads, which keeps the on/off paths byte-for-byte
        aligned on clock consumption.
        """
        if not self.enabled:
            return
        self._record(
            TraceEvent(
                name=name,
                start=start,
                duration=duration,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=tuple(sorted((k, str(v)) for k, v in attrs.items())),
            )
        )

    def _record(self, event: TraceEvent) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._events.append(event)

    def events(self) -> Tuple[TraceEvent, ...]:
        """The buffered events, oldest first (a snapshot)."""
        with self._lock:
            return tuple(self._events)

    def export_chrome(self, path: str) -> int:
        """Write the ring as Chrome-trace JSONL; returns the event count.

        Each line is one complete ("ph": "X") event with microsecond
        ``ts``/``dur`` — the format Perfetto and ``chrome://tracing``
        open directly.  Span attributes ride in ``args``.
        """
        events = self.events()
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                record = {
                    "name": event.name,
                    "ph": "X",
                    "ts": event.start * 1e6,
                    "dur": event.duration * 1e6,
                    "pid": event.pid,
                    "tid": event.tid,
                }
                if event.attrs:
                    record["args"] = dict(event.attrs)
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(events)


#: The process-global tracer every span site records into.
TRACER = Tracer()
