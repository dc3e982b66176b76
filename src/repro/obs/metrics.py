"""Counters, gauges and fixed-bucket latency histograms.

One process-global :class:`MetricsRegistry` (module functions
:func:`counter` / :func:`gauge` / :func:`histogram` hand out instruments
from it) accumulates everything the serving system observes about itself.
Three properties make it safe to thread through the hot paths:

* **provably zero semantic cost** — instruments only *read* values the
  serving code already computed; nothing in this module touches answers,
  :class:`~repro.core.stats.CommunicationStats` or
  :class:`~repro.core.stats.ProcessorStats`.  With the registry disabled
  (:func:`disable`) every instrument call is a single flag check, which
  is what the obs-on/off equivalence suite and the PR10 overhead
  benchmark measure against.
* **one bucket layout** — every histogram shares one fixed log-scale
  bound tuple (:data:`HISTOGRAM_BOUNDS`), so a snapshot carries bucket
  counts positionally and any two histograms compare bucket by bucket.
* **deterministic snapshots** — :meth:`MetricsRegistry.snapshot` emits
  samples sorted by ``(name, labels)``, so snapshots (and the Prometheus
  text rendered from them) are byte-stable for golden tests and the
  wire codec.

A *pulled* series is brought up to date by a collector its owner
registers (:meth:`MetricsRegistry.collect`) instead of on every event.
Collectors run first in ``snapshot()`` and ``reset()``, and in
:func:`disable` / :func:`enable` before the flag flips, so a pulled count
obeys the same reset and disabled-window rules as a pushed one.

Snapshots are plain tuples (see :class:`RegistrySnapshot`) shaped exactly
like the :class:`~repro.transport.codec.MetricsSnapshot` wire frame, so
the codec and :func:`render_prometheus` speak the same duck type.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from threading import get_ident
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.objects import immutable
from repro.errors import ConfigurationError
from repro.obs.clock import SOURCE as _CLOCK

__all__ = [
    "HISTOGRAM_BOUNDS",
    "BUCKET_COUNT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RegistrySnapshot",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "enable",
    "disable",
    "enabled",
    "start_timer",
    "render_prometheus",
]

#: Fixed log-scale latency bounds (seconds): 1µs doubling up to ~67s.
#: Every histogram in every process uses exactly these bounds, so bucket
#: counts travel positionally.  One overflow bucket rides after the last
#: bound.
HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(1e-6 * 2.0**i for i in range(27))

#: Buckets per histogram: one per bound plus the overflow bucket.
BUCKET_COUNT: int = len(HISTOGRAM_BOUNDS) + 1

_enabled: bool = True


def enabled() -> bool:
    """True while instruments record (the default; see :func:`disable`)."""
    return _enabled


def enable() -> None:
    """Turn instrument recording on (the process-wide default)."""
    global _enabled
    REGISTRY.pull()
    _enabled = True


def disable() -> None:
    """Turn every instrument into a no-op flag check.

    The off-baseline of the obs-equivalence suite and the overhead
    benchmark.  Already-accumulated values are kept (scrapes still work);
    they simply stop advancing.
    """
    global _enabled
    REGISTRY.pull()
    _enabled = False


def start_timer() -> Optional[float]:
    """The clock now, or ``None`` when recording is disabled.

    The companion of :meth:`Histogram.observe_since`: a disabled registry
    skips both clock reads, so the off-path costs one flag check.  Both call
    the clock seam's current source directly, so a scripted
    :func:`~repro.obs.clock.set_clock` drives them too.
    """
    return _CLOCK[0]() if _enabled else None


def _labels_key(labels: Dict[str, str]) -> str:
    """Canonical ``k=v,k2=v2`` form (sorted) of a label set."""
    if not labels:
        return ""
    for key, value in labels.items():
        text = f"{key}{value}"
        if any(ch in text for ch in (",", "=", '"', "\n")):
            raise ConfigurationError(
                f"label {key}={value!r} may not contain ',', '=', '\"' or newlines"
            )
    return ",".join(f"{key}={labels[key]}" for key in sorted(labels))


class _Scalar:
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: str = ""):
        self.name = name
        self.labels = labels
        self._value = self.ZERO
        self._lock = threading.Lock()

    @property
    def value(self):
        return self._value


class Counter(_Scalar):
    """A monotonically increasing integer."""

    __slots__ = ()
    ZERO = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (no-op while the registry is disabled)."""
        if not _enabled:
            return
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """A point-in-time float."""

    __slots__ = ()
    ZERO = 0.0

    def set(self, value: float) -> None:
        """Replace the value (no-op while the registry is disabled)."""
        if not _enabled:
            return
        with self._lock:
            self._value = float(value)


class Histogram:
    """A fixed-bucket log-scale latency distribution.

    Observations land in the bucket whose bound is the first one >= the
    value (overflow bucket past the last bound); the running sum keeps
    the total seconds, so a histogram subsumes the legacy ``*_seconds``
    accumulators it re-homes.

    Each thread records into a cell of its own — the bucket counts, then
    the sum — so an observation takes no lock: nobody else writes that
    cell.  Readers add the cells up under the lock, which guards the cell
    table (a thread's first observation adds its cell).  Cells are keyed by
    thread ident, and an ident is reused only once its thread has ended, so
    the table stays as small as the set of threads alive at once.
    """

    __slots__ = ("name", "labels", "_cells", "_lock")

    def __init__(self, name: str, labels: str = ""):
        self.name = name
        self.labels = labels
        self._cells: Dict[int, List[float]] = {}
        self._lock = threading.Lock()

    def _cell(self) -> List[float]:
        """The calling thread's cell, added on its first observation."""
        with self._lock:
            return self._cells.setdefault(get_ident(), [0] * BUCKET_COUNT + [0.0])

    def observe(self, value: float) -> None:
        """Record one observation (no-op while the registry is disabled)."""
        if not _enabled:
            return
        cell = self._cells.get(get_ident()) or self._cell()
        cell[bisect_right(HISTOGRAM_BOUNDS, value)] += 1
        cell[BUCKET_COUNT] += value

    def observe_since(self, started: Optional[float]) -> None:
        """Record the elapsed seconds since a :func:`start_timer` stamp.

        ``None`` (the disabled-registry stamp) records nothing, so the
        caller never needs its own enabled check.
        """
        if started is None or not _enabled:
            return
        value = _CLOCK[0]() - started
        cell = self._cells.get(get_ident()) or self._cell()
        cell[bisect_right(HISTOGRAM_BOUNDS, value)] += 1
        cell[BUCKET_COUNT] += value

    def totals(self) -> Tuple[Tuple[int, ...], float]:
        """``(bucket counts, sum)`` over every thread's cell, read at once."""
        with self._lock:
            row = [sum(column) for column in zip([0] * BUCKET_COUNT + [0.0], *self._cells.values())]
        return tuple(row[:BUCKET_COUNT]), row[BUCKET_COUNT]

    def reset(self) -> None:
        """Drop every cell; each thread's next observation starts a new one."""
        with self._lock:
            self._cells.clear()

    @property
    def count(self) -> int:
        return sum(self.totals()[0])

    @property
    def sum(self) -> float:
        return self.totals()[1]

    @property
    def counts(self) -> Tuple[int, ...]:
        return self.totals()[0]


@immutable
class RegistrySnapshot:
    """A point-in-time registry readout, sorted and wire-shaped.

    The field shapes mirror the :class:`~repro.transport.codec.
    MetricsSnapshot` frame exactly (``labels`` in canonical
    ``k=v,k2=v2`` form), so :func:`render_prometheus` accepts either
    interchangeably.
    """

    counters: Tuple[Tuple[str, str, int], ...] = ()
    gauges: Tuple[Tuple[str, str, float], ...] = ()
    histograms: Tuple[Tuple[str, str, Tuple[int, ...], float], ...] = ()


class MetricsRegistry:
    """Create-or-fetch instrument store, one per process.

    Instruments are keyed by ``(name, canonical labels)``; asking twice
    returns the same object, so modules can cache handles at import time
    and hot paths never touch the registry dict.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, str], Counter] = {}
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        self._histograms: Dict[Tuple[str, str], Histogram] = {}
        self._collectors: List[Callable[[], None]] = []

    def _instrument(self, table: Dict, kind: type, name: str, labels: Dict[str, str]):
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = table.get(key)
            if instrument is None:
                instrument = table[key] = kind(*key)
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter ``name`` with these labels (created on first use)."""
        return self._instrument(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge ``name`` with these labels (created on first use)."""
        return self._instrument(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram ``name`` with these labels (created on first use)."""
        return self._instrument(self._histograms, Histogram, name, labels)

    def collect(self, publish: Callable[[], None]) -> None:
        """Register ``publish``, which brings a pulled series up to date."""
        self._collectors.append(publish)

    def pull(self) -> None:
        """Run every collector (see the module docstring for when)."""
        for publish in tuple(self._collectors):
            publish()

    def snapshot(self) -> RegistrySnapshot:
        """Read every instrument out, sorted by ``(name, labels)``."""
        self.pull()
        with self._lock:
            return RegistrySnapshot(
                counters=tuple((*key, self._counters[key].value) for key in sorted(self._counters)),
                gauges=tuple((*key, self._gauges[key].value) for key in sorted(self._gauges)),
                histograms=tuple(
                    (*key, *self._histograms[key].totals()) for key in sorted(self._histograms)
                ),
            )

    def reset(self) -> None:
        """Zero every instrument in place (tests).

        Instruments are zeroed rather than dropped so handles cached at
        module import time stay registered and keep recording into it.
        """
        self.pull()
        with self._lock:
            for instrument in (*self._counters.values(), *self._gauges.values()):
                instrument._value = instrument.ZERO
            for instrument in self._histograms.values():
                instrument.reset()


#: The process-global registry every instrumented module records into.
REGISTRY = MetricsRegistry()


def counter(name: str, **labels: str) -> Counter:
    """A counter from the process-global registry."""
    return REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    """A gauge from the process-global registry."""
    return REGISTRY.gauge(name, **labels)


def histogram(name: str, **labels: str) -> Histogram:
    """A histogram from the process-global registry."""
    return REGISTRY.histogram(name, **labels)


def _prom_labels(labels: str, extra: str = "") -> str:
    """Render a canonical label string into Prometheus ``{k="v"}`` form."""
    pairs = [pair for pair in labels.split(",") if pair] if labels else []
    if extra:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = []
    for pair in pairs:
        key, _, value = pair.partition("=")
        rendered.append(f'{key}="{value}"')
    return "{" + ",".join(rendered) + "}"


def _prom_float(value: float) -> str:
    """Deterministic float formatting for the exposition text."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot) -> str:
    """Prometheus text exposition (format 0.0.4) for a snapshot.

    Accepts any snapshot-shaped object — a :class:`RegistrySnapshot` or
    the :class:`~repro.transport.codec.MetricsSnapshot` wire frame — so a
    remote scrape renders exactly like a local one.
    """
    lines: List[str] = []
    seen_types = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for name, labels, value in snapshot.counters:
        type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(labels)} {value}")
    for name, labels, value in snapshot.gauges:
        type_line(name, "gauge")
        lines.append(f"{name}{_prom_labels(labels)} {_prom_float(value)}")
    for name, labels, counts, total in snapshot.histograms:
        type_line(name, "histogram")
        cumulative = 0
        for index, count in enumerate(counts):
            cumulative += count
            bound = (
                "+Inf"
                if index >= len(HISTOGRAM_BOUNDS)
                else _prom_float(HISTOGRAM_BOUNDS[index])
            )
            lines.append(
                f"{name}_bucket"
                f"{_prom_labels(labels, f'le={bound}')} {cumulative}"
            )
        lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_float(total)}")
        lines.append(f"{name}_count{_prom_labels(labels)} {cumulative}")
    return "\n".join(lines) + "\n"
