"""``repro.obs`` — see inside the serving system, at zero semantic cost.

Threaded through every layer: a process-global
:class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
fixed-bucket latency histograms (:mod:`repro.obs.metrics`),
a bounded-ring span :class:`~repro.obs.trace.Tracer` exporting Chrome-trace
JSONL (:mod:`repro.obs.trace`) and an injectable monotonic clock seam both
time through (:mod:`repro.obs.clock`).  The stdlib Prometheus ``/metrics``
endpoint (:mod:`repro.obs.httpd`) loads on first use of ``MetricsHTTPServer``
or ``start_metrics_http`` (PEP 562): a process that never serves it loads no
``http.server`` or ``ssl``.

The contract that makes it safe everywhere: instruments only read values
the serving code already computed, so observability on vs off is
**bit-identical** in answers and in every
:class:`~repro.core.stats.CommunicationStats` /
:class:`~repro.core.stats.ProcessorStats` counter — the transport
equivalence suite holds that.  The wall-clock overhead measured under 5%
on the reference stream (the figures are in CHANGES.md).

Metrics default **on** (live scraping should work without flags; a
no-observation registry is just idle dictionaries), tracing defaults
**off**.  ``disable()`` turns every instrument into a flag check for the
off-baseline.
"""

import importlib

from repro.obs.clock import clock, set_clock
from repro.obs.metrics import (
    BUCKET_COUNT,
    HISTOGRAM_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    RegistrySnapshot,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    render_prometheus,
    start_timer,
)
from repro.obs.trace import Span, TraceEvent, Tracer, TRACER

__all__ = [
    "BUCKET_COUNT",
    "HISTOGRAM_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "REGISTRY",
    "RegistrySnapshot",
    "Span",
    "TRACER",
    "TraceEvent",
    "Tracer",
    "clock",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "render_prometheus",
    "reset",
    "set_clock",
    "start_metrics_http",
    "start_timer",
]


def reset() -> None:
    """Clear the process-global registry and tracer ring (tests use it
    between cases)."""
    REGISTRY.reset()
    TRACER.reset()


def __getattr__(name):
    if name not in ("MetricsHTTPServer", "start_metrics_http"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module("repro.obs.httpd"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
