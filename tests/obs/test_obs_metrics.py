"""Unit and property tests for the metrics registry.

The load-bearing contracts:

* **bucket exactness** — an observation lands in exactly the bucket
  ``bisect_right(HISTOGRAM_BOUNDS, value)`` names, for every value
  including the bound values themselves and the overflow range;
* **gating** — a disabled registry records nothing anywhere, and
  :func:`~repro.obs.metrics.start_timer` returns ``None`` so timed
  sites skip the clock entirely;
* **reset-in-place** — :meth:`MetricsRegistry.reset` zeroes instruments
  without dropping them, so handles cached at module import keep
  recording after a reset;
* **exact under concurrent writers** — a histogram records into one
  lock-free cell per thread, and the counts, bucket vector and sum read
  back exactly what eight threads wrote.
"""

import sys
import threading
from bisect import bisect_right

import pytest

from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs.clock import set_clock
from repro.obs.metrics import (
    BUCKET_COUNT,
    HISTOGRAM_BOUNDS,
    MetricsRegistry,
    start_timer,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def recording():
    """Force recording on for the test, restoring the prior state after."""
    was_enabled = obs_metrics.enabled()
    obs_metrics.enable()
    yield
    if not was_enabled:
        obs_metrics.disable()


class TestInstruments:
    def test_counter_accumulates_and_snapshots(self, registry, recording):
        counter = registry.counter("insq_test_total", kind="a")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        snap = registry.snapshot()
        assert snap.counters == (("insq_test_total", "kind=a", 5),)

    def test_get_or_create_returns_the_same_instrument(self, registry):
        assert registry.counter("c", x="1") is registry.counter("c", x="1")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is not registry.gauge("g", x="1")

    def test_labels_are_canonical_sorted(self, registry):
        instrument = registry.counter("c", zeta="1", alpha="2")
        assert instrument.labels == "alpha=2,zeta=1"
        assert registry.counter("c", alpha="2", zeta="1") is instrument

    def test_label_values_reject_reserved_characters(self, registry):
        with pytest.raises(ConfigurationError):
            registry.counter("c", bad="a,b")
        with pytest.raises(ConfigurationError):
            registry.counter("c", bad="a=b")

    @pytest.mark.parametrize(
        "value",
        [0.0, 1e-9, 1e-6, 1e-6 + 1e-12, 2e-6, 1.0, 100.0, 1e6]
        + list(HISTOGRAM_BOUNDS),
    )
    def test_histogram_bucket_exactness(self, registry, recording, value):
        histogram = registry.histogram("h")
        histogram.observe(value)
        expected = [0] * BUCKET_COUNT
        expected[bisect_right(HISTOGRAM_BOUNDS, value)] = 1
        assert list(histogram.counts) == expected
        assert histogram.sum == value
        assert histogram.count == 1

    def test_histogram_overflow_bucket(self, registry, recording):
        histogram = registry.histogram("h")
        histogram.observe(HISTOGRAM_BOUNDS[-1] * 2)
        assert histogram.counts[-1] == 1

    def test_observe_since_none_is_a_noop(self, registry, recording):
        histogram = registry.histogram("h")
        histogram.observe_since(None)
        assert histogram.count == 0


class TestGating:
    def test_disabled_registry_records_nothing(self, registry):
        was_enabled = obs_metrics.enabled()
        obs_metrics.disable()
        try:
            counter = registry.counter("c")
            gauge = registry.gauge("g")
            histogram = registry.histogram("h")
            counter.inc()
            gauge.set(3.0)
            histogram.observe(0.5)
            histogram.observe_since(0.0)
            assert start_timer() is None
            assert counter.value == 0
            assert gauge.value == 0.0
            assert histogram.count == 0 and histogram.sum == 0.0
        finally:
            if was_enabled:
                obs_metrics.enable()

    def test_start_timer_returns_a_stamp_when_enabled(self, recording):
        assert isinstance(start_timer(), float)


class TestReset:
    def test_reset_zeroes_in_place(self, registry, recording):
        counter = registry.counter("c")
        histogram = registry.histogram("h")
        gauge = registry.gauge("g")
        counter.inc(7)
        histogram.observe(0.25)
        gauge.set(9.0)
        registry.reset()
        # The same handles are still registered and record again.
        assert counter.value == 0
        assert histogram.count == 0
        assert gauge.value == 0.0
        counter.inc()
        assert registry.counter("c") is counter
        assert registry.snapshot().counters == (("c", "", 1),)


class TestConcurrentWriters:
    THREADS = 8
    CALLS = 5_000
    #: Powers of two, so every partial sum is exact in any order.
    VALUES = (2.0**-20, 2.0**-10, 0.25, 1.0, 64.0)

    def _from_threads(self, work):
        """Run ``work`` on THREADS threads, all alive at once, switching often."""
        barrier = threading.Barrier(self.THREADS, timeout=60)

        def start():
            barrier.wait()
            work()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=start) for _ in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def _hammer(self, histogram, counter):
        def work():
            for call in range(self.CALLS):
                histogram.observe(self.VALUES[call % len(self.VALUES)])
                counter.inc()

        self._from_threads(work)

    def test_count_bucket_vector_and_sum_are_exact(self, registry, recording):
        histogram, counter = registry.histogram("h"), registry.counter("c")
        self._hammer(histogram, counter)
        total = self.THREADS * self.CALLS
        each = total // len(self.VALUES)
        expected = [0] * BUCKET_COUNT
        for value in self.VALUES:
            expected[bisect_right(HISTOGRAM_BOUNDS, value)] += each
        assert histogram.counts == tuple(expected)
        assert histogram.count == total == counter.value
        assert histogram.sum == each * sum(self.VALUES)
        assert registry.snapshot().histograms == (
            ("h", "", tuple(expected), each * sum(self.VALUES)),
        )

    def test_reset_zeroes_every_cell_and_cached_handles_keep_recording(
        self, registry, recording
    ):
        histogram, counter = registry.histogram("h"), registry.counter("c")
        self._hammer(histogram, counter)
        registry.reset()
        assert histogram.counts == (0,) * BUCKET_COUNT
        assert histogram.sum == 0.0 and counter.value == 0
        assert registry.snapshot().histograms == (("h", "", (0,) * BUCKET_COUNT, 0.0),)
        # The handles cached before the reset record again, from fresh
        # threads and from this one.
        self._hammer(histogram, counter)
        histogram.observe(1.0)
        assert registry.histogram("h") is histogram
        assert histogram.count == self.THREADS * self.CALLS + 1
        assert counter.value == self.THREADS * self.CALLS

    def test_a_scripted_clock_drives_start_timer_and_observe_since(
        self, registry, recording
    ):
        ticks = iter([10.0, 10.0 + 3e-6, 20.0, 20.5])
        set_clock(lambda: next(ticks))
        try:
            histogram = registry.histogram("h")
            histogram.observe_since(start_timer())  # ≈ 3 µs: bucket (2, 4] µs
            histogram.observe_since(start_timer())  # 0.5 s: bucket (0.262, 0.524] s
        finally:
            set_clock()
        expected = [0] * BUCKET_COUNT
        expected[2] = expected[19] = 1
        assert histogram.counts == tuple(expected)
        assert histogram.sum == ((10.0 + 3e-6) - 10.0) + 0.5
