"""Tests for repro.core.stats."""

import time

import pytest

from repro.core.stats import ProcessorStats


class TestCounters:
    def test_defaults_are_zero(self):
        stats = ProcessorStats()
        assert stats.timestamps == 0
        assert stats.full_recomputations == 0
        assert stats.total_seconds == 0.0
        assert stats.recomputation_rate == 0.0

    def test_communication_events(self):
        stats = ProcessorStats(incremental_updates=2, full_recomputations=3)
        assert stats.communication_events == 5

    def test_recomputation_rate(self):
        stats = ProcessorStats(timestamps=10, full_recomputations=2)
        assert stats.recomputation_rate == pytest.approx(0.2)

    def test_merge(self):
        first = ProcessorStats(timestamps=5, validations=4, transmitted_objects=20)
        second = ProcessorStats(timestamps=3, validations=3, transmitted_objects=7)
        first.merge(second)
        assert first.timestamps == 8
        assert first.validations == 7
        assert first.transmitted_objects == 27

    def test_as_dict_contains_all_counters(self):
        stats = ProcessorStats(timestamps=2, full_recomputations=1)
        exported = stats.as_dict()
        assert exported["timestamps"] == 2
        assert exported["full_recomputations"] == 1
        assert "recomputation_rate" in exported
        assert "construction_seconds" in exported


class TestTimers:
    def test_construction_timer_accumulates(self):
        stats = ProcessorStats()
        with stats.timed("construction_seconds"):
            time.sleep(0.002)
        with stats.timed("construction_seconds"):
            time.sleep(0.002)
        assert stats.construction_seconds >= 0.003

    def test_validation_timer(self):
        stats = ProcessorStats()
        with stats.timed("validation_seconds"):
            time.sleep(0.002)
        assert stats.validation_seconds > 0.0
        assert stats.construction_seconds == 0.0

    def test_maintenance_timer(self):
        stats = ProcessorStats()
        with stats.timed("maintenance_seconds"):
            time.sleep(0.002)
        assert stats.maintenance_seconds > 0.0
        # Server-side maintenance is not part of the online total.
        assert stats.total_seconds == stats.construction_seconds + stats.validation_seconds

    def test_timer_records_even_when_exception_raised(self):
        stats = ProcessorStats()
        with pytest.raises(RuntimeError):
            with stats.timed("construction_seconds"):
                raise RuntimeError("boom")
        assert stats.construction_seconds >= 0.0
