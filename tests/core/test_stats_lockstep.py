"""Lockstep guard: stats dataclasses vs merge/snapshot/as_dict.

Every counter of :class:`ProcessorStats` or :class:`CommunicationStats`
must reach ``merge()``, ``snapshot()`` (comm) and ``as_dict()``: dropping
one silently drops that counter from aggregation, which corrupts every
cross-shard bill.  The three walk ``dataclasses.fields`` themselves; this
module derives the expected coverage from the same fields, so a consumer
that stops walking them fails here.  (The wire needs no
guard: the codec derives its stats layouts from the same
``dataclasses.fields`` — ``tests/transport/test_codec.py`` round-trips
them with every field distinct.)
"""

import dataclasses

from repro.core.stats import CommunicationStats, ProcessorStats


def _distinct_instance(cls, offset: int = 0):
    """An instance whose every field holds a distinct nonzero value."""
    values = {}
    for index, field in enumerate(dataclasses.fields(cls)):
        value = offset + 2 * index + 3
        values[field.name] = float(value) if _is_float(field) else value
    return cls(**values), values


def _is_float(field) -> bool:
    return field.type in (float, "float")


class TestCommunicationStatsLockstep:
    def test_merge_covers_every_field(self):
        base = CommunicationStats()
        other, values = _distinct_instance(CommunicationStats)
        base.merge(other)
        for name, value in values.items():
            assert getattr(base, name) == value, f"merge() drops {name}"

    def test_snapshot_covers_every_field(self):
        original, values = _distinct_instance(CommunicationStats, offset=100)
        copy = original.snapshot()
        assert copy is not original
        for name, value in values.items():
            assert getattr(copy, name) == value, f"snapshot() drops {name}"
        # And it really is independent.
        copy.uplink_messages += 1
        assert original.uplink_messages == values["uplink_messages"]

    def test_as_dict_covers_every_field(self):
        stats, values = _distinct_instance(CommunicationStats)
        rendered = stats.as_dict()
        for name, value in values.items():
            assert rendered[name] == value, f"as_dict() drops {name}"


class TestProcessorStatsLockstep:
    def test_merge_covers_every_field(self):
        base = ProcessorStats()
        other, values = _distinct_instance(ProcessorStats)
        base.merge(other)
        for name, value in values.items():
            assert getattr(base, name) == value, f"merge() drops {name}"

    def test_as_dict_covers_every_field(self):
        stats, values = _distinct_instance(ProcessorStats)
        rendered = stats.as_dict()
        for name, value in values.items():
            assert rendered[name] == value, f"as_dict() drops {name}"
