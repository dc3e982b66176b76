"""Tests for the typed message protocol and its communication accounting."""

import dataclasses
import pickle

import pytest

from repro.core.objects import QueryResult, UpdateAction
from repro.core.stats import CommunicationStats
from repro.geometry.point import Point
from repro.queries.messages import InfluentialResponse, RegionEvent
from repro.service import KNNResponse, PositionUpdate, UpdateBatch


def _result(knn=(3, 1, 2), action=UpdateAction.NONE, was_valid=True):
    return QueryResult(
        timestamp=4,
        knn=tuple(knn),
        knn_distances=tuple(float(i) for i in range(1, len(knn) + 1)),
        guard_objects=frozenset({7, 8}),
        action=action,
        was_valid=was_valid,
    )


def _messages():
    """One of each message class; the three responses share their fields."""
    fields = dict(query_id=1, result=_result(), objects_shipped=9, round_trips=1, epoch=5)
    return [
        PositionUpdate(query_id=3, position=Point(1.0, 2.0)),
        KNNResponse(**fields),
        InfluentialResponse(**fields),
        RegionEvent(**fields),
    ]


class TestValueSemantics:
    def test_setting_or_deleting_an_attribute_raises(self):
        for message in _messages():
            with pytest.raises(AttributeError):
                message.query_id = 7
            with pytest.raises(AttributeError):
                message.unknown = 7
            with pytest.raises(AttributeError):
                del message.query_id
            assert message.query_id in (1, 3)

    def test_equal_fields_make_equal_values_with_equal_hashes(self):
        for message, twin in zip(_messages(), _messages()):
            assert message is not twin
            assert message == twin and not message != twin
            assert hash(message) == hash(twin)
            values = [getattr(message, f.name) for f in dataclasses.fields(message)]
            assert type(message)(*values) == message  # positional construction

    def test_equality_is_class_strict(self):
        _, knn, influential, region = _messages()
        for one, other in ((knn, influential), (knn, region), (influential, region)):
            assert one != other and not one == other
            assert other != one and not other == one
        values = tuple(getattr(knn, f.name) for f in dataclasses.fields(knn))
        assert knn != values and values != knn
        assert len({knn, influential, region}) == 3

    def test_pickle_round_trip_keeps_the_class(self):
        for message in _messages():
            restored = pickle.loads(pickle.dumps(message))
            assert restored == message and type(restored) is type(message)

    def test_dataclasses_fields_and_replace(self):
        response = ["query_id", "result", "objects_shipped", "round_trips", "epoch"]
        for message in _messages():
            names = [f.name for f in dataclasses.fields(message)]
            assert names == (response if "result" in names else ["query_id", "position"])
            changed = dataclasses.replace(message, query_id=8)
            assert type(changed) is type(message) and changed.query_id == 8
            assert changed != message
            assert all(
                getattr(changed, name) == getattr(message, name)
                for name in names
                if name != "query_id"
            )
            assert repr(message).startswith(f"{type(message).__name__}(query_id=")


class TestPositionUpdate:
    def test_positions_are_not_object_payload(self):
        message = PositionUpdate(query_id=3, position=Point(1.0, 2.0))
        assert message.payload_size() == 0


class TestKNNResponse:
    def test_payload_is_the_shipped_objects(self):
        response = KNNResponse(
            query_id=1, result=_result(), objects_shipped=9, round_trips=1, epoch=5
        )
        assert response.payload_size() == 9

    def test_delegates_the_result_fields(self):
        result = _result(action=UpdateAction.FULL_RECOMPUTE, was_valid=False)
        response = KNNResponse(
            query_id=1, result=result, objects_shipped=12, round_trips=1, epoch=2
        )
        assert response.knn == result.knn
        assert response.knn_distances == result.knn_distances
        assert response.knn_set == frozenset(result.knn)
        assert response.guard_objects == result.guard_objects
        assert response.action is UpdateAction.FULL_RECOMPUTE
        assert response.was_valid is False
        assert response.k == len(result.knn)
        assert response.describe() == result.describe()

    def test_a_locally_validated_step_ships_nothing(self):
        response = KNNResponse(
            query_id=1, result=_result(), objects_shipped=0, round_trips=0, epoch=0
        )
        assert response.payload_size() == 0
        assert response.round_trips == 0


class TestUpdateBatch:
    def test_payload_counts_one_record_per_mutation(self):
        batch = UpdateBatch(
            inserts=(Point(1.0, 1.0), Point(2.0, 2.0)),
            deletes=(4,),
            moves=((5, Point(3.0, 3.0)),),
        )
        assert batch.payload_size() == 4
        assert not batch.is_empty

    def test_normalises_arbitrary_iterables(self):
        batch = UpdateBatch(inserts=[7, 8], deletes=iter([1]), moves=[(2, 9)])
        assert batch.inserts == (7, 8)
        assert batch.deletes == (1,)
        assert batch.moves == ((2, 9),)

    def test_empty_batch(self):
        assert UpdateBatch().is_empty
        assert UpdateBatch().payload_size() == 0


class TestCommunicationStats:
    def test_totals_and_as_dict(self):
        stats = CommunicationStats(
            uplink_messages=3, uplink_objects=2, downlink_messages=5, downlink_objects=40
        )
        assert stats.messages == 8
        assert stats.objects_transmitted == 42
        assert stats.as_dict()["messages"] == 8
        assert stats.as_dict()["objects_transmitted"] == 42

    def test_merge_accumulates(self):
        total = CommunicationStats()
        total.merge(CommunicationStats(uplink_messages=1, downlink_objects=10))
        total.merge(CommunicationStats(downlink_messages=2, downlink_objects=5))
        assert total.uplink_messages == 1
        assert total.downlink_messages == 2
        assert total.downlink_objects == 15

    def test_snapshot_is_independent(self):
        live = CommunicationStats(uplink_messages=1)
        frozen = live.snapshot()
        live.uplink_messages += 5
        assert frozen.uplink_messages == 1
