"""Tests for repro.core.objects."""

import dataclasses
import pickle

import pytest

from repro.core.objects import QueryResult, UpdateAction
from repro.queries.influential import InfluentialResult
from repro.queries.region import RegionResult


def make_result(**overrides):
    defaults = dict(
        timestamp=3,
        knn=(4, 1, 9),
        knn_distances=(1.0, 2.0, 3.0),
        guard_objects=frozenset({7, 8}),
        action=UpdateAction.NONE,
        was_valid=True,
    )
    defaults.update(overrides)
    return QueryResult(**defaults)


def make_results():
    """One of each result class, on the same six base fields."""
    base = make_result()
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    return [
        base,
        InfluentialResult(**fields, sites=(2, 5)),
        RegionResult(**fields, event="enter", departed=(6,)),
    ]


class TestUpdateAction:
    def test_communication_classification(self):
        assert not UpdateAction.NONE.requires_communication
        assert not UpdateAction.LOCAL_REORDER.requires_communication
        assert UpdateAction.INCREMENTAL.requires_communication
        assert UpdateAction.FULL_RECOMPUTE.requires_communication

    def test_values_are_stable(self):
        assert UpdateAction.FULL_RECOMPUTE.value == "full_recompute"
        assert UpdateAction.LOCAL_REORDER.value == "local_reorder"


class TestQueryResult:
    def test_k_and_set_views(self):
        result = make_result()
        assert result.k == 3
        assert result.knn_set == frozenset({1, 4, 9})

    def test_describe_mentions_validity(self):
        assert "valid" in make_result().describe()
        updated = make_result(was_valid=False, action=UpdateAction.FULL_RECOMPUTE)
        assert "full_recompute" in updated.describe()

    def test_results_are_immutable(self):
        for result in make_results():
            with pytest.raises(AttributeError):
                result.timestamp = 5
            with pytest.raises(AttributeError):
                result.unknown = 5
            with pytest.raises(AttributeError):
                del result.knn
            assert result.timestamp == 3 and result.knn == (4, 1, 9)

    def test_results_are_values(self):
        for result in make_results():
            twin = dataclasses.replace(result)
            assert twin == result and not twin != result
            assert hash(twin) == hash(result)
            assert pickle.loads(pickle.dumps(result)) == result
            moved = dataclasses.replace(result, timestamp=4)
            assert type(moved) is type(result) and moved.timestamp == 4
            assert moved != result and not moved == result
            assert repr(result).startswith(f"{type(result).__name__}(timestamp=3, ")
        plain, influential, region = make_results()
        values = [getattr(plain, f.name) for f in dataclasses.fields(plain)]
        assert QueryResult(*values) == plain  # positional construction
        assert [f.name for f in dataclasses.fields(influential)][6:] == ["sites"]
        assert InfluentialResult(*values).sites == ()
        assert RegionResult(*values).event == "stay" and RegionResult(*values).departed == ()
        assert (influential.sites, region.event, region.departed) == ((2, 5), "enter", (6,))
        assert plain != tuple(values) and not plain == tuple(values)
