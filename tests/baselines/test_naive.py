"""Tests for the naive plane baseline (repro.baselines.NaiveProcessor)."""

import pytest

from repro.errors import ConfigurationError
from repro.baselines import NaiveProcessor
from repro.core.objects import UpdateAction
from repro.geometry.point import Point
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.workloads.datasets import data_space, uniform_points
from repro.index.vortree import VoRTree


def brute_knn(points, query, k):
    order = sorted(range(len(points)), key=lambda i: (query.distance_squared_to(points[i]), i))
    return order[:k]


@pytest.fixture(scope="module")
def dataset():
    return uniform_points(250, extent=1_000.0, seed=170)


class TestNaiveProcessor:
    def test_validation(self, dataset):
        with pytest.raises(ConfigurationError):
            NaiveProcessor(VoRTree(dataset), k=0)
        with pytest.raises(ConfigurationError):
            NaiveProcessor(VoRTree(dataset), k=len(dataset) + 1)

    def test_every_answer_matches_brute_force(self, dataset):
        processor = NaiveProcessor(VoRTree(dataset), k=6)
        trajectory = random_waypoint_trajectory(
            data_space(1_000.0), steps=40, step_length=50.0, seed=171
        )
        processor.initialize(trajectory[0])
        for position in trajectory:
            if position is trajectory[0]:
                continue
            result = processor.update(position)
            assert list(result.knn) == brute_knn(dataset, position, 6)

    def test_recomputes_every_timestamp(self, dataset):
        processor = NaiveProcessor(VoRTree(dataset), k=4)
        trajectory = random_waypoint_trajectory(
            data_space(1_000.0), steps=30, step_length=20.0, seed=172
        )
        processor.initialize(trajectory[0])
        for position in trajectory[1:]:
            result = processor.update(position)
            assert result.action is UpdateAction.FULL_RECOMPUTE
        assert processor.stats.full_recomputations == len(trajectory)
        assert processor.stats.transmitted_objects == 4 * len(trajectory)

    def test_no_guard_objects(self, dataset):
        processor = NaiveProcessor(VoRTree(dataset), k=4)
        result = processor.initialize(Point(500, 500))
        assert result.guard_objects == frozenset()

    def test_name(self, dataset):
        assert NaiveProcessor(VoRTree(dataset), k=1).name == "Naive"
