"""Tests for the V*-Diagram-style plane baseline (repro.baselines.VStarProcessor)."""

import pytest

from repro.errors import ConfigurationError
from repro.baselines import VStarProcessor
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
    return uniform_points(300, extent=1_000.0, seed=190)


class TestVStarProcessor:
    def test_validation(self, dataset):
        with pytest.raises(ConfigurationError):
            VStarProcessor(VoRTree(dataset), k=0)
        with pytest.raises(ConfigurationError):
            VStarProcessor(VoRTree(dataset), k=3, auxiliary=0)
        with pytest.raises(ConfigurationError):
            VStarProcessor(VoRTree(dataset), k=len(dataset), auxiliary=1)

    def test_initial_answer_and_candidates(self, dataset):
        processor = VStarProcessor(VoRTree(dataset), k=5, auxiliary=4)
        query = Point(500.0, 500.0)
        result = processor.initialize(query)
        assert list(result.knn) == brute_knn(dataset, query, 5)
        assert len(processor.candidates) == 9
        assert processor.known_region_radius == pytest.approx(
            query.distance_to(dataset[brute_knn(dataset, query, 9)[-1]])
        )

    def test_every_answer_matches_brute_force(self, dataset):
        processor = VStarProcessor(VoRTree(dataset), k=5, auxiliary=4)
        trajectory = random_waypoint_trajectory(
            data_space(1_000.0), steps=100, step_length=25.0, seed=191
        )
        processor.initialize(trajectory[0])
        for position in trajectory[1:]:
            result = processor.update(position)
            expected = brute_knn(dataset, position, 5)
            assert max(result.knn_distances) == pytest.approx(
                position.distance_to(dataset[expected[-1]])
            )

    def test_small_movement_is_answered_from_candidates(self, dataset):
        processor = VStarProcessor(VoRTree(dataset), k=5, auxiliary=4)
        query = Point(500.0, 500.0)
        processor.initialize(query)
        result = processor.update(Point(500.2, 500.0))
        assert result.was_valid
        assert result.action is UpdateAction.NONE
        assert processor.stats.full_recomputations == 1

    def test_more_auxiliary_objects_reduce_recomputations(self, dataset):
        trajectory = random_waypoint_trajectory(
            data_space(1_000.0), steps=200, step_length=20.0, seed=192
        )

        def recomputations(x):
            processor = VStarProcessor(VoRTree(dataset), k=5, auxiliary=x)
            processor.initialize(trajectory[0])
            for position in trajectory[1:]:
                processor.update(position)
            return processor.stats.full_recomputations

        assert recomputations(12) <= recomputations(1)

    def test_recomputes_more_often_than_strict_safe_region_methods(self, dataset):
        """The defining trade-off: cheap construction, frequent recomputation."""
        from repro.core.ins_euclidean import INSProcessor

        trajectory = random_waypoint_trajectory(
            data_space(1_000.0), steps=250, step_length=25.0, seed=193
        )
        vstar = VStarProcessor(VoRTree(dataset), k=5, auxiliary=4)
        ins = INSProcessor(VoRTree(dataset), k=5, rho=1.6)
        for processor in (vstar, ins):
            processor.initialize(trajectory[0])
            for position in trajectory[1:]:
                processor.update(position)
        assert vstar.stats.full_recomputations >= ins.stats.full_recomputations

    def test_name(self, dataset):
        assert VStarProcessor(VoRTree(dataset), k=2).name == "V*"
