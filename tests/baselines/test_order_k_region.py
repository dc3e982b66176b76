"""Tests for the strict safe-region baseline: the ``region`` kind's
processor (repro.queries.region.OrderKRegionProcessor) over a VoR-tree."""

import pytest

from repro.errors import ConfigurationError
from repro.core.objects import UpdateAction
from repro.index.vortree import VoRTree
from repro.queries.region import OrderKRegionProcessor
from repro.geometry.point import Point
from repro.trajectory.euclidean import linear_trajectory, random_waypoint_trajectory
from repro.workloads.datasets import data_space, uniform_points


def brute_knn(points, query, k):
    order = sorted(range(len(points)), key=lambda i: (query.distance_squared_to(points[i]), i))
    return order[:k]


@pytest.fixture(scope="module")
def dataset():
    return uniform_points(300, extent=1_000.0, seed=180)


def safe_region_processor(points, k):
    return OrderKRegionProcessor(VoRTree(points), k)


class TestOrderKSafeRegion:
    def test_validation(self, dataset):
        with pytest.raises(ConfigurationError):
            safe_region_processor(dataset, k=0)
        with pytest.raises(ConfigurationError):
            safe_region_processor(dataset, k=len(dataset))

    def test_initial_answer_and_safe_region(self, dataset):
        processor = safe_region_processor(dataset, k=5)
        query = Point(500.0, 500.0)
        result = processor.initialize(query)
        assert set(result.knn) == set(brute_knn(dataset, query, 5))
        assert processor.safe_region is not None
        assert processor.safe_region.contains(query)
        # The safe region's members are exactly the reported kNN set.
        assert set(processor.safe_region.member_indexes) == result.knn_set

    def test_every_answer_matches_brute_force(self, dataset):
        processor = safe_region_processor(dataset, k=5)
        trajectory = random_waypoint_trajectory(
            data_space(1_000.0), steps=80, step_length=20.0, seed=181
        )
        processor.initialize(trajectory[0])
        for position in trajectory[1:]:
            result = processor.update(position)
            expected = brute_knn(dataset, position, 5)
            assert max(result.knn_distances) == pytest.approx(
                position.distance_to(dataset[expected[-1]])
            )

    def test_inside_safe_region_no_recomputation(self, dataset):
        processor = safe_region_processor(dataset, k=5)
        query = Point(500.0, 500.0)
        processor.initialize(query)
        result = processor.update(Point(500.05, 500.0))
        assert result.was_valid
        assert result.action is UpdateAction.NONE
        assert processor.stats.full_recomputations == 1

    def test_recomputation_count_equals_knn_changes_plus_one(self, dataset):
        """The strict safe region recomputes exactly when the kNN set changes."""
        processor = safe_region_processor(dataset, k=4)
        trajectory = linear_trajectory(Point(100.0, 480.0), Point(900.0, 520.0), steps=200)
        previous = None
        changes = 0
        processor.initialize(trajectory[0])
        previous = set(brute_knn(dataset, trajectory[0], 4))
        for position in trajectory[1:]:
            processor.update(position)
            current = set(brute_knn(dataset, position, 4))
            if current != previous:
                changes += 1
            previous = current
        # Every change forces one recomputation; discretisation can add a
        # couple when a step crosses more than one cell.
        assert processor.stats.full_recomputations >= changes
        assert processor.stats.full_recomputations <= changes + max(3, changes // 4) + 1

    def test_guard_objects_are_the_mis(self, dataset):
        processor = safe_region_processor(dataset, k=3)
        result = processor.initialize(Point(250.0, 750.0))
        assert result.guard_objects == processor.safe_region.mis_indexes

    def test_name(self, dataset):
        assert safe_region_processor(dataset, k=2).name == "OrderK-Region"
