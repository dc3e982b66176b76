"""Property-based tests for the INS core invariants (hypothesis)."""

import math

from hypothesis import assume, given, settings, strategies as st

from influential_reference import (
    influential_neighbor_set_from_points,
    is_closer_set,
    verify_influential_set,
)
from repro.core.ins_euclidean import INSProcessor
from repro.geometry.order_k import knn_indexes
from repro.geometry.point import Point
from repro.workloads.datasets import uniform_points
from repro.index.vortree import VoRTree

coordinates = st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False, allow_infinity=False)
points_strategy = st.builds(Point, coordinates, coordinates)


class TestINSIsInfluentialSet:
    @given(
        st.integers(min_value=20, max_value=60),
        st.integers(min_value=0, max_value=10_000),
        points_strategy,
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_ins_guards_the_knn_set(self, count, seed, query, k):
        """Definition 1 equivalence, probed at random positions around q.

        This is the correctness core of the whole paper: the INS of a kNN
        set is an influential set, so the guard comparison is a sound and
        complete validity test.
        """
        points = uniform_points(count, extent=1_000.0, seed=seed)
        assume(k < count)
        members = knn_indexes(points, query, k)
        ins = influential_neighbor_set_from_points(points, members)
        assume(ins)
        probes = [
            Point(query.x + dx, query.y + dy)
            for dx in (-80.0, -20.0, 0.0, 20.0, 80.0)
            for dy in (-80.0, -20.0, 0.0, 20.0, 80.0)
        ]
        assert verify_influential_set(points, members, ins, probes)


class TestProcessorInvariants:
    @given(
        st.integers(min_value=50, max_value=150),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=1.0, max_value=3.0),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_reported_knn_is_always_the_true_knn(self, count, seed, k, rho, trajectory_seed):
        """Whatever the parameters, every reported answer matches brute force
        (up to distance ties)."""
        points = uniform_points(count, extent=1_000.0, seed=seed)
        assume(k < count)
        from repro.trajectory.euclidean import random_waypoint_trajectory
        from repro.workloads.datasets import data_space

        trajectory = random_waypoint_trajectory(
            data_space(1_000.0), steps=30, step_length=40.0, seed=trajectory_seed
        )
        processor = INSProcessor(VoRTree(points), k=k, rho=rho)
        processor.initialize(trajectory[0])
        for position in trajectory[1:]:
            result = processor.update(position)
            true_kth = sorted(position.distance_to(p) for p in points)[k - 1]
            assert max(result.knn_distances) <= true_kth + 1e-7 * max(true_kth, 1.0)
            assert len(result.knn) == k
            assert len(set(result.knn)) == k

    @given(
        st.integers(min_value=50, max_value=120),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_guard_set_is_disjoint_and_knn_subset_of_r(self, count, seed, k):
        points = uniform_points(count, extent=1_000.0, seed=seed)
        assume(k < count)
        processor = INSProcessor(VoRTree(points), k=k, rho=2.0)
        query = Point(500.0, 500.0)
        result = processor.initialize(query)
        assert not (result.guard_objects & result.knn_set)
        assert result.knn_set <= set(processor.prefetched_set)
        assert not (processor.influential_set & set(processor.prefetched_set))


class TestIsCloserSetProperties:
    @given(points_strategy, st.lists(points_strategy, min_size=1, max_size=6), st.lists(points_strategy, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_relation_is_antisymmetric_unless_tied(self, query, first, second):
        forward = is_closer_set(query, first, second)
        backward = is_closer_set(query, second, first)
        if forward and backward:
            # Both directions can only hold when the boundary distances tie.
            max_first = max(query.distance_to(p) for p in first)
            min_second = min(query.distance_to(p) for p in second)
            assert math.isclose(max_first, min_second, rel_tol=1e-12, abs_tol=1e-12)
