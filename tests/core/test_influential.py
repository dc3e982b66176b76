"""Tests for repro.core.influential (IS / MIS / INS machinery)."""

import random

import pytest

from repro.errors import QueryError
from influential_reference import (
    influential_neighbor_set,
    influential_neighbor_set_from_points,
    is_closer_set,
    minimal_influential_set,
    verify_influential_set,
)
from repro.geometry.order_k import knn_indexes
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox
from repro.geometry.delaunay import delaunay_neighbors
from repro.workloads.datasets import uniform_points


class TestIsCloserSet:
    def test_basic_relation(self):
        query = Point(0, 0)
        close = [Point(1, 0), Point(0, 1)]
        far = [Point(5, 0), Point(0, 7)]
        assert is_closer_set(query, close, far)
        assert not is_closer_set(query, far, close)

    def test_empty_sets_are_trivially_true(self):
        query = Point(0, 0)
        assert is_closer_set(query, [], [Point(1, 1)])
        assert is_closer_set(query, [Point(1, 1)], [])

    def test_equality_counts_as_closer(self):
        query = Point(0, 0)
        assert is_closer_set(query, [Point(1, 0)], [Point(0, 1)])


class TestINSComputation:
    def test_ins_matches_manual_union(self, small_points):
        neighbor_map = delaunay_neighbors(small_points)
        members = {4, 6, 7}
        expected = set()
        for member in members:
            expected |= neighbor_map[member]
        expected -= members
        assert influential_neighbor_set(neighbor_map, members) == expected
        assert influential_neighbor_set_from_points(small_points, members) == expected

    def test_ins_excludes_members(self, small_points):
        members = {0, 1}
        ins = influential_neighbor_set_from_points(small_points, members)
        assert not (ins & members)


class TestMISComputation:
    def test_mis_subset_of_ins_figure1_analogue(self, small_points):
        """The Figure 1 structural relationship on the 12-point layout."""
        query = Point(4.8, 5.2)
        members = knn_indexes(small_points, query, 3)
        mis = minimal_influential_set(small_points, members, reference=query)
        ins = influential_neighbor_set_from_points(small_points, members)
        assert mis
        assert mis <= ins

    def test_mis_smaller_or_equal_to_ins_random(self):
        points = uniform_points(100, extent=1_000.0, seed=140)
        rng = random.Random(7)
        for _ in range(5):
            query = Point(rng.uniform(200, 800), rng.uniform(200, 800))
            members = knn_indexes(points, query, 4)
            mis = minimal_influential_set(points, members, reference=query)
            ins = influential_neighbor_set_from_points(points, members)
            assert mis <= ins
            assert len(mis) <= len(ins)


class TestVerifyInfluentialSet:
    def _probes(self, center: Point, radius: float, count: int = 60):
        rng = random.Random(11)
        return [
            Point(center.x + rng.uniform(-radius, radius), center.y + rng.uniform(-radius, radius))
            for _ in range(count)
        ]

    def test_ins_is_an_influential_set(self, small_points):
        """Definition 1 holds for the INS (the paper's correctness claim)."""
        query = Point(4.8, 5.2)
        members = knn_indexes(small_points, query, 3)
        ins = influential_neighbor_set_from_points(small_points, members)
        assert verify_influential_set(
            small_points, members, ins, self._probes(query, 4.0)
        )

    def test_mis_is_an_influential_set(self, small_points):
        query = Point(4.8, 5.2)
        members = knn_indexes(small_points, query, 3)
        mis = minimal_influential_set(small_points, members, reference=query)
        assert verify_influential_set(
            small_points, members, mis, self._probes(query, 4.0)
        )

    def test_a_random_small_guard_set_usually_fails(self, small_points):
        """A guard set that misses MIS members cannot guarantee validity."""
        query = Point(4.8, 5.2)
        members = knn_indexes(small_points, query, 3)
        mis = minimal_influential_set(small_points, members, reference=query)
        # Remove one MIS member: probes just beyond that neighbour's bisector
        # will report "still guarded" while the true kNN set changed.
        weakened = set(mis)
        weakened.discard(sorted(mis)[0])
        others = [i for i in range(len(small_points)) if i not in set(members)]
        assert not verify_influential_set(
            small_points,
            members,
            weakened,
            self._probes(query, 6.0, count=300),
        ) or weakened == mis

    def test_guard_overlapping_members_raises(self, small_points):
        with pytest.raises(QueryError):
            verify_influential_set(small_points, [0, 1], [1, 2], [Point(0, 0)])
