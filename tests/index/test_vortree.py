"""Tests for repro.index.vortree."""

import pytest

from repro.errors import EmptyDatasetError, QueryError
from repro.geometry.point import Point
from repro.geometry.delaunay import delaunay_neighbors
from repro.index.vortree import VoRTree
from repro.workloads.datasets import uniform_points


def brute_knn(points, query, k):
    order = sorted(range(len(points)), key=lambda i: (query.distance_squared_to(points[i]), i))
    return order[:k]


class TestConstruction:
    def test_requires_points(self):
        with pytest.raises(EmptyDatasetError):
            VoRTree([])

    def test_len_and_point_accessors(self, medium_points):
        tree = VoRTree(medium_points)
        assert len(tree) == len(medium_points)
        assert tree.point(3) == medium_points[3]
        assert tree.points == medium_points


class TestNeighborLists:
    def test_neighbor_lists_match_voronoi_diagram(self, small_points):
        tree = VoRTree(small_points)
        neighbor_map = delaunay_neighbors(small_points)
        for index in range(len(small_points)):
            assert tree.voronoi_neighbors(index) == neighbor_map[index]

    def test_neighbor_lists_are_read_only(self, small_points):
        """voronoi_neighbors returns the tree's own record, not a per-call copy."""
        tree = VoRTree(small_points)
        assert tree.voronoi_neighbors(0) is tree.voronoi_neighbors(0)


class TestRetrieval:
    def test_nearest_matches_brute_force(self, medium_points):
        tree = VoRTree(medium_points)
        query = Point(345.0, 678.0)
        assert tree.nearest(query, 9) == brute_knn(medium_points, query, 9)

    def test_nearest_validation(self, medium_points):
        tree = VoRTree(medium_points)
        with pytest.raises(QueryError):
            tree.nearest(Point(0, 0), 0)
        with pytest.raises(QueryError):
            tree.nearest(Point(0, 0), len(medium_points) + 1)

    def test_influential_neighbor_set_definition(self, medium_points):
        """I(R) = union of Voronoi neighbours of R, minus R (Definition 4)."""
        tree = VoRTree(medium_points)
        members = [5, 80, 120]
        expected = set()
        for member in members:
            expected |= tree.voronoi_neighbors(member)
        expected -= set(members)
        assert tree.influential_neighbor_set(members) == expected

    def test_retrieve_returns_consistent_pair(self, medium_points):
        tree = VoRTree(medium_points)
        query = Point(500.0, 500.0)
        nearest, ins, _ = tree.retrieve(query, 8)
        assert nearest == brute_knn(medium_points, query, 8)
        assert ins == tree.influential_neighbor_set(nearest)
        assert not (ins & set(nearest))
