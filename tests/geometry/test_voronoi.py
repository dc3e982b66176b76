"""Tests for repro.geometry.voronoi: Definition 4 over the order-1 Voronoi
neighbour lists, and the lists themselves — the triangulation's map and the
VoR-tree's cells (drawn by ``tests/voronoi_reference.py``)."""

import pytest
from voronoi_reference import bounding_box, cell, locate, nearest_site

from repro.errors import GeometryError
from repro.geometry.delaunay import DelaunayTriangulation, delaunay_neighbors
from repro.geometry.point import Point
from repro.geometry.voronoi import influential_neighbor_indexes
from repro.index.vortree import VoRTree
from repro.workloads.datasets import uniform_points


class TestConstruction:
    def test_no_sites_no_neighbours(self):
        assert delaunay_neighbors([]) == {}

    def test_single_site(self):
        tree = VoRTree([Point(0, 0)])
        assert tree.voronoi is None
        assert tree.voronoi_neighbors(0) == set()
        assert nearest_site(tree, Point(5, 5)) == 0

    def test_two_sites_are_neighbors(self):
        tree = VoRTree([Point(0, 0), Point(10, 0)])
        assert tree.voronoi is None  # the chain: no dual
        assert tree.voronoi_neighbors(0) == {1}
        assert delaunay_neighbors([Point(0, 0), Point(10, 0)]) == {0: {1}, 1: {0}}


class TestNeighborRelation:
    def test_neighbor_map_is_symmetric(self, medium_points):
        neighbor_map = delaunay_neighbors(medium_points)
        for site, neighbors in neighbor_map.items():
            for other in neighbors:
                assert site in neighbor_map[other]

    def test_neighbor_map_is_a_copy(self, small_points):
        triangulation = DelaunayTriangulation(small_points)
        neighbor_map = triangulation.neighbors()
        neighbor_map[0].add(999)
        assert 999 not in triangulation.neighbors_of(0)

    def test_every_interior_site_has_neighbors(self, medium_points):
        tree = VoRTree(medium_points)
        for index in range(len(medium_points)):
            assert tree.voronoi_neighbors(index), f"site {index} has no Voronoi neighbours"


class TestCells:
    def test_cell_contains_its_site(self, small_points):
        tree = VoRTree(small_points)
        for index, site in enumerate(small_points):
            assert cell(tree, index).contains(site)

    def test_cells_partition_points_by_nearest_site(self, small_points):
        tree = VoRTree(small_points)
        box = bounding_box(tree)
        for probe in box.sample_grid(12, 12):
            owner = nearest_site(tree, probe)
            assert cell(tree, owner).contains(probe, tolerance=1e-6)

    def test_cell_boundary_is_equidistant(self, small_points):
        tree = VoRTree(small_points)
        # For an interior cell, the midpoint of each edge shared with a
        # neighbour is equidistant from the two sites.
        index = 4  # an interior point of the fixture layout
        assert not cell(tree, index).is_empty

    def test_locate_matches_nearest_site(self, small_points):
        tree = VoRTree(small_points)
        probe = Point(5.0, 5.0)
        assert locate(tree, probe) == nearest_site(tree, probe)


class TestInfluentialNeighborIndexes:
    def test_union_of_neighbors_minus_members(self):
        neighbor_map = {0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2}}
        assert influential_neighbor_indexes(neighbor_map, [0, 1]) == {2, 3}

    def test_members_are_excluded(self):
        neighbor_map = {0: {1}, 1: {0}}
        assert influential_neighbor_indexes(neighbor_map, [0, 1]) == set()

    def test_unknown_member_raises(self):
        with pytest.raises(GeometryError):
            influential_neighbor_indexes({0: set()}, [5])

    def test_matches_diagram_neighbors(self, medium_points):
        tree = VoRTree(medium_points)
        members = {3, 17, 40}
        expected = set()
        for member in members:
            expected |= tree.voronoi_neighbors(member)
        expected -= members
        assert influential_neighbor_indexes(delaunay_neighbors(medium_points), members) == expected


class TestLazyBoundingBoxGrowth:
    def test_far_outside_insert_grows_the_box(self, small_points):
        tree = VoRTree(small_points)
        outside = Point(500.0, 500.0)
        assert not bounding_box(tree).contains_point(outside)
        index, _ = tree.insert(outside)
        assert bounding_box(tree).contains_point(outside)
        # The far site's clipped cell must now contain the site itself,
        # which the fixed construction-time box could not guarantee.
        assert cell(tree, index).contains(outside)

    def test_inside_insert_keeps_the_box(self, small_points):
        tree = VoRTree(small_points)
        before = bounding_box(tree)
        tree.insert(Point(5.0, 5.0))
        assert bounding_box(tree) == before

    def test_growth_invalidates_cached_cells(self, small_points):
        tree = VoRTree(small_points)
        hull_cell_before = cell(tree, 2)  # hull site, clipped by the box
        outside = Point(300.0, 8.0)
        tree.insert(outside)
        hull_cell_after = cell(tree, 2)
        # The hull site's cell re-clips against the larger box and is no
        # longer the same polygon (it extends toward the new site now).
        assert hull_cell_before.vertices != hull_cell_after.vertices
