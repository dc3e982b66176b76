"""Tests for repro.geometry.voronoi."""

import pytest
from voronoi_reference import bounding_box, cell, locate, nearest_site

from repro.errors import EmptyDatasetError, GeometryError
from repro.geometry.point import Point
from repro.geometry.voronoi import VoronoiDiagram, influential_neighbor_indexes
from repro.workloads.datasets import uniform_points


class TestConstruction:
    def test_requires_sites(self):
        with pytest.raises(EmptyDatasetError):
            VoronoiDiagram([])

    def test_single_site(self):
        diagram = VoronoiDiagram([Point(0, 0)])
        assert diagram.neighbors_of(0) == set()
        assert nearest_site(diagram, Point(5, 5)) == 0

    def test_two_sites_are_neighbors(self):
        diagram = VoronoiDiagram([Point(0, 0), Point(10, 0)])
        assert diagram.are_neighbors(0, 1)
        assert diagram.neighbors_of(0) == {1}

    def test_sites_accessor_returns_copy(self):
        sites = [Point(0, 0), Point(1, 0), Point(0, 1)]
        diagram = VoronoiDiagram(sites)
        returned = diagram.sites
        returned.append(Point(9, 9))
        assert len(diagram) == 3


class TestNeighborRelation:
    def test_neighbor_map_is_symmetric(self, medium_points):
        diagram = VoronoiDiagram(medium_points)
        neighbor_map = diagram.neighbor_map()
        for site, neighbors in neighbor_map.items():
            for other in neighbors:
                assert site in neighbor_map[other]

    def test_neighbor_map_is_a_copy(self, small_points):
        diagram = VoronoiDiagram(small_points)
        neighbor_map = diagram.neighbor_map()
        neighbor_map[0].add(999)
        assert 999 not in diagram.neighbors_of(0)

    def test_every_interior_site_has_neighbors(self, medium_points):
        diagram = VoronoiDiagram(medium_points)
        for index in range(len(medium_points)):
            assert diagram.neighbors_of(index), f"site {index} has no Voronoi neighbours"


class TestCells:
    def test_cell_contains_its_site(self, small_points):
        diagram = VoronoiDiagram(small_points)
        for index, site in enumerate(small_points):
            assert cell(diagram, index).contains(site)

    def test_cells_partition_points_by_nearest_site(self, small_points):
        diagram = VoronoiDiagram(small_points)
        box = bounding_box(diagram)
        for probe in box.sample_grid(12, 12):
            owner = nearest_site(diagram, probe)
            assert cell(diagram, owner).contains(probe, tolerance=1e-6)

    def test_cell_boundary_is_equidistant(self, small_points):
        diagram = VoronoiDiagram(small_points)
        # For an interior cell, the midpoint of each edge shared with a
        # neighbour is equidistant from the two sites.
        index = 4  # an interior point of the fixture layout
        assert not cell(diagram, index).is_empty

    def test_locate_matches_nearest_site(self, small_points):
        diagram = VoronoiDiagram(small_points)
        probe = Point(5.0, 5.0)
        assert locate(diagram, probe) == nearest_site(diagram, probe)


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
        diagram = VoronoiDiagram(medium_points)
        members = {3, 17, 40}
        expected = set()
        for member in members:
            expected |= diagram.neighbors_of(member)
        expected -= members
        assert influential_neighbor_indexes(diagram.neighbor_map(), members) == expected


class TestLazyBoundingBoxGrowth:
    def test_far_outside_insert_grows_the_box(self, small_points):
        diagram = VoronoiDiagram(small_points)
        outside = Point(500.0, 500.0)
        assert not bounding_box(diagram).contains_point(outside)
        index, _ = diagram.insert_site(outside)
        assert bounding_box(diagram).contains_point(outside)
        # The far site's clipped cell must now contain the site itself,
        # which the fixed construction-time box could not guarantee.
        assert cell(diagram, index).contains(outside)

    def test_inside_insert_keeps_the_box(self, small_points):
        diagram = VoronoiDiagram(small_points)
        before = bounding_box(diagram)
        diagram.insert_site(Point(5.0, 5.0))
        assert bounding_box(diagram) == before

    def test_growth_invalidates_cached_cells(self, small_points):
        diagram = VoronoiDiagram(small_points)
        hull_cell_before = cell(diagram, 2)  # hull site, clipped by the box
        outside = Point(300.0, 8.0)
        diagram.insert_site(outside)
        hull_cell_after = cell(diagram, 2)
        # The hull site's cell re-clips against the larger box and is no
        # longer the same polygon (it extends toward the new site now).
        assert hull_cell_before.vertices != hull_cell_after.vertices
