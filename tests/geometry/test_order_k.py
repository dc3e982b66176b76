"""Tests for repro.geometry.order_k (order-k Voronoi cells and the MIS)."""

import pytest
import voronoi_reference

from repro.errors import GeometryError
from repro.geometry.delaunay import delaunay_neighbors
from repro.geometry.order_k import (
    knn_indexes,
    order_k_cell,
    order_k_cell_of_query,
)
from repro.geometry.point import Point
from repro.geometry.voronoi import influential_neighbor_indexes
from repro.index.vortree import VoRTree
from repro.workloads.datasets import uniform_points


class TestKnnIndexes:
    def test_simple_ordering(self):
        points = [Point(0, 0), Point(1, 0), Point(5, 0)]
        assert knn_indexes(points, Point(0.4, 0), 2) == [0, 1]

    def test_k_validation(self):
        points = [Point(0, 0), Point(1, 0)]
        with pytest.raises(GeometryError):
            knn_indexes(points, Point(0, 0), 0)
        with pytest.raises(GeometryError):
            knn_indexes(points, Point(0, 0), 3)


class TestOrderKCellGeometry:
    def test_order_1_cell_matches_voronoi_cell(self, small_points):
        tree = VoRTree(small_points)
        index = 4
        cell = order_k_cell(
            small_points, [index], reference=small_points[index],
            bounding_box=voronoi_reference.bounding_box(tree),
        )
        voronoi_cell = voronoi_reference.cell(tree, index)
        assert cell.polygon.area == pytest.approx(voronoi_cell.area, rel=1e-6)

    def test_cell_contains_query_whose_knn_it_is(self, small_points):
        query = Point(4.8, 5.2)
        cell = order_k_cell_of_query(small_points, query, 3)
        assert cell.contains(query)

    def test_every_point_of_the_cell_shares_the_knn_set(self, small_points):
        query = Point(4.8, 5.2)
        k = 3
        cell = order_k_cell_of_query(small_points, query, k)
        members = set(cell.member_indexes)
        box = cell.polygon.bounding_box()
        for probe in box.sample_grid(15, 15):
            if cell.polygon.contains(probe, tolerance=-1e-9):
                continue
            if not cell.polygon.contains(probe):
                continue
            # Allow boundary ties: the k nearest must either equal the member
            # set or the probe must be within tolerance of a tie.
            probe_knn = set(knn_indexes(small_points, probe, k))
            if probe_knn != members:
                distances = sorted(probe.distance_to(p) for p in small_points)
                assert distances[k] - distances[k - 1] < 1e-6
            else:
                assert probe_knn == members

    def test_points_outside_the_cell_have_different_knn(self, small_points):
        query = Point(4.8, 5.2)
        k = 3
        cell = order_k_cell_of_query(small_points, query, k)
        members = set(cell.member_indexes)
        # Probe points clearly outside the cell (far corners of the layout).
        for probe in [Point(0.5, 0.5), Point(9.0, 9.0), Point(9.0, 0.5)]:
            assert not cell.contains(probe)
            assert set(knn_indexes(small_points, probe, k)) != members

    def test_empty_member_set_raises(self, small_points):
        with pytest.raises(GeometryError):
            order_k_cell(small_points, [])

    def test_out_of_range_member_raises(self, small_points):
        with pytest.raises(GeometryError):
            order_k_cell(small_points, [99])

    def test_non_knn_member_set_yields_empty_or_small_cell(self, small_points):
        # A member set consisting of mutually far-apart objects is nobody's
        # kNN set, so its order-k cell is empty.
        cell = order_k_cell(small_points, [0, 11, 8])
        assert cell.polygon.is_empty or cell.polygon.area < 1e-6


class TestMinimalInfluentialSet:
    def test_mis_members_are_not_cell_members(self, small_points):
        cell = order_k_cell_of_query(small_points, Point(4.8, 5.2), 3)
        assert not (set(cell.mis_indexes) & set(cell.member_indexes))

    def test_mis_is_subset_of_ins(self, small_points):
        """The paper's key structural claim (proved in [3], used by Thm 1)."""
        neighbor_map = delaunay_neighbors(small_points)
        for query in [Point(4.8, 5.2), Point(3.0, 7.0), Point(6.5, 2.5)]:
            for k in (2, 3, 4):
                cell = order_k_cell_of_query(small_points, query, k)
                ins = influential_neighbor_indexes(neighbor_map, cell.member_indexes)
                assert set(cell.mis_indexes) <= ins

    def test_mis_on_random_data(self):
        points = uniform_points(80, extent=1_000.0, seed=21)
        neighbor_map = delaunay_neighbors(points)
        for seed, k in [(1, 2), (2, 3), (3, 5)]:
            query = Point(300.0 + 100 * seed, 400.0 + 60 * seed)
            cell = order_k_cell_of_query(points, query, k)
            ins = influential_neighbor_indexes(neighbor_map, cell.member_indexes)
            assert set(cell.mis_indexes) <= ins
            # An interior query's cell should have a non-empty MIS.
            if not cell.clipped_by_box:
                assert cell.mis_indexes

    def test_crossing_a_mis_bisector_swaps_exactly_one_member(self):
        points = uniform_points(60, extent=1_000.0, seed=22)
        query = Point(500.0, 500.0)
        k = 3
        cell = order_k_cell_of_query(points, query, k)
        members = set(cell.member_indexes)
        # Take a point slightly beyond each non-box edge midpoint: its kNN
        # set must differ from the cell's members by exactly one object (the
        # incoming one being a MIS member).
        for edge in cell.polygon.edges():
            mid = edge.midpoint()
            distances = sorted(mid.distance_to(p) for p in points)
            if distances[k] - distances[k - 1] > 1e-5:
                continue  # a clipping-box edge, not a bisector edge
            outward = Point(
                mid.x + (mid.x - query.x) * 1e-3,
                mid.y + (mid.y - query.y) * 1e-3,
            )
            outside_knn = set(knn_indexes(points, outward, k))
            if outside_knn == members:
                continue  # numerically still inside; skip
            difference = outside_knn - members
            assert len(difference) == 1
            assert difference <= set(cell.mis_indexes)


class TestConstructionCostAccounting:
    def test_examined_objects_is_bounded_by_dataset(self, medium_points):
        cell = order_k_cell_of_query(medium_points, Point(500, 500), 4)
        assert 0 < cell.examined_objects <= len(medium_points)

    def test_examined_objects_much_smaller_than_dataset_for_dense_data(self):
        points = uniform_points(800, extent=1_000.0, seed=30)
        cell = order_k_cell_of_query(points, Point(500, 500), 4)
        # The distance-bound pruning must avoid scanning most of the data.
        assert cell.examined_objects < len(points) / 4
