"""Tests for the order-k network Voronoi decomposition (tests/order_k_reference.py)."""

import math

import pytest
import network_voronoi_reference as nvd

from repro.errors import QueryError
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects, ring_radial_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from order_k_reference import (
    cells_from_decomposition,
    network_mis,
    object_vertex_distances,
    order_k_edge_decomposition,
    order_k_set_at,
)
from repro.roadnet.shortest_path import distances_from_location


@pytest.fixture
def decorated_grid():
    """A 5x5 grid with 7 objects and precomputed object-vertex distances."""
    network = grid_network(5, 5, spacing=10.0)
    objects = place_objects(network, 7, seed=120)
    precomputed = object_vertex_distances(network, objects)
    return network, objects, precomputed


def brute_force_set_at(network, objects, location, k):
    vertex_distances = distances_from_location(network, location)
    pairs = sorted(
        (vertex_distances.get(vertex, math.inf), index) for index, vertex in enumerate(objects)
    )
    kth = pairs[k - 1][0]
    # Return every object within the k-th distance (tie-tolerant superset).
    return {index for distance, index in pairs if distance <= kth + 1e-9}, {
        index for distance, index in pairs if distance < kth - 1e-9
    }


class TestOrderKSetAt:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, decorated_grid, k):
        network, objects, precomputed = decorated_grid
        for edge in network.edges()[::5]:
            location = NetworkLocation(edge.edge_id, edge.length * 0.37)
            members = order_k_set_at(network, objects, location, k, precomputed=precomputed)
            allowed, required = brute_force_set_at(network, objects, location, k)
            assert len(members) == k
            assert members <= allowed
            assert required <= members

    def test_validation(self, decorated_grid):
        network, objects, precomputed = decorated_grid
        location = NetworkLocation(network.edges()[0].edge_id, 1.0)
        with pytest.raises(QueryError):
            order_k_set_at(network, objects, location, 0)
        with pytest.raises(QueryError):
            order_k_set_at(network, objects, location, len(objects) + 1)


class TestDecomposition:
    def test_intervals_cover_each_edge(self, decorated_grid):
        network, objects, precomputed = decorated_grid
        decomposition = order_k_edge_decomposition(network, objects, 2, precomputed=precomputed)
        for edge in network.edges():
            intervals = decomposition[edge.edge_id]
            assert intervals, f"edge {edge.edge_id} has no intervals"
            assert intervals[0].start == pytest.approx(0.0)
            assert intervals[-1].end == pytest.approx(edge.length)
            for first, second in zip(intervals, intervals[1:]):
                assert first.end == pytest.approx(second.start)
                assert first.members != second.members

    def test_interval_members_match_point_evaluation(self, decorated_grid):
        network, objects, precomputed = decorated_grid
        k = 2
        decomposition = order_k_edge_decomposition(network, objects, k, precomputed=precomputed)
        for edge in network.edges()[::7]:
            for interval in decomposition[edge.edge_id]:
                middle = (interval.start + interval.end) / 2.0
                location = NetworkLocation(edge.edge_id, middle)
                members = order_k_set_at(network, objects, location, k, precomputed=precomputed)
                assert members == interval.members

    def test_order_1_decomposition_matches_network_voronoi_ownership(self, decorated_grid):
        network, objects, precomputed = decorated_grid
        decomposition = order_k_edge_decomposition(network, objects, 1, precomputed=precomputed)
        diagram = NetworkVoronoiDiagram(network, objects)
        for edge in network.edges():
            ownership = nvd.edge_ownership(diagram, edge.edge_id)
            intervals = decomposition[edge.edge_id]
            interval_owner_vertices = {
                objects[next(iter(i.members))] for i in intervals
            }
            ownership_vertices = {objects[o] for o in ownership.owners()}
            # The interior owners found by the decomposition must be among
            # the NVD edge owners (the NVD may additionally list an owner
            # whose share of the edge degenerates to a single endpoint).
            assert interval_owner_vertices <= ownership_vertices
            if ownership.is_split and 1e-6 < ownership.border_offset < edge.length - 1e-6:
                # A genuinely split edge must show both owners in its
                # interior decomposition.
                assert interval_owner_vertices == ownership_vertices

    def test_cells_group_intervals(self, decorated_grid):
        network, objects, precomputed = decorated_grid
        decomposition = order_k_edge_decomposition(network, objects, 2, precomputed=precomputed)
        cells = cells_from_decomposition(decomposition)
        total_intervals = sum(len(v) for v in decomposition.values())
        assert sum(len(v) for v in cells.values()) == total_intervals
        assert all(len(members) == 2 for members in cells)


class TestNetworkMIS:
    def test_mis_is_nonempty_and_disjoint(self, decorated_grid):
        network, objects, precomputed = decorated_grid
        k = 2
        location = NetworkLocation(network.edges()[12].edge_id, 3.0)
        members = order_k_set_at(network, objects, location, k, precomputed=precomputed)
        mis = network_mis(network, objects, k, members, precomputed=precomputed)
        assert mis
        assert not (mis & members)

    def test_mis_subset_of_ins_theorem_1(self, decorated_grid):
        """Theorem 1: MIS(Oknn) ⊆ I(Oknn) on road networks."""
        network, objects, precomputed = decorated_grid
        diagram = NetworkVoronoiDiagram(network, objects)
        for k in (1, 2, 3):
            decomposition = order_k_edge_decomposition(
                network, objects, k, precomputed=precomputed
            )
            for edge in network.edges()[::6]:
                location = NetworkLocation(edge.edge_id, edge.length * 0.41)
                members = order_k_set_at(network, objects, location, k, precomputed=precomputed)
                mis = network_mis(
                    network, objects, k, members, decomposition=decomposition
                )
                ins = diagram.influential_neighbor_set(members)
                assert mis <= ins, (
                    f"Theorem 1 violated for k={k}, members={sorted(members)}: "
                    f"MIS={sorted(mis)} INS={sorted(ins)}"
                )

    def test_mis_on_ring_radial_network(self):
        network = ring_radial_network(3, 6, ring_spacing=10.0)
        objects = place_objects(network, 8, seed=121)
        precomputed = object_vertex_distances(network, objects)
        diagram = NetworkVoronoiDiagram(network, objects)
        k = 2
        decomposition = order_k_edge_decomposition(network, objects, k, precomputed=precomputed)
        edge = network.edges()[4]
        location = NetworkLocation(edge.edge_id, edge.length / 2.0)
        members = order_k_set_at(network, objects, location, k, precomputed=precomputed)
        mis = network_mis(network, objects, k, members, decomposition=decomposition)
        ins = diagram.influential_neighbor_set(members)
        assert mis <= ins

    def test_wrong_member_count_raises(self, decorated_grid):
        network, objects, precomputed = decorated_grid
        with pytest.raises(QueryError):
            network_mis(network, objects, 2, {0}, precomputed=precomputed)
