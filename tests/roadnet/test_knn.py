"""Tests for repro.roadnet.knn (incremental network expansion)."""

import math

import pytest

from repro.errors import QueryError, RoadNetworkError
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects, random_planar_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.knn import (
    network_knn,
    network_knn_from_vertex,
    object_distances_from_location,
)
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats, distances_from_location


def brute_force_network_knn(network, object_vertices, location, k):
    """Oracle: full Dijkstra from the location, then sort objects."""
    vertex_distances = distances_from_location(network, location)
    pairs = sorted(
        (vertex_distances.get(vertex, math.inf), index)
        for index, vertex in enumerate(object_vertices)
    )
    return pairs[:k]


class TestNetworkKNN:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_brute_force_on_grid(self, k):
        network = grid_network(6, 6, spacing=10.0)
        objects = place_objects(network, 12, seed=91)
        edge = network.edges()[20]
        location = NetworkLocation(edge.edge_id, edge.length / 4.0)
        expected = brute_force_network_knn(network, objects, location, k)
        got = network_knn(network, objects, location, k)
        # Distances must match exactly; on ties the identity may differ.
        assert [round(d, 9) for _, d in got] == [round(d, 9) for d, _ in expected]
        for (index, distance), (expected_distance, _) in zip(got, expected):
            vertex_distances = distances_from_location(network, location)
            assert vertex_distances[objects[index]] == pytest.approx(distance)

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_matches_brute_force_on_random_planar(self, k):
        network = random_planar_network(50, extent=500.0, seed=92)
        objects = place_objects(network, 15, seed=93)
        edge = network.edges()[7]
        location = NetworkLocation(edge.edge_id, edge.length * 0.6)
        expected = brute_force_network_knn(network, objects, location, k)
        got = network_knn(network, objects, location, k)
        assert [round(d, 6) for _, d in got] == [round(d, 6) for d, _ in expected]

    def test_results_are_sorted_by_distance(self):
        network = grid_network(5, 5, spacing=10.0)
        objects = place_objects(network, 10, seed=94)
        location = NetworkLocation(network.edges()[3].edge_id, 2.0)
        result = network_knn(network, objects, location, 6)
        distances = [d for _, d in result]
        assert distances == sorted(distances)

    def test_k_validation(self):
        network = grid_network(3, 3)
        objects = place_objects(network, 4, seed=95)
        location = NetworkLocation(network.edges()[0].edge_id, 1.0)
        with pytest.raises(QueryError):
            network_knn(network, objects, location, 0)
        with pytest.raises(QueryError):
            network_knn(network, objects, location, 5)

    def test_multiple_objects_on_one_vertex(self):
        network = grid_network(3, 3, spacing=10.0)
        objects = [0, 0, 8]  # two objects share vertex 0
        location = NetworkLocation(network.find_edge(0, 1).edge_id, 1.0)
        result = network_knn(network, objects, location, 2)
        assert {index for index, _ in result} == {0, 1}
        assert all(distance == pytest.approx(1.0) for _, distance in result)

    def test_from_vertex_wrapper(self):
        network = grid_network(4, 4, spacing=10.0)
        objects = place_objects(network, 8, seed=96)
        result = network_knn_from_vertex(network, objects, 5, 3)
        assert len(result) == 3
        assert result[0][1] <= result[1][1] <= result[2][1]

    def test_search_stats_accumulate(self):
        network = grid_network(6, 6, spacing=10.0)
        objects = place_objects(network, 12, seed=97)
        stats = SearchStats()
        location = NetworkLocation(network.edges()[0].edge_id, 1.0)
        network_knn(network, objects, location, 3, stats=stats)
        assert stats.searches == 1
        assert stats.settled_vertices > 0


class TestObjectDistances:
    def test_full_network_distances(self):
        network = grid_network(4, 4, spacing=10.0)
        objects = place_objects(network, 6, seed=98)
        location = NetworkLocation(network.edges()[2].edge_id, 3.0)
        distances = object_distances_from_location(
            network, objects, location, object_indexes=[4, 0, 2]
        )
        oracle = distances_from_location(network, location)
        assert distances == pytest.approx([oracle[objects[index]] for index in [4, 0, 2]])

    def test_query_edge_outside_the_region_is_rejected(self):
        network = grid_network(3, 3)
        objects = place_objects(network, 3, seed=99)
        diagram = NetworkVoronoiDiagram(network, objects)
        outside = next(e for e in network.edges() if e.edge_id not in diagram.cell_edges({0}))
        with pytest.raises(RoadNetworkError):
            object_distances_from_location(
                network,
                objects,
                NetworkLocation(outside.edge_id, 0.5),
                object_indexes=[0],
                owners=diagram.vertex_owners(),
                cells={0},
            )

    def test_region_distances_equal_the_materialised_subnetwork(self):
        network = grid_network(4, 4, spacing=10.0)
        objects = place_objects(network, 6, seed=98)
        diagram = NetworkVoronoiDiagram(network, objects)
        # Two cells of six: some objects are reached through them, some not.
        held = {0, 1}
        sub, vertex_map, edge_map = network.subnetwork(diagram.cell_edges(held))
        edge = network.edge(min(edge_map))
        location = NetworkLocation(edge.edge_id, 3.0)
        distances = object_distances_from_location(
            network,
            objects,
            location,
            object_indexes=range(6),
            owners=diagram.vertex_owners(),
            cells=held,
        )
        oracle = distances_from_location(sub, NetworkLocation(edge_map[location.edge_id], 3.0))
        assert distances == [oracle.get(vertex_map.get(vertex), math.inf) for vertex in objects]
        assert math.inf in distances and min(distances) < math.inf

    def test_unreachable_object_gets_infinity(self):
        network = RoadNetwork()
        a = network.add_vertex(Point(0, 0))
        b = network.add_vertex(Point(10, 0))
        c = network.add_vertex(Point(50, 50))
        d = network.add_vertex(Point(60, 50))
        network.add_edge(a, b)
        network.add_edge(c, d)
        objects = [b, c]
        location = NetworkLocation(network.find_edge(a, b).edge_id, 2.0)
        distances = object_distances_from_location(
            network, objects, location, object_indexes=[0, 1]
        )
        assert distances[0] == pytest.approx(8.0)
        assert distances[1] == math.inf
