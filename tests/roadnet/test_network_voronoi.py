"""Tests for repro.roadnet.network_voronoi."""

import pytest
import network_voronoi_reference as nvd

from repro.errors import EmptyDatasetError, RoadNetworkError
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects, random_planar_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import dijkstra


class TestConstruction:
    def test_requires_objects(self):
        with pytest.raises(EmptyDatasetError):
            NetworkVoronoiDiagram(grid_network(2, 2), [])

    def test_unknown_object_vertex_raises(self):
        with pytest.raises(RoadNetworkError):
            NetworkVoronoiDiagram(grid_network(2, 2), [999])

    def test_object_count(self):
        network = grid_network(4, 4)
        objects = place_objects(network, 5, seed=100)
        diagram = NetworkVoronoiDiagram(network, objects)
        assert diagram.object_count() == 5
        assert diagram.object_vertices == objects


class TestVertexOwnership:
    def test_each_vertex_owned_by_its_nearest_object(self):
        network = grid_network(6, 6, spacing=10.0)
        objects = place_objects(network, 8, seed=101)
        diagram = NetworkVoronoiDiagram(network, objects)
        per_object = [dijkstra(network, vertex) for vertex in objects]
        for vertex in network.vertices():
            owner = nvd.vertex_owner(diagram, vertex)
            owner_distance = nvd.vertex_distance(diagram, vertex)
            best = min(per_object[i][vertex] for i in range(len(objects)))
            assert owner_distance == pytest.approx(best)
            assert per_object[owner][vertex] == pytest.approx(best)

    def test_object_vertices_own_themselves(self):
        network = grid_network(5, 5, spacing=10.0)
        objects = place_objects(network, 6, seed=102)
        diagram = NetworkVoronoiDiagram(network, objects)
        for index, vertex in enumerate(objects):
            assert nvd.vertex_distance(diagram, vertex) == pytest.approx(0.0)
            # The owner is an object at the same vertex (itself unless co-located).
            assert objects[nvd.vertex_owner(diagram, vertex)] == vertex


class TestEdgeOwnership:
    def test_split_edges_have_border_inside_the_edge(self):
        network = grid_network(6, 6, spacing=10.0)
        objects = place_objects(network, 6, seed=103)
        diagram = NetworkVoronoiDiagram(network, objects)
        found_split = False
        for edge in network.edges():
            ownership = nvd.edge_ownership(diagram, edge.edge_id)
            assert ownership is not None
            if ownership.is_split:
                found_split = True
                assert 0.0 <= ownership.border_offset <= edge.length
                # At the border point, the distances through the two owners
                # are equal.
                du = nvd.vertex_distance(diagram, edge.u) + ownership.border_offset
                dv = nvd.vertex_distance(diagram, edge.v) + (edge.length - ownership.border_offset)
                assert du == pytest.approx(dv)
        assert found_split, "expected at least one edge shared between two cells"

    def test_cell_lengths_sum_to_network_length(self):
        network = grid_network(5, 5, spacing=10.0)
        objects = place_objects(network, 5, seed=104)
        diagram = NetworkVoronoiDiagram(network, objects)
        total = sum(nvd.cell_length(diagram, i) for i in range(len(objects)))
        assert total == pytest.approx(network.total_length)


class TestNeighborRelation:
    def test_neighbor_map_is_symmetric(self):
        network = random_planar_network(40, extent=400.0, seed=105)
        objects = place_objects(network, 10, seed=106)
        diagram = NetworkVoronoiDiagram(network, objects)
        neighbor_map = nvd.neighbor_map(diagram)
        for index, neighbors in neighbor_map.items():
            assert index not in neighbors
            for other in neighbors:
                assert index in neighbor_map[other]

    def test_split_edge_owners_are_neighbors(self):
        network = grid_network(6, 6, spacing=10.0)
        objects = place_objects(network, 7, seed=107)
        diagram = NetworkVoronoiDiagram(network, objects)
        for edge in network.edges():
            ownership = nvd.edge_ownership(diagram, edge.edge_id)
            if ownership.is_split:
                assert ownership.owner_v in diagram.neighbors_of(ownership.owner_u)

    def test_every_object_has_a_neighbor_when_multiple_objects(self):
        network = grid_network(5, 5, spacing=10.0)
        objects = place_objects(network, 6, seed=108)
        diagram = NetworkVoronoiDiagram(network, objects)
        for index in range(len(objects)):
            assert diagram.neighbors_of(index)

    def test_colocated_objects_are_neighbors_and_share_neighbors(self):
        network = grid_network(4, 4, spacing=10.0)
        objects = [0, 0, 15]
        diagram = NetworkVoronoiDiagram(network, objects)
        assert 1 in diagram.neighbors_of(0)
        assert 0 in diagram.neighbors_of(1)
        assert diagram.neighbors_of(0) - {1} == diagram.neighbors_of(1) - {0}

    def test_influential_neighbor_set(self):
        network = grid_network(6, 6, spacing=10.0)
        objects = place_objects(network, 9, seed=109)
        diagram = NetworkVoronoiDiagram(network, objects)
        members = {0, 3}
        ins = diagram.influential_neighbor_set(members)
        expected = (diagram.neighbors_of(0) | diagram.neighbors_of(3)) - members
        assert ins == expected


class TestCellEdges:
    """The Theorem 2 region of a set of objects: the edges of their cells."""

    def test_region_covers_cells(self):
        network = grid_network(6, 6, spacing=10.0)
        objects = place_objects(network, 8, seed=110)
        diagram = NetworkVoronoiDiagram(network, objects)
        members = {0, 1}
        region = diagram.cell_edges(members)
        # Every edge owned (even partially) by a member must be present.
        for edge in network.edges():
            ownership = nvd.edge_ownership(diagram, edge.edge_id)
            assert (edge.edge_id in region) == bool(ownership.owners() & members)
        # The member objects' vertices must touch the region, and survive
        # into its materialised form.
        _, vertex_map, edge_map = network.subnetwork(region)
        assert set(edge_map) == region
        for index in members:
            assert objects[index] in vertex_map

    def test_region_is_smaller_than_network(self):
        network = grid_network(10, 10, spacing=10.0)
        objects = place_objects(network, 20, seed=111)
        diagram = NetworkVoronoiDiagram(network, objects)
        assert 0 < len(diagram.cell_edges({0})) < network.edge_count
