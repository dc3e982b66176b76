"""Tests for repro.roadnet.graph."""

import random

import pytest

from repro.errors import RoadNetworkError
from repro.geometry.point import Point
from repro.roadnet.graph import RoadNetwork


def triangle_network():
    """Three vertices connected in a triangle with explicit lengths."""
    network = RoadNetwork()
    a = network.add_vertex(Point(0, 0))
    b = network.add_vertex(Point(10, 0))
    c = network.add_vertex(Point(0, 10))
    network.add_edge(a, b, 10.0)
    network.add_edge(b, c, 15.0)
    network.add_edge(c, a, 10.0)
    return network, (a, b, c)


class TestConstruction:
    def test_vertex_and_edge_counts(self):
        network, _ = triangle_network()
        assert network.vertex_count == 3
        assert network.edge_count == 3
        assert network.total_length == pytest.approx(35.0)

    def test_default_edge_length_is_euclidean(self):
        network = RoadNetwork()
        a = network.add_vertex(Point(0, 0))
        b = network.add_vertex(Point(3, 4))
        edge_id = network.add_edge(a, b)
        assert network.edge(edge_id).length == pytest.approx(5.0)

    def test_edge_validation(self):
        network = RoadNetwork()
        a = network.add_vertex(Point(0, 0))
        b = network.add_vertex(Point(1, 0))
        with pytest.raises(RoadNetworkError):
            network.add_edge(a, 99)
        with pytest.raises(RoadNetworkError):
            network.add_edge(a, a)
        with pytest.raises(RoadNetworkError):
            network.add_edge(a, b, length=0.0)

    def test_has_vertex_and_has_vertices(self):
        network, (a, b, c) = triangle_network()
        assert network.has_vertex(a)
        assert not network.has_vertex(77)
        assert network.has_vertices([a, b, c])
        assert network.has_vertices([])
        assert not network.has_vertices([a, 77])

    def test_unknown_lookups_raise(self):
        network, _ = triangle_network()
        with pytest.raises(RoadNetworkError):
            network.vertex_position(77)
        with pytest.raises(RoadNetworkError):
            network.edge(77)
        with pytest.raises(RoadNetworkError):
            network.incident_edges(77)
        with pytest.raises(RoadNetworkError):
            network.degree(77)
        with pytest.raises(RoadNetworkError):
            network.neighbors(77)


class TestSharedAdjacency:
    """``neighbors()`` hands out the one adjacency store every search in the
    process iterates, so a caller must not be able to change it."""

    def test_the_returned_sequence_cannot_be_mutated(self):
        network, (a, b, c) = triangle_network()
        triples = network.neighbors(a)
        assert triples == ((b, 10.0, 0), (c, 10.0, 2))
        with pytest.raises((TypeError, AttributeError)):
            triples.append((b, 1.0, 9))
        with pytest.raises(TypeError):
            triples[0] = (c, 1.0, 9)
        with pytest.raises(TypeError):
            triples[0][1] = 1.0
        assert network.neighbors(a) == triples and network.degree(a) == 2

    def test_a_sequence_handed_out_earlier_is_not_grown_by_add_edge(self):
        network, (a, _, _) = triangle_network()
        before = network.neighbors(a)
        d = network.add_vertex(Point(5, 5))
        adjacency = network.adjacency()
        network.add_edge(a, d, 7.0)
        assert len(before) == 2
        assert network.neighbors(a) == before + ((d, 7.0, 3),)
        # The map the searches hold is live: it sees the new edge.
        assert adjacency[a] is network.neighbors(a)

    def test_accessors_agree_after_interleaved_construction(self):
        rng = random.Random(5)
        network = RoadNetwork()
        model = {}  # vertex -> [(neighbor, length, edge_id)] in insertion order
        for _ in range(40):
            model[network.add_vertex(Point(rng.random(), rng.random()))] = []
            for _ in range(rng.randrange(3)):
                u, v = rng.choice(list(model)), rng.choice(list(model))
                if u == v or network.find_edge(u, v) is not None:
                    continue
                length = rng.uniform(1.0, 9.0)
                edge_id = network.add_edge(u, v, length)
                model[u].append((v, length, edge_id))
                model[v].append((u, length, edge_id))
        adjacency = network.adjacency()
        assert adjacency.keys() == model.keys()
        for vertex, expected in model.items():
            assert list(network.neighbors(vertex)) == expected
            assert adjacency[vertex] is network.neighbors(vertex)
            assert network.degree(vertex) == len(expected)
            assert network.incident_edges(vertex) == [
                network.edge(edge_id) for _, _, edge_id in expected
            ]
            for other in model:
                found = network.find_edge(vertex, other)
                linked = [triple for triple in expected if triple[0] == other]
                assert (found is None) == (not linked)
                if found is not None:
                    assert found is network.edge(linked[0][2])
                    assert found.has_endpoint(vertex) and found.has_endpoint(other)


class TestTopology:
    def test_neighbors_and_degree(self):
        network, (a, b, c) = triangle_network()
        assert network.degree(a) == 2
        neighbor_vertices = {vertex for vertex, _, _ in network.neighbors(a)}
        assert neighbor_vertices == {b, c}

    def test_find_edge(self):
        network, (a, b, c) = triangle_network()
        assert network.find_edge(a, b) is not None
        assert network.find_edge(a, b).length == pytest.approx(10.0)
        isolated = network.add_vertex(Point(50, 50))
        assert network.find_edge(a, isolated) is None

    def test_connectivity(self):
        network, (a, _, _) = triangle_network()
        assert network.is_connected()
        network.add_vertex(Point(99, 99))  # isolated vertex
        assert not network.is_connected()
        assert a in network.connected_component(a)

    def test_empty_network_is_connected(self):
        assert RoadNetwork().is_connected()


class TestSubnetwork:
    def test_subnetwork_preserves_lengths_and_positions(self):
        network, (a, b, c) = triangle_network()
        edge_ab = network.find_edge(a, b).edge_id
        edge_bc = network.find_edge(b, c).edge_id
        sub, vertex_map, edge_map = network.subnetwork([edge_ab, edge_bc])
        assert sub.vertex_count == 3
        assert sub.edge_count == 2
        assert sub.edge(edge_map[edge_ab]).length == pytest.approx(10.0)
        assert sub.vertex_position(vertex_map[a]) == Point(0, 0)

    def test_subnetwork_of_single_edge(self):
        network, (a, b, _) = triangle_network()
        edge_ab = network.find_edge(a, b).edge_id
        sub, vertex_map, edge_map = network.subnetwork([edge_ab])
        assert sub.vertex_count == 2
        assert sub.edge_count == 1
        assert set(vertex_map) == {a, b}

    def test_subnetwork_round_trips(self):
        """Every kept edge comes back with its length and endpoints, through
        the maps, and the copy's adjacency is its own."""
        network, (a, b, c) = triangle_network()
        d = network.add_vertex(Point(10, 10))
        network.add_edge(c, d, 4.0)
        kept = [network.find_edge(c, d).edge_id, network.find_edge(a, b).edge_id]
        sub, vertex_map, edge_map = network.subnetwork(kept)
        assert set(edge_map) == set(kept) and set(vertex_map) == {a, b, c, d}
        back = {new: old for old, new in vertex_map.items()}
        edge_back = {new: old for old, new in edge_map.items()}
        for old_id, new_id in edge_map.items():
            old, new = network.edge(old_id), sub.edge(new_id)
            assert new.length == old.length
            assert {back[new.u], back[new.v]} == {old.u, old.v}
        for old_vertex, new_vertex in vertex_map.items():
            assert sub.vertex_position(new_vertex) == network.vertex_position(old_vertex)
            assert sorted(
                (back[n], length, edge_back[e])
                for n, length, e in sub.neighbors(new_vertex)
            ) == sorted(
                triple for triple in network.neighbors(old_vertex) if triple[2] in kept
            )
        assert not sub.is_connected() and network.degree(c) == 3

    def test_subnetwork_empty(self):
        network, _ = triangle_network()
        sub, vertex_map, edge_map = network.subnetwork([])
        assert sub.vertex_count == 0
        assert sub.edge_count == 0
