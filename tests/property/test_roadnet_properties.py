"""Property-based tests for the road-network substrate (hypothesis)."""

import math
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st
import network_voronoi_reference as nvd

from repro.errors import RoadNetworkError
from repro.roadnet.generators import grid_network, place_objects, random_planar_network
from repro.roadnet.knn import network_knn, object_distances_from_location
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import dijkstra, distances_from_location


def to_networkx(network):
    graph = nx.Graph()
    for vertex in network.vertices():
        graph.add_node(vertex)
    for edge in network.edges():
        if graph.has_edge(edge.u, edge.v):
            graph[edge.u][edge.v]["weight"] = min(graph[edge.u][edge.v]["weight"], edge.length)
        else:
            graph.add_edge(edge.u, edge.v, weight=edge.length)
    return graph


network_strategy = st.builds(
    random_planar_network,
    vertex_count=st.integers(min_value=8, max_value=35),
    extent=st.just(500.0),
    removal_fraction=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=10_000),
)


# Uniform grids: every edge has the same length, so equal-distance ties —
# where a heap ordered by vertex id could make the filtered search and the
# re-identified copy disagree — are everywhere.
grid_strategy = st.builds(
    grid_network,
    rows=st.integers(min_value=3, max_value=7),
    columns=st.integers(min_value=3, max_value=7),
    spacing=st.just(100.0),
)


def _churned(network, objects, seed, epochs=4):
    """A diagram after ``epochs`` incremental batches (an insert, a delete and
    a move each — far below the bulk threshold)."""
    rng = random.Random(seed)
    diagram = NetworkVoronoiDiagram(network, objects)
    vertices = network.vertices()
    for _ in range(epochs):
        victim, mover = rng.sample(diagram.active_indexes(), 2)
        diagram.batch_update(
            [rng.choice(vertices)], [victim], [(mover, rng.choice(vertices))]
        )
    return diagram


class TestTheorem2Filter:
    """The owner lookup (relax an edge iff the owner of one of its endpoints
    is held, on the shared network) is the search on the materialised
    ``subnetwork(diagram.cell_edges(held))``, float for float — on a fresh
    diagram and after incremental repairs, so the owner map and the owner →
    edges index agree after every repair."""

    @given(
        st.one_of(network_strategy, grid_strategy),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=1_000_000),
        st.floats(min_value=0.0, max_value=1.0),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=600.0)),
        st.sampled_from(["fresh", "churned"]),
    )
    @settings(max_examples=90, deadline=None)
    def test_filtered_search_equals_search_on_the_copy(
        self, network, object_seed, held_count, edge_pick, fraction, radius, history
    ):
        objects = place_objects(network, min(8, network.vertex_count - 1), seed=object_seed)
        if history == "fresh":
            diagram = NetworkVoronoiDiagram(network, objects)
        else:
            diagram = _churned(network, objects, object_seed)
        objects = diagram.vertex_assignments
        held = set(diagram.active_indexes()[:held_count])
        owners = diagram.vertex_owners()
        region = diagram.cell_edges(held)
        assume(region)  # a held twin that is not its vertex's label owns no cell
        sub, vertex_map, edge_map = network.subnetwork(region)
        radius = math.inf if radius is None else radius
        edge = network.edge(sorted(region)[edge_pick % len(region)])
        offset = edge.length * fraction
        here = NetworkLocation(edge.edge_id, offset)
        there = NetworkLocation(edge_map[edge.edge_id], offset)

        # Exhaustive (up to the radius): the same vertices at the same floats.
        filtered = distances_from_location(
            network, here, radius=radius, owners=owners, cells=held
        )
        copied = distances_from_location(sub, there, radius=radius)
        assert {vertex_map[v]: d for v, d in filtered.items()} == copied

        # Targeted, every object a target: a search stops when its targets
        # are settled, so only they are promised — inf past the radius, and
        # inf for an object whose vertex no region edge touches.
        distances = object_distances_from_location(
            network, objects, here, range(len(objects)), owners=owners, cells=held
        )
        inside = {vertex_map[v] for v in objects if v in vertex_map}
        targeted = distances_from_location(sub, there, targets=inside, radius=radius)
        for index, vertex in enumerate(objects):
            expected = targeted.get(vertex_map.get(vertex), math.inf)
            if expected <= radius:
                assert distances[index] == expected
            else:
                assert distances[index] > radius

        # A query on an edge outside the region is refused, not answered
        # (the processor falls back to the full network before asking).
        outside = [e.edge_id for e in network.edges() if e.edge_id not in region]
        if outside:
            elsewhere = NetworkLocation(outside[edge_pick % len(outside)], 0.0)
            with pytest.raises(RoadNetworkError):
                distances_from_location(network, elsewhere, owners=owners, cells=held)


class TestShortestPathProperties:
    @given(network_strategy, st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=25, deadline=None)
    def test_dijkstra_matches_networkx(self, network, source_pick):
        vertices = network.vertices()
        source = vertices[source_pick % len(vertices)]
        reference = nx.single_source_dijkstra_path_length(to_networkx(network), source)
        computed = dijkstra(network, source)
        assert computed.keys() == reference.keys()
        for vertex, distance in reference.items():
            assert math.isclose(computed[vertex], distance, rel_tol=1e-9, abs_tol=1e-9)

    @given(network_strategy, st.integers(min_value=0, max_value=1_000_000), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_location_distances_satisfy_triangle_inequality(self, network, edge_pick, fraction):
        edges = network.edges()
        edge = edges[edge_pick % len(edges)]
        location = NetworkLocation(edge.edge_id, edge.length * fraction)
        distances = distances_from_location(network, location)
        # Distance to each endpoint must not exceed the direct along-edge distance.
        assert distances[edge.u] <= edge.length * fraction + 1e-9
        assert distances[edge.v] <= edge.length * (1.0 - fraction) + 1e-9
        # Adjacent vertices differ by at most the connecting edge length.
        for e in edges:
            if e.u in distances and e.v in distances:
                assert abs(distances[e.u] - distances[e.v]) <= e.length + 1e-9


class TestNetworkKNNProperties:
    @given(
        network_strategy,
        st.integers(min_value=0, max_value=1_000_000),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_knn_distances_match_full_dijkstra(self, network, edge_pick, fraction, k, object_seed):
        object_count = min(8, network.vertex_count - 1)
        assume(object_count >= k)
        objects = place_objects(network, object_count, seed=object_seed)
        edges = network.edges()
        edge = edges[edge_pick % len(edges)]
        location = NetworkLocation(edge.edge_id, edge.length * fraction)
        result = network_knn(network, objects, location, k)
        vertex_distances = distances_from_location(network, location)
        expected = sorted(
            vertex_distances.get(vertex, math.inf) for vertex in objects
        )[:k]
        got = [distance for _, distance in result]
        for g, e in zip(got, expected):
            assert math.isclose(g, e, rel_tol=1e-9, abs_tol=1e-9)


class TestNetworkVoronoiProperties:
    @given(network_strategy, st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_vertex_owners_minimize_distance(self, network, object_seed, object_count):
        object_count = min(object_count, network.vertex_count - 1)
        assume(object_count >= 2)
        objects = place_objects(network, object_count, seed=object_seed)
        diagram = NetworkVoronoiDiagram(network, objects)
        per_object = [dijkstra(network, vertex) for vertex in objects]
        for vertex in network.vertices():
            best = min(per_object[i].get(vertex, math.inf) for i in range(object_count))
            assert math.isclose(nvd.vertex_distance(diagram, vertex), best, rel_tol=1e-9, abs_tol=1e-9)

    @given(network_strategy, st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_neighbor_map_symmetry_and_cell_length_conservation(
        self, network, object_seed, object_count
    ):
        object_count = min(object_count, network.vertex_count - 1)
        assume(object_count >= 2)
        objects = place_objects(network, object_count, seed=object_seed)
        diagram = NetworkVoronoiDiagram(network, objects)
        neighbor_map = nvd.neighbor_map(diagram)
        for index, neighbors in neighbor_map.items():
            for other in neighbors:
                assert index in neighbor_map[other]
        total = sum(nvd.cell_length(diagram, i) for i in range(object_count))
        assert math.isclose(total, network.total_length, rel_tol=1e-9)
