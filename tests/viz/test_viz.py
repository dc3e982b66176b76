"""Tests for the ASCII demo renderers."""

import pytest

from repro.core.ins_euclidean import INSProcessor
from repro.core.ins_road import INSRoadProcessor
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.location import NetworkLocation
from repro.viz.ascii_network import render_network_state
from repro.viz.ascii_plane import render_plane_state
from repro.workloads.datasets import uniform_points
from repro.index.vortree import VoRTree
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram


class TestPlaneRenderer:
    def test_contains_expected_glyphs(self):
        points = uniform_points(40, extent=100.0, seed=260)
        processor = INSProcessor(VoRTree(points), k=3, rho=1.6)
        query = Point(50.0, 50.0)
        result = processor.initialize(query)
        rendering = render_plane_state(points, query, result.knn, result.guard_objects)
        assert "Q" in rendering
        assert "K" in rendering
        assert "legend" in rendering
        assert "VALID" in rendering

    def test_dimensions(self):
        points = uniform_points(10, extent=10.0, seed=261)
        rendering = render_plane_state(
            points, Point(5, 5), [0], [1], width=30, height=10, include_legend=False
        )
        lines = rendering.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 30 for line in lines)

    def test_invalid_state_is_reported(self):
        # Construct an artificial invalid state: the "kNN" object is far away
        # while the "INS" object is adjacent to the query.
        points = [Point(0, 0), Point(100, 100)]
        rendering = render_plane_state(points, Point(1, 1), knn=[1], ins=[0])
        assert "INVALID" in rendering


class TestNetworkRenderer:
    def test_contains_expected_glyphs(self):
        network = grid_network(5, 5, spacing=10.0)
        objects = place_objects(network, 8, seed=262)
        processor = INSRoadProcessor(NetworkVoronoiDiagram(network, objects), k=3, rho=1.6)
        edge = network.edges()[7]
        location = NetworkLocation(edge.edge_id, edge.length / 2.0)
        result = processor.initialize(location)
        rendering = render_network_state(
            network, objects, location, result.knn, result.guard_objects
        )
        assert "Q" in rendering
        assert "K" in rendering
        assert "+" in rendering
        assert "legend" in rendering

    def test_dimensions(self):
        network = grid_network(3, 3, spacing=10.0)
        objects = place_objects(network, 3, seed=263)
        location = NetworkLocation(network.edges()[0].edge_id, 1.0)
        rendering = render_network_state(
            network, objects, location, [0], [1], width=40, height=12, include_legend=False
        )
        lines = rendering.splitlines()
        assert len(lines) == 12
        assert all(len(line) == 40 for line in lines)
