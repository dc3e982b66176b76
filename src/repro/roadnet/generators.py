"""Synthetic road-network generators.

The paper's demonstration loads real maps; this reproduction ships no map
data, so experiments run on synthetic road networks that exercise the same
code paths:

* :func:`grid_network` — a Manhattan-style grid, the workhorse of the
  road-network experiments,
* :func:`ring_radial_network` — a ring-and-spoke city layout, giving highly
  non-uniform vertex degrees and edge lengths,
* :func:`random_planar_network` — Delaunay triangulation of random points
  with a fraction of edges removed (while keeping the network connected),
  giving an irregular planar graph similar in spirit to extracted road maps.

All generators return a connected :class:`~repro.roadnet.graph.RoadNetwork`.
:func:`place_objects` places data objects on distinct random vertices.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, RoadNetworkError
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.point import Point
from repro.roadnet.graph import RoadNetwork


def grid_network(rows: int, columns: int, spacing: float = 100.0) -> RoadNetwork:
    """A ``rows`` x ``columns`` grid of vertices connected in a lattice.

    Args:
        rows: number of vertex rows (>= 2).
        columns: number of vertex columns (>= 2).
        spacing: distance between adjacent vertices.
    """
    if rows < 2 or columns < 2:
        raise ConfigurationError("grid_network requires at least 2 rows and 2 columns")
    if spacing <= 0:
        raise ConfigurationError("spacing must be positive")
    network = RoadNetwork()
    vertex_ids: Dict[Tuple[int, int], int] = {}
    for row in range(rows):
        for column in range(columns):
            vertex_ids[(row, column)] = network.add_vertex(
                Point(column * spacing, row * spacing)
            )
    for row in range(rows):
        for column in range(columns):
            if column + 1 < columns:
                network.add_edge(vertex_ids[(row, column)], vertex_ids[(row, column + 1)])
            if row + 1 < rows:
                network.add_edge(vertex_ids[(row, column)], vertex_ids[(row + 1, column)])
    return network


def ring_radial_network(
    rings: int, spokes: int, ring_spacing: float = 100.0
) -> RoadNetwork:
    """A ring-and-spoke network: concentric rings connected by radial roads.

    Args:
        rings: number of concentric rings (>= 1).
        spokes: number of radial roads (>= 3).
        ring_spacing: radial distance between consecutive rings.
    """
    if rings < 1:
        raise ConfigurationError("ring_radial_network requires at least 1 ring")
    if spokes < 3:
        raise ConfigurationError("ring_radial_network requires at least 3 spokes")
    if ring_spacing <= 0:
        raise ConfigurationError("ring_spacing must be positive")
    network = RoadNetwork()
    center = network.add_vertex(Point(0.0, 0.0))
    ring_vertices: List[List[int]] = []
    for ring in range(1, rings + 1):
        radius = ring * ring_spacing
        vertices = []
        for spoke in range(spokes):
            angle = 2.0 * math.pi * spoke / spokes
            vertices.append(
                network.add_vertex(Point(radius * math.cos(angle), radius * math.sin(angle)))
            )
        ring_vertices.append(vertices)
    # Radial edges.
    for spoke in range(spokes):
        network.add_edge(center, ring_vertices[0][spoke])
        for ring in range(rings - 1):
            network.add_edge(ring_vertices[ring][spoke], ring_vertices[ring + 1][spoke])
    # Ring edges.
    for ring in range(rings):
        for spoke in range(spokes):
            network.add_edge(
                ring_vertices[ring][spoke], ring_vertices[ring][(spoke + 1) % spokes]
            )
    return network


def random_planar_network(
    vertex_count: int,
    extent: float = 1000.0,
    removal_fraction: float = 0.3,
    seed: int = 7,
) -> RoadNetwork:
    """An irregular connected planar network from a random Delaunay graph.

    Random points are triangulated; a ``removal_fraction`` of the Delaunay
    edges is then removed in random order, skipping removals that would
    disconnect the network.

    Args:
        vertex_count: number of vertices (>= 4).
        extent: side length of the square the vertices are drawn from.
        removal_fraction: fraction of edges to try to remove (0 <= f < 1).
        seed: random seed for reproducibility.
    """
    if vertex_count < 4:
        raise ConfigurationError("random_planar_network requires at least 4 vertices")
    if not 0.0 <= removal_fraction < 1.0:
        raise ConfigurationError("removal_fraction must be in [0, 1)")
    rng = random.Random(seed)
    points = [
        Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent)) for _ in range(vertex_count)
    ]
    triangulation = DelaunayTriangulation(points)
    edges = sorted(tuple(sorted(edge)) for edge in triangulation.edges())
    rng.shuffle(edges)
    removal_budget = int(len(edges) * removal_fraction)

    adjacency: Dict[int, Set[int]] = {i: set() for i in range(vertex_count)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    def still_connected_without(u: int, v: int) -> bool:
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        seen = {u}
        stack = [u]
        while stack:
            current = stack.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        connected = v in seen
        if not connected:
            adjacency[u].add(v)
            adjacency[v].add(u)
        return connected

    kept: List[Tuple[int, int]] = []
    removed = 0
    for u, v in edges:
        if removed < removal_budget and len(adjacency[u]) > 1 and len(adjacency[v]) > 1:
            if still_connected_without(u, v):
                removed += 1
                continue
        kept.append((u, v))

    network = RoadNetwork()
    vertex_map = [network.add_vertex(p) for p in points]
    for u, v in kept:
        network.add_edge(vertex_map[u], vertex_map[v])
    if not network.is_connected():
        raise RoadNetworkError("random_planar_network produced a disconnected graph")
    return network


def place_objects(
    network: RoadNetwork, count: int, seed: int = 11, distinct: bool = True
) -> List[int]:
    """Place ``count`` data objects on vertices of ``network``.

    Args:
        network: the road network.
        count: number of objects to place.
        seed: random seed.
        distinct: when True (the default) every object gets its own vertex,
            matching the paper's assumption that objects sit on vertices.

    Returns:
        ``object_vertices``: the vertex identifier of each object.

    Raises:
        ConfigurationError: when ``distinct`` and ``count`` exceeds the
            number of vertices.
    """
    vertices = network.vertices()
    if count <= 0:
        raise ConfigurationError("count must be positive")
    rng = random.Random(seed)
    if distinct:
        if count > len(vertices):
            raise ConfigurationError(
                f"cannot place {count} distinct objects on {len(vertices)} vertices"
            )
        return rng.sample(vertices, count)
    return [rng.choice(vertices) for _ in range(count)]
