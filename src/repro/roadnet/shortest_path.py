"""Shortest-path computations on road networks.

All network distances in the library come from the Dijkstra variants in this
module:

* :func:`dijkstra` — single-source distances to every vertex.
* :func:`bounded_dijkstra` — single-source distances, stopping once the
  search frontier exceeds a radius (used for localized validation).
* :func:`multi_source_dijkstra` — distances from the nearest of several
  sources together with the identity of that source; this is exactly the
  computation that yields the network Voronoi diagram.
* :func:`distances_from_location` — distances from a point on an edge (the
  moving query object), optionally confined to Voronoi cells (Theorem 2).
* :func:`shortest_path_distance` — vertex-to-vertex distance.

Theorem 2 — validating a kNN answer only needs the Voronoi cells of the held
objects — is a *restriction of the search*, not a second network.  An edge
lies in the union of those cells iff the owner of one of its endpoints is
held, so the one expansion loop asks the diagram's live ``vertex → owner``
map as it relaxes: one dict read per settled vertex, one set test per edge
outside a held cell, on the shared :class:`RoadNetwork` with the real vertex
identifiers.  The result equals, float for float, the same search on the
materialised ``network.subnetwork(diagram.cell_edges(held))``.

The functions count settled vertices through an optional
:class:`SearchStats` accumulator so the benchmarks can report search effort;
the loops count in locals and add to it once per search.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import RoadNetworkError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation


@dataclass
class SearchStats:
    """Mutable counters describing the effort of shortest-path searches."""

    settled_vertices: int = 0
    relaxed_edges: int = 0
    searches: int = 0

    def add_search(self, settled: int, relaxed: int) -> None:
        """Account one finished search (the loops count in locals)."""
        self.searches += 1
        self.settled_vertices += settled
        self.relaxed_edges += relaxed


def dijkstra(
    network: RoadNetwork,
    source: int,
    stats: Optional[SearchStats] = None,
) -> Dict[int, float]:
    """Distances from ``source`` to every reachable vertex."""
    return bounded_dijkstra(network, source, math.inf, stats)


def bounded_dijkstra(
    network: RoadNetwork,
    source: int,
    radius: float,
    stats: Optional[SearchStats] = None,
) -> Dict[int, float]:
    """Distances from ``source`` to every vertex within ``radius``.

    Vertices farther than ``radius`` may be missing from the result (they
    are only included if settled before the bound is hit).
    """
    if not network.has_vertex(source):
        raise RoadNetworkError(f"unknown source vertex {source}")
    distances: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    relaxed = 0
    while heap:
        distance, vertex = heapq.heappop(heap)
        if vertex in distances:
            continue
        if distance > radius:
            break
        distances[vertex] = distance
        for neighbor, length, _ in network.neighbors(vertex):
            if neighbor not in distances:
                relaxed += 1
                heapq.heappush(heap, (distance + length, neighbor))
    if stats is not None:
        stats.add_search(len(distances), relaxed)
    return distances


def multi_source_dijkstra(
    network: RoadNetwork,
    sources: Dict[int, int],
    stats: Optional[SearchStats] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Nearest-source distances and owners for every vertex.

    Args:
        network: the road network.
        sources: mapping ``vertex_id -> source_label``.  Several vertices may
            carry different labels; each vertex of the network is assigned to
            the label of its nearest source vertex.

    Returns:
        ``(distances, owners)`` where ``distances[v]`` is the network
        distance from ``v`` to its nearest source and ``owners[v]`` is that
        source's label.  This is the standard parallel-Dijkstra construction
        of the network Voronoi diagram.

    **Distance ties are broken deterministically by owner id**: a vertex at
    exactly equal distance from several sources is owned by the smallest
    label among them.  The heap entries are ``(distance, vertex, label)``
    tuples, and every competing entry for a vertex is pushed before the
    first one is popped (all shortest-path predecessors lie strictly
    closer), so the tuple ordering settles each tied vertex with its
    minimal label — and the rule propagates through tie chains, because a
    relayed label is itself the minimal one at the relaying vertex.  The
    incremental repair floods of
    :class:`~repro.roadnet.network_voronoi.NetworkVoronoiDiagram` apply the
    same rule, which is what makes an incrementally maintained diagram
    compare *equal* to a freshly rebuilt one even on uniform grids, where
    ties are endemic.
    """
    if not sources:
        raise RoadNetworkError("multi_source_dijkstra requires at least one source")
    if not network.has_vertices(sources):
        unknown = next(v for v in sources if not network.has_vertex(v))
        raise RoadNetworkError(f"unknown source vertex {unknown}")
    distances: Dict[int, float] = {}
    owners: Dict[int, int] = {}
    heap: List[Tuple[float, int, int]] = [
        (0.0, vertex, label) for vertex, label in sources.items()
    ]
    heapq.heapify(heap)
    relaxed = 0
    while heap:
        distance, vertex, label = heapq.heappop(heap)
        if vertex in distances:
            continue
        distances[vertex] = distance
        owners[vertex] = label
        for neighbor, length, _ in network.neighbors(vertex):
            if neighbor not in distances:
                relaxed += 1
                heapq.heappush(heap, (distance + length, neighbor, label))
    if stats is not None:
        stats.add_search(len(distances), relaxed)
    return distances, owners


def distances_from_location(
    network: RoadNetwork,
    location: NetworkLocation,
    targets: Optional[Iterable[int]] = None,
    radius: float = math.inf,
    stats: Optional[SearchStats] = None,
    owners: Optional[Mapping[int, int]] = None,
    cells: AbstractSet[int] = frozenset(),
) -> Dict[int, float]:
    """Network distances from an on-edge location to vertices.

    The location is expanded through both endpoints of its edge.  With
    ``targets`` the distance at which the last of them settles becomes the
    search's radius: the vertices tied at it are still settled and the first
    pop beyond it stops the search, so whatever the result lacks is farther
    than every target.  A target the search cannot reach exhausts it.

    ``owners`` (a ``vertex → owning object`` map, the network Voronoi
    diagram's) confines the search to the cells of the objects in ``cells``
    (the Theorem 2 region): an edge is relaxed only when the owner of one of
    its endpoints is in ``cells``, so a vertex that no such edge reaches is
    missing from the result.

    Returns:
        Mapping ``vertex_id -> distance`` for every settled vertex (always a
        superset of the requested targets when they are reachable within
        ``radius``).

    Raises:
        RoadNetworkError: when the location's edge is outside the region.
    """
    location = location.validated(network)
    u, distance_u, v, distance_v = location.endpoint_distances(network)
    if owners is not None and outside_region(owners, cells, u, v):
        raise RoadNetworkError(f"edge {location.edge_id} is outside the search region")
    owner_of = None if owners is None else owners.get
    distances: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(distance_u, u), (distance_v, v)]
    heapq.heapify(heap)
    remaining = set(targets) if targets is not None else None
    relaxed = 0
    while heap:
        distance, vertex = heapq.heappop(heap)
        if vertex in distances:
            continue
        if distance > radius:
            break
        distances[vertex] = distance
        if remaining is not None:
            remaining.discard(vertex)
            if not remaining:
                radius = distance
        inside = owner_of is None or owner_of(vertex) in cells
        for neighbor, length, _ in network.neighbors(vertex):
            if neighbor not in distances and (inside or owner_of(neighbor) in cells):
                relaxed += 1
                heapq.heappush(heap, (distance + length, neighbor))
    if stats is not None:
        stats.add_search(len(distances), relaxed)
    return distances


def outside_region(owners: Mapping[int, int], cells: AbstractSet[int], u: int, v: int) -> bool:
    """Whether the edge ``u``–``v`` lies outside the cells of the objects in
    ``cells``: it lies inside iff the owner of one of its endpoints is there."""
    return owners.get(u) not in cells and owners.get(v) not in cells


def shortest_path_distance(
    network: RoadNetwork,
    source: int,
    target: int,
    stats: Optional[SearchStats] = None,
) -> float:
    """Network distance between two vertices (``inf`` when disconnected)."""
    if not network.has_vertex(target):
        raise RoadNetworkError(f"unknown target vertex {target}")
    distances: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    relaxed = 0
    found = math.inf
    while heap:
        distance, vertex = heapq.heappop(heap)
        if vertex in distances:
            continue
        distances[vertex] = distance
        if vertex == target:
            found = distance
            break
        for neighbor, length, _ in network.neighbors(vertex):
            if neighbor not in distances:
                relaxed += 1
                heapq.heappush(heap, (distance + length, neighbor))
    if stats is not None:
        stats.add_search(len(distances), relaxed)
    return found
