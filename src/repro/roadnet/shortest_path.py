"""Shortest-path computations on road networks.

Every network distance in the library comes from one of two loops:

* :func:`expand` — an unlabelled Dijkstra from ``(distance, vertex)`` seeds
  under one stop rule (a radius, a target set or ``k`` objects found),
  optionally confined by Theorem 2's owner filter.  :func:`dijkstra`,
  :func:`bounded_dijkstra`, :func:`distances_from_location` (the moving
  query's search), :func:`shortest_path_distance` and
  :func:`~repro.roadnet.knn.network_knn` are thin callers of it.
* :func:`flood` — a labelled Dijkstra from ``(distance, vertex, label)``
  seeds that overwrites a distance/owner map where it wins, smallest label
  first on ties: :func:`multi_source_dijkstra` (the network Voronoi
  construction) and the diagram's two repair floods.

Theorem 2 — validating a kNN answer only needs the Voronoi cells of the held
objects — is a *restriction of the search*, not a second network.  An edge
lies in the union of those cells iff the owner of one of its endpoints is
held, so the expansion asks the diagram's live ``vertex → owner`` map as it
relaxes: one dict read per settled vertex, one set test per edge outside a
held cell, on the shared :class:`RoadNetwork` with the real vertex
identifiers.  The result equals, float for float, the same search on the
materialised ``network.subnetwork(diagram.cell_edges(held))``.

Both loops look the adjacency up once per search
(:meth:`RoadNetwork.adjacency`) and count settled vertices and relaxed edges
in locals, adding them to an optional :class:`SearchStats` once per search.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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


def expand(
    network: RoadNetwork,
    seeds: List[Tuple[float, int]],
    radius: float = math.inf,
    targets: Optional[Iterable[int]] = None,
    objects: Optional[Mapping[int, Sequence[int]]] = None,
    k: int = 0,
    owners: Optional[Mapping[int, int]] = None,
    cells: AbstractSet[int] = frozenset(),
    stats: Optional[SearchStats] = None,
) -> Tuple[Dict[int, float], List[Tuple[int, float]]]:
    """One Dijkstra expansion from ``(distance, vertex)`` seeds (the list
    becomes the search's heap).

    The first pop beyond ``radius`` stops the search.  With ``targets`` the
    distance at which the last of them settles becomes the radius: the
    vertices tied at it are still settled, so whatever the result lacks is
    farther than every target, and a target it cannot reach exhausts it.
    With ``objects`` (a ``vertex → object indexes`` map) every object on a
    settled vertex is found at the vertex's distance until ``k`` are, and
    the vertex that completes them is the last one settled.  ``owners`` (a
    ``vertex → owning object`` map) confines the search to the cells of the
    objects in ``cells``: an edge is relaxed only when the owner of one of
    its endpoints is there.

    Returns:
        ``(settled, found)``: ``vertex → distance`` for every settled vertex,
        and the ``(object index, distance)`` pairs found, nearest first.
    """
    adjacency = network.adjacency()
    heapq.heapify(seeds)
    heap, pop, push = seeds, heapq.heappop, heapq.heappush
    settled: Dict[int, float] = {}
    found: List[Tuple[int, float]] = []
    remaining = set(targets) if targets is not None else None
    owner_of = None if owners is None else owners.get
    relaxed = 0
    while heap:
        distance, vertex = pop(heap)
        if vertex in settled:
            continue
        if distance > radius:
            break
        settled[vertex] = distance
        if remaining is not None:
            remaining.discard(vertex)
            if not remaining:
                radius = distance
        if objects is not None:
            for index in objects.get(vertex, ()):
                found.append((index, distance))
                if len(found) >= k:
                    radius = -math.inf
                    break
        inside = owner_of is None or owner_of(vertex) in cells
        for neighbor, length, _ in adjacency[vertex]:
            if neighbor not in settled and (inside or owner_of(neighbor) in cells):
                relaxed += 1
                push(heap, (distance + length, neighbor))
    if stats is not None:
        stats.add_search(len(settled), relaxed)
    return settled, found


def flood(
    network: RoadNetwork,
    seeds: List[Tuple[float, int, int]],
    distances: Dict[int, float],
    owners: Dict[int, int],
    within: Optional[AbstractSet[int]] = None,
    stats: Optional[SearchStats] = None,
) -> Dict[int, Optional[int]]:
    """A labelled Dijkstra from ``(distance, vertex, label)`` seeds (the list
    becomes the search's heap).

    A popped vertex is settled when it beats its entry in ``distances`` /
    ``owners`` — no entry, a longer distance, or the same distance under a
    larger label — and the entry is overwritten in place.  Edges are relaxed
    only into ``within`` when it is given.

    **Distance ties go to the smallest label.**  The heap orders entries as
    ``(distance, vertex, label)``, and every competing entry for a vertex is
    pushed before the first one is popped (all shortest-path predecessors
    lie strictly closer), so a tied vertex settles with its minimal label,
    and the rule propagates through tie chains.  That is what makes an
    incrementally repaired network Voronoi diagram compare *equal* to a
    rebuilt one even on uniform grids, where ties are endemic.

    Returns:
        ``vertex → previous owner`` (None where there was none) for every
        settled vertex, in settle order.
    """
    adjacency = network.adjacency()
    heapq.heapify(seeds)
    heap, pop, push = seeds, heapq.heappop, heapq.heappush
    current = distances.get
    settled: Dict[int, Optional[int]] = {}
    relaxed = 0
    while heap:
        distance, vertex, label = pop(heap)
        if vertex in settled:
            continue
        old = current(vertex, math.inf)
        if distance > old or (distance == old and owners[vertex] < label):
            continue
        settled[vertex] = owners.get(vertex)
        distances[vertex] = distance
        owners[vertex] = label
        for neighbor, length, _ in adjacency[vertex]:
            if neighbor not in settled and (within is None or neighbor in within):
                relaxed += 1
                push(heap, (distance + length, neighbor, label))
    if stats is not None:
        stats.add_search(len(settled), relaxed)
    return settled


def dijkstra(
    network: RoadNetwork, source: int, stats: Optional[SearchStats] = None
) -> Dict[int, float]:
    """Distances from ``source`` to every reachable vertex."""
    return bounded_dijkstra(network, source, math.inf, stats)


def bounded_dijkstra(
    network: RoadNetwork, source: int, radius: float, stats: Optional[SearchStats] = None
) -> Dict[int, float]:
    """Distances from ``source`` to every vertex within ``radius`` (farther
    ones are missing)."""
    if not network.has_vertex(source):
        raise RoadNetworkError(f"unknown source vertex {source}")
    return expand(network, [(0.0, source)], radius, stats=stats)[0]


def multi_source_dijkstra(
    network: RoadNetwork, sources: Dict[int, int], stats: Optional[SearchStats] = None
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Nearest-source distances and owners for every vertex.

    ``sources`` maps ``vertex_id -> source_label``.  Returns ``(distances,
    owners)``: each vertex's network distance to its nearest source and that
    source's label, the smallest one on a tie (see :func:`flood`) — the
    parallel-Dijkstra construction of the network Voronoi diagram.
    """
    if not sources:
        raise RoadNetworkError("multi_source_dijkstra requires at least one source")
    if not network.has_vertices(sources):
        unknown = next(v for v in sources if not network.has_vertex(v))
        raise RoadNetworkError(f"unknown source vertex {unknown}")
    distances: Dict[int, float] = {}
    owners: Dict[int, int] = {}
    seeds = [(0.0, vertex, label) for vertex, label in sources.items()]
    flood(network, seeds, distances, owners, stats=stats)
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

    The location is expanded through both endpoints of its edge under
    :func:`expand`'s radius, target and owner-filter rules.  Returns
    ``vertex_id -> distance`` for every settled vertex.

    Raises:
        RoadNetworkError: when the location's edge is outside the region.
    """
    location = location.validated(network)
    u, distance_u, v, distance_v = location.endpoint_distances(network)
    if owners is not None and outside_region(owners, cells, u, v):
        raise RoadNetworkError(f"edge {location.edge_id} is outside the search region")
    seeds = [(distance_u, u), (distance_v, v)]
    return expand(network, seeds, radius, targets, owners=owners, cells=cells, stats=stats)[0]


def outside_region(owners: Mapping[int, int], cells: AbstractSet[int], u: int, v: int) -> bool:
    """Whether the edge ``u``–``v`` lies outside the cells of the objects in
    ``cells``: it lies inside iff the owner of one of its endpoints is there."""
    return owners.get(u) not in cells and owners.get(v) not in cells


def shortest_path_distance(
    network: RoadNetwork, source: int, target: int, stats: Optional[SearchStats] = None
) -> float:
    """Network distance between two vertices (``inf`` when disconnected)."""
    for vertex in (source, target):
        if not network.has_vertex(vertex):
            raise RoadNetworkError(f"unknown vertex {vertex}")
    settled = expand(network, [(0.0, source)], targets=(target,), stats=stats)[0]
    return settled.get(target, math.inf)
