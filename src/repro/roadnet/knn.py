"""Network k nearest neighbour search (incremental network expansion).

Data objects sit on vertices; the query is a :class:`NetworkLocation`.  The
kNN search is :func:`~repro.roadnet.shortest_path.expand` from the query
location under its ``k``-objects stop rule — the classic incremental network
expansion (INE) algorithm, which is what the naive road-network
baseline recomputes at every timestamp and what the INS road-network
processor uses for its initial retrieval.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.roadnet.shortest_path import SearchStats, distances_from_location, expand


def build_objects_at_vertex(object_vertices: Sequence[int]) -> Dict[int, List[int]]:
    """The vertex → object-indexes map :func:`network_knn` searches with.

    Long-lived callers with a static data set should build this once and
    pass it to every :func:`network_knn` call instead of paying the O(n)
    construction per query (callers with a *dynamic* data set get a live
    map from :meth:`NetworkVoronoiDiagram.vertex_objects`).
    """
    objects_at_vertex: Dict[int, List[int]] = {}
    for object_index, vertex in enumerate(object_vertices):
        objects_at_vertex.setdefault(vertex, []).append(object_index)
    return objects_at_vertex


def network_knn(
    network: RoadNetwork,
    object_vertices: Sequence[int],
    location: NetworkLocation,
    k: int,
    stats: Optional[SearchStats] = None,
    objects_at_vertex: Optional[Mapping[int, Sequence[int]]] = None,
) -> List[Tuple[int, float]]:
    """The ``k`` data objects nearest to ``location`` by network distance.

    Args:
        network: the road network.
        object_vertices: ``object_vertices[i]`` is the vertex data object
            ``i`` sits on.
        location: the query position on an edge.
        k: how many neighbours to return.
        stats: optional search-effort accumulator.
        objects_at_vertex: optional prebuilt vertex → object-indexes map.
            Long-lived callers (the road server, the network Voronoi
            diagram) already maintain this map; passing it skips the O(n)
            dictionary construction this function otherwise pays on every
            call.  When given it is treated as authoritative — objects
            missing from it (e.g. tombstoned ones) are not reported.

    Returns:
        A list of ``(object_index, distance)`` pairs, nearest first.  Several
        objects may share a vertex; all of them are reported at that
        vertex's distance.

    Raises:
        QueryError: for non-positive ``k`` or ``k`` larger than the number of
            objects reachable from the query location.
    """
    if k <= 0:
        raise QueryError("k must be positive")
    if k > len(object_vertices):
        raise QueryError(
            f"k={k} exceeds the number of data objects ({len(object_vertices)})"
        )
    if objects_at_vertex is None:
        objects_at_vertex = build_objects_at_vertex(object_vertices)

    location = location.validated(network)
    u, distance_u, v, distance_v = location.endpoint_distances(network)
    seeds = [(distance_u, u), (distance_v, v)]
    results = expand(network, seeds, objects=objects_at_vertex, k=k, stats=stats)[1]
    if len(results) < k:
        raise QueryError(
            f"only {len(results)} data objects reachable from the query location, k={k}"
        )
    return results


def network_knn_from_vertex(
    network: RoadNetwork,
    object_vertices: Sequence[int],
    source_vertex: int,
    k: int,
    stats: Optional[SearchStats] = None,
    objects_at_vertex: Optional[Mapping[int, Sequence[int]]] = None,
) -> List[Tuple[int, float]]:
    """Network kNN where the query sits exactly on a vertex."""
    location = NetworkLocation.at_vertex(network, source_vertex)
    return network_knn(network, object_vertices, location, k, stats, objects_at_vertex)


def object_distances_from_location(
    network: RoadNetwork,
    object_vertices: Sequence[int],
    location: NetworkLocation,
    object_indexes: Sequence[int],
    stats: Optional[SearchStats] = None,
    owners: Optional[Mapping[int, int]] = None,
    cells: AbstractSet[int] = frozenset(),
    required: Optional[int] = None,
) -> List[float]:
    """Network distances from the query location to specific objects.

    One search whose targets are the vertices of the first ``required``
    listed objects (default: all), under the stop rule of
    :func:`~repro.roadnet.shortest_path.distances_from_location`; ``owners``
    and ``cells`` confine it to those objects' Voronoi cells (the Theorem 2
    region), one of which the query location must lie in.

    Returns:
        The distances in ``object_indexes`` order: exact for every listed
        object no farther than the farthest required one, ``inf`` for the
        rest — beyond that radius, or unreachable in the region.
    """
    vertices = [object_vertices[index] for index in object_indexes]
    settled = distances_from_location(
        network, location, targets=vertices[:required], stats=stats, owners=owners, cells=cells
    ).get
    return [settled(vertex, math.inf) for vertex in vertices]
