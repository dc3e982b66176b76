"""Order-k network Voronoi decomposition and the network MIS.

Figure 2 of the paper shows an order-2 network Voronoi diagram: every point
of every edge is labelled with its set of 2 nearest data objects, and edge
segments with the same label form an order-2 cell.  This module computes
that decomposition exactly for arbitrary ``k``:

* For a point at offset ``t`` on edge ``(u, v)`` the distance to object
  ``o`` is ``d_o(t) = min(t + d(u, o), length - t + d(v, o))`` — a piecewise
  linear function with slopes ±1.
* The kNN set as a function of ``t`` can only change where two such
  functions cross, so collecting every pairwise crossing, sorting them and
  evaluating the kNN set between consecutive crossings yields the exact
  decomposition.

The decomposition is quadratic in the number of objects per edge, which is
perfectly fine for the analysis-sized networks the tests use it on (the
Figure 2 reproduction and the road-network MIS oracle).  The INS processor
never calls it — that is the whole point of the INS algorithm.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.core.objects import immutable
from repro.errors import QueryError, RoadNetworkError
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.roadnet.shortest_path import dijkstra

#: Offsets closer than this are considered the same breakpoint.
_BREAKPOINT_TOLERANCE = 1e-9


@immutable
class EdgeInterval:
    """A maximal sub-segment of an edge with a constant kNN set.

    Attributes:
        edge_id: the edge the interval lies on.
        start: interval start offset (distance from the edge's ``u`` end).
        end: interval end offset.
        members: the kNN set (object indexes) shared by every interior point.
    """

    edge_id: int
    start: float
    end: float
    members: FrozenSet[int]

    @property
    def length(self) -> float:
        """Length of the interval."""
        return self.end - self.start


def object_vertex_distances(
    network: RoadNetwork, object_vertices: Sequence[int]
) -> List[Dict[int, float]]:
    """Distances from every data object to every vertex (one Dijkstra each).

    Returns:
        ``result[i][v]`` = network distance from object ``i`` to vertex ``v``.
    """
    return [dijkstra(network, vertex) for vertex in object_vertices]


def _distance_at(t: float, distance_u: float, distance_v: float, length: float) -> float:
    return min(t + distance_u, length - t + distance_v)


def order_k_set_at(
    network: RoadNetwork,
    object_vertices: Sequence[int],
    location: NetworkLocation,
    k: int,
    precomputed: Optional[List[Dict[int, float]]] = None,
) -> FrozenSet[int]:
    """The exact kNN set (as object indexes) of a network location.

    Args:
        precomputed: optional result of :func:`object_vertex_distances`; when
            omitted it is computed on the fly (one Dijkstra per object).
    """
    if k <= 0:
        raise QueryError("k must be positive")
    if k > len(object_vertices):
        raise QueryError("k exceeds the number of data objects")
    location = location.validated(network)
    edge = network.edge(location.edge_id)
    distances = precomputed or object_vertex_distances(network, object_vertices)
    values = []
    for object_index in range(len(object_vertices)):
        distance_u = distances[object_index].get(edge.u, math.inf)
        distance_v = distances[object_index].get(edge.v, math.inf)
        values.append(
            (_distance_at(location.offset, distance_u, distance_v, edge.length), object_index)
        )
    values.sort()
    return frozenset(index for _, index in values[:k])


def order_k_edge_decomposition(
    network: RoadNetwork,
    object_vertices: Sequence[int],
    k: int,
    precomputed: Optional[List[Dict[int, float]]] = None,
) -> Dict[int, List[EdgeInterval]]:
    """Exact order-k decomposition of every edge of the network.

    Returns:
        Mapping ``edge_id -> list of EdgeInterval`` covering ``[0, length]``
        in order, each carrying the constant kNN set of its interior.
    """
    if k <= 0:
        raise QueryError("k must be positive")
    if k > len(object_vertices):
        raise QueryError("k exceeds the number of data objects")
    distances = precomputed or object_vertex_distances(network, object_vertices)
    result: Dict[int, List[EdgeInterval]] = {}
    object_count = len(object_vertices)
    for edge in network.edges():
        per_object = []
        for object_index in range(object_count):
            distance_u = distances[object_index].get(edge.u, math.inf)
            distance_v = distances[object_index].get(edge.v, math.inf)
            per_object.append((distance_u, distance_v))
        breakpoints = {0.0, edge.length}
        for i in range(object_count):
            du_i, dv_i = per_object[i]
            # The two branches of object i's own distance function cross at
            # the edge midpoint of its reach; that is also a breakpoint of
            # the ordering in degenerate cases.
            self_cross = (edge.length + dv_i - du_i) / 2.0
            if 0.0 < self_cross < edge.length:
                breakpoints.add(self_cross)
            for j in range(i + 1, object_count):
                du_j, dv_j = per_object[j]
                breakpoints.update(
                    _pairwise_crossings(du_i, dv_i, du_j, dv_j, edge.length)
                )
        ordered = sorted(breakpoints)
        intervals: List[EdgeInterval] = []
        for start, end in zip(ordered, ordered[1:]):
            if end - start <= _BREAKPOINT_TOLERANCE:
                continue
            middle = (start + end) / 2.0
            values = sorted(
                (
                    _distance_at(middle, per_object[index][0], per_object[index][1], edge.length),
                    index,
                )
                for index in range(object_count)
            )
            members = frozenset(index for _, index in values[:k])
            if intervals and intervals[-1].members == members:
                intervals[-1] = EdgeInterval(
                    edge.edge_id, intervals[-1].start, end, members
                )
            else:
                intervals.append(EdgeInterval(edge.edge_id, start, end, members))
        result[edge.edge_id] = intervals
    return result


def _pairwise_crossings(
    du_i: float, dv_i: float, du_j: float, dv_j: float, length: float
) -> List[float]:
    """Offsets where the distance functions of objects i and j may cross.

    Each distance function is the minimum of a rising line ``t + du`` and a
    falling line ``length - t + dv``.  Crossings of any of the four line
    pairs are candidate breakpoints (a superset of the true crossings is
    fine — intervals between consecutive candidates still have constant
    ordering).
    """
    candidates = []
    if math.isfinite(du_i) and math.isfinite(dv_j):
        candidates.append((length + dv_j - du_i) / 2.0)
    if math.isfinite(dv_i) and math.isfinite(du_j):
        candidates.append((length + dv_i - du_j) / 2.0)
    # Parallel rising/rising and falling/falling pairs never cross (slope
    # difference is zero) unless identical, which adds no breakpoint.
    return [t for t in candidates if 0.0 < t < length]


def cells_from_decomposition(
    decomposition: Dict[int, List[EdgeInterval]]
) -> Dict[FrozenSet[int], List[EdgeInterval]]:
    """Group edge intervals by their kNN set (the order-k cells of Fig. 2)."""
    cells: Dict[FrozenSet[int], List[EdgeInterval]] = {}
    for intervals in decomposition.values():
        for interval in intervals:
            cells.setdefault(interval.members, []).append(interval)
    return cells


def network_mis(
    network: RoadNetwork,
    object_vertices: Sequence[int],
    k: int,
    members: Iterable[int],
    decomposition: Optional[Dict[int, List[EdgeInterval]]] = None,
    precomputed: Optional[List[Dict[int, float]]] = None,
) -> Set[int]:
    """The minimal influential set of a kNN set on a road network.

    Two order-k cells are adjacent when their edge intervals touch — either
    at a shared breakpoint on the same edge or across a common vertex.  The
    MIS of ``members`` is the union of adjacent cells' member sets minus
    ``members`` (Definition 2, applied on the network).

    Args:
        decomposition: optional precomputed result of
            :func:`order_k_edge_decomposition` (reused across calls in tests).
    """
    member_set = frozenset(members)
    if len(member_set) != k:
        raise QueryError(f"expected a kNN set of size {k}, got {len(member_set)}")
    if decomposition is None:
        decomposition = order_k_edge_decomposition(
            network, object_vertices, k, precomputed=precomputed
        )
    adjacent_sets: Set[FrozenSet[int]] = set()

    # Adjacency along edges: consecutive intervals on the same edge.
    for intervals in decomposition.values():
        for first, second in zip(intervals, intervals[1:]):
            if first.members == member_set and second.members != member_set:
                adjacent_sets.add(second.members)
            if second.members == member_set and first.members != member_set:
                adjacent_sets.add(first.members)

    # Adjacency across vertices: intervals ending at a vertex shared with
    # intervals of other edges starting at that vertex.
    vertex_touching: Dict[int, Set[FrozenSet[int]]] = {}
    for edge_id, intervals in decomposition.items():
        if not intervals:
            continue
        edge = network.edge(edge_id)
        first = intervals[0]
        last = intervals[-1]
        if first.start <= _BREAKPOINT_TOLERANCE:
            vertex_touching.setdefault(edge.u, set()).add(first.members)
        if last.end >= edge.length - _BREAKPOINT_TOLERANCE:
            vertex_touching.setdefault(edge.v, set()).add(last.members)
    for touching in vertex_touching.values():
        if member_set in touching:
            adjacent_sets.update(s for s in touching if s != member_set)

    mis: Set[int] = set()
    for other in adjacent_sets:
        mis.update(other - member_set)
    return mis
