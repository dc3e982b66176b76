"""The INS moving-kNN processor on road networks (Section IV).

The protocol is :class:`~repro.core.ins.InfluentialSetProcessor` (see
:mod:`repro.core.ins` for the one description of it, data-object updates
included): Theorem 1 guarantees that the INS built from order-1 *network*
Voronoi neighbours is still a superset of the MIS, so the validation rule is
unchanged.  This module is what the network supplies:

* the index: a :class:`~repro.roadnet.network_voronoi.NetworkVoronoiDiagram`,
  and one :func:`~repro.roadnet.knn.network_knn` per server round trip;
* the held distances: shortest-path distances, so validation is one search
  from the query location, not arithmetic per object.  Its radius is the
  farthest current kNN member's — it runs through the ties there and stops,
  and a held object beyond reads ``inf`` (the held-distance contract of
  :mod:`repro.core.ins`, with the argument that no verdict can move).
  Theorem 2 confines it further, to the Voronoi cells of the held pool.
  The region is never built: an edge lies in a held cell iff the owner of
  one of its endpoints is held, so the Dijkstra reads the diagram's live
  ``vertex → owner`` map as it relaxes and tests the owner against the held
  set, on the shared network — the search is the one on the materialised
  cells, float for float and vertex for vertex;
* the tie rule: ``<``, as on the plane, but a tie certifies where the query
  lies in a held cell (the network diagram is exact and a grid is full of
  ties; elsewhere a guard is never farther than the answer).

A timestamp costs one search: a local reorder reports from the distances
the validation computed, a retrieval from those its own expansion found.
``insq_road_validation_fallbacks_total`` names the two slow paths by reason:
``escaped`` (the query's edge left the region: the whole network is
searched) and ``unreachable`` (a kNN member reads ``inf`` inside the region:
the search exhausts it, and the answer is recomposed or retrieved).
"""

from __future__ import annotations

from math import inf
from typing import FrozenSet, List, Mapping, Optional, Sequence

from repro.core.ins import InfluentialSetProcessor
from repro.obs.metrics import counter as _obs_counter
from repro.roadnet.knn import network_knn, object_distances_from_location
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats, outside_region

_ESCAPED = _obs_counter("insq_road_validation_fallbacks_total", reason="escaped")
_UNREACHABLE = _obs_counter("insq_road_validation_fallbacks_total", reason="unreachable")


class INSRoadProcessor(InfluentialSetProcessor[NetworkLocation]):
    """Influential-neighbour-set moving kNN processor on a road network.

    Args:
        voronoi: the live network Voronoi diagram the query is served from;
            its network and its object storage are read as they change.
        k: number of nearest neighbours to maintain.
        rho: prefetch ratio ρ ≥ 1 (⌊ρk⌋ objects retrieved per round trip).
    """

    def __init__(self, voronoi: NetworkVoronoiDiagram, k: int, rho: float = 1.6):
        super().__init__(k, rho, voronoi)
        self._network = voronoi.network
        self._search_stats = SearchStats()
        # Shared live view of the diagram's object storage: it grows as
        # objects are inserted and is patched in place by moves, so data
        # updates never copy per-object state into each registered query.
        self._object_vertices: Sequence[int] = voronoi.vertex_assignments
        # The Theorem 2 region, as the cell labels the search may enter: the
        # held pool.
        self._region: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "INS-road"

    @property
    def voronoi(self) -> NetworkVoronoiDiagram:
        """The precomputed order-1 network Voronoi diagram."""
        return self._index

    # ------------------------------------------------------------------
    # What the network supplies
    # ------------------------------------------------------------------
    def _fetch(self, position: NetworkLocation, count: int, hint: Optional[int]):
        # The diagram's live vertex → objects map saves the O(n) dictionary
        # construction inside network_knn; the search needs no seed.
        before = self._search_stats.settled_vertices
        nearest = network_knn(
            self._network,
            self._object_vertices,
            position,
            count,
            stats=self._search_stats,
            objects_at_vertex=self._index.vertex_objects(),
        )
        self._stats.settled_vertices += self._search_stats.settled_vertices - before
        members = [index for index, _ in nearest]
        ins = self._index.influential_neighbor_set(members)
        # Billed as the evaluation of the fresh pool it stands in for.
        self._stats.distance_computations += len(members) + len(ins)
        return members, ins, [distance for _, distance in nearest]

    def _held_distances(self, position: NetworkLocation) -> List[float]:
        """One answer-bounded search, in the held cells unless the query left them."""
        owners: Optional[Mapping[int, int]] = self._index.vertex_owners()
        region = self._region
        edge = self._network.edge(position.edge_id)
        if outside_region(owners, region, edge.u, edge.v):
            _ESCAPED.inc()
            owners = None
        before = self._search_stats.settled_vertices
        distances = object_distances_from_location(
            self._network,
            self._object_vertices,
            position,
            self._held,
            stats=self._search_stats,
            owners=owners,
            cells=region,
            required=self._k,
        )
        self._stats.settled_vertices += self._search_stats.settled_vertices - before
        self._stats.distance_computations += len(distances)
        if max(distances[: self._k]) == inf:
            _UNREACHABLE.inc()
        return distances

    def _held_changed(self) -> None:
        self._region = frozenset(self._held)

    def _tie_certifies(self) -> bool:
        """A tie certifies where the query lies in a held cell: from any other
        cell, whose object may be nearer, the path to a member enters its
        cell through a guard's, so a guard is never farther.  Held cells, not
        the search's ``_region``, which a full-network search widens."""
        held = self._guard.union(self._knn)
        return held.issuperset(self._index.owners_at(self._last_position))
