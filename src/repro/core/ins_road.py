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
  Theorem 2 restricts it further, to the edges of the Voronoi cells of the
  held pool: the processor holds that region as a set of edge ids —
  refreshed where the pool changes, never on a local reorder — and the
  Dijkstra skips every edge outside it, on the shared network;
* the tie rule: ``<=`` (the network diagram is exact; a grid is full of ties).

``exact`` mode runs the same search on the full network: the tests'
cross-check and a fair "no Theorem 2" ablation of the default, ``restricted``.

A timestamp costs one search: a local reorder reports from the distances
the validation computed, a retrieval from those its own expansion found.
``insq_road_validation_fallbacks_total`` names the two slow paths by reason:
``escaped`` (the query's edge left the region: the whole network is
searched) and ``unreachable`` (a kNN member reads ``inf`` inside the region:
the search exhausts it, and the answer is recomposed or retrieved).
"""

from __future__ import annotations

import operator
from math import inf
from typing import List, Optional, Sequence, Set

from repro.errors import ConfigurationError
from repro.core.ins import InfluentialSetProcessor
from repro.obs.metrics import counter as _obs_counter
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.knn import network_knn, object_distances_from_location
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats

_ESCAPED = _obs_counter("insq_road_validation_fallbacks_total", reason="escaped")
_UNREACHABLE = _obs_counter("insq_road_validation_fallbacks_total", reason="unreachable")


class INSRoadProcessor(InfluentialSetProcessor[NetworkLocation]):
    """Influential-neighbour-set moving kNN processor on a road network.

    Args:
        network: the road network.
        object_vertices: vertex of each data object (object ``i`` sits on
            ``object_vertices[i]``).
        k: number of nearest neighbours to maintain.
        rho: prefetch ratio ρ ≥ 1 (⌊ρk⌋ objects retrieved per round trip).
        validation_mode: ``"restricted"`` (search within the Theorem 2
            region, the paper's approach) or ``"exact"`` (targeted Dijkstra
            on the full network).
        voronoi: optionally share a prebuilt network Voronoi diagram.
    """

    VALIDATION_MODES = ("restricted", "exact")

    _nearer = staticmethod(operator.le)

    def __init__(
        self,
        network: RoadNetwork,
        object_vertices: Sequence[int],
        k: int,
        rho: float = 1.6,
        validation_mode: str = "restricted",
        voronoi: Optional[NetworkVoronoiDiagram] = None,
    ):
        super().__init__(k, rho, len(object_vertices))
        if validation_mode not in self.VALIDATION_MODES:
            raise ConfigurationError(
                f"validation_mode must be one of {self.VALIDATION_MODES}, got {validation_mode!r}"
            )
        self._network = network
        self._validation_mode = validation_mode
        self._search_stats = SearchStats()
        with self._stats.time_precomputation():
            if voronoi is None:
                voronoi = NetworkVoronoiDiagram(network, list(object_vertices), self._search_stats)
            self._adopt(voronoi)
        # Shared live view of the diagram's object storage: it grows as
        # objects are inserted and is patched in place by moves, so data
        # updates never copy per-object state into each registered query.
        self._object_vertices: Sequence[int] = self._index.vertex_assignments
        # The Theorem 2 region: the edge ids of the held pool's Voronoi
        # cells (None in "exact" mode).
        self._region: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        suffix = "" if self._validation_mode == "restricted" else "-exact"
        return f"INS-road{suffix}"

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
        self._fetched = [distance for _, distance in nearest]
        members = [index for index, _ in nearest]
        return members, self._index.influential_neighbor_set(members)

    def _knn_distances(self, position: NetworkLocation) -> Sequence[float]:
        # Billed as the evaluation of the fresh pool it stands in for.
        self._stats.distance_computations += len(self._held)
        return self._fetched[: self._k]

    def _held_distances(self, position: NetworkLocation) -> List[float]:
        """One answer-bounded search, in the Theorem 2 region unless the query left it."""
        region = self._region
        if region is not None and position.edge_id not in region:
            _ESCAPED.inc()
            region = None
        before = self._search_stats.settled_vertices
        distances = list(
            object_distances_from_location(
                self._network,
                self._object_vertices,
                position,
                self._held,
                stats=self._search_stats,
                within=region,
                required=self._k,
            ).values()  # keyed in the order asked for, which is ``_held``'s
        )
        self._stats.settled_vertices += self._search_stats.settled_vertices - before
        self._stats.distance_computations += len(distances)
        if max(distances[: self._k]) == inf:
            _UNREACHABLE.inc()
        return distances

    def _held_changed(self, pool_changed: bool) -> None:
        if pool_changed and self._validation_mode == "restricted":
            self._region = self._index.cell_edges(self._held)
