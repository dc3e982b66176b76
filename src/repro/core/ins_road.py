"""The INS moving-kNN processor on road networks (Section IV).

The protocol is :class:`~repro.core.ins.InfluentialSetProcessor` (see
:mod:`repro.core.ins` for the one description of it, data-object updates
included): Theorem 1 guarantees that the INS built from order-1 *network*
Voronoi neighbours is still a superset of the MIS, so the validation rule is
unchanged.  This module is what the network supplies:

* the index: a :class:`~repro.roadnet.network_voronoi.NetworkVoronoiDiagram`,
  and one :func:`~repro.roadnet.knn.network_knn` per server round trip;
* the held distances: shortest-path distances, so validation is no longer
  arithmetic per object but one search from the query location.  Theorem 2
  allows that search to be restricted to the edges of the Voronoi cells of
  the held pool, which bounds it independently of the network size.  It is
  applied as a restriction *of the search*: the processor holds that region
  as a set of edge ids — refreshed where the pool changes, never on a local
  reorder — and the Dijkstra skips every edge outside it, on the shared
  network; nothing is copied or re-identified;
* the tie rule: ``<=`` — the network diagram is exact, and on a grid ties
  are the normal case.

Besides that ``restricted`` mode (the paper's, the default) there is
``exact``: distances are computed on the full network with a targeted
Dijkstra that stops when every held object is settled.  The tests use it as
a cross-check and it is also a fair "no Theorem 2" ablation.

A timestamp costs one search: a local reorder changes neither the position
nor the held set, so it reports from the distances the validation computed;
only a retrieval (new R, new I(R)) searches again.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Sequence, Set

from repro.errors import ConfigurationError
from repro.core.ins import InfluentialSetProcessor
from repro.obs.metrics import counter as _obs_counter
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.knn import network_knn, object_distances_from_location
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats

_VALIDATION_FALLBACKS = _obs_counter("insq_road_validation_fallbacks_total")


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
        members = [index for index, _ in nearest]
        return members, self._index.influential_neighbor_set(members)

    def _held_distances(self, position: NetworkLocation) -> List[float]:
        """Network distances from ``position`` to every held object.

        In ``restricted`` mode the search is confined to the Theorem 2
        region; when the query location's edge is not part of it (the query
        escaped the region entirely between timestamps) this evaluation
        searches the full network instead — the one silent slow path here,
        counted by ``insq_road_validation_fallbacks_total``.
        """
        region = self._region
        if region is not None and position.edge_id not in region:
            _VALIDATION_FALLBACKS.inc()
            region = None
        before = self._search_stats.settled_vertices
        distances = object_distances_from_location(
            self._network,
            self._object_vertices,
            position,
            self._held,
            stats=self._search_stats,
            within=region,
        )
        self._stats.settled_vertices += self._search_stats.settled_vertices - before
        self._stats.distance_computations += len(self._held)
        # Keyed in the order asked for, which is ``_held``'s.
        return list(distances.values())

    def _held_changed(self, pool_changed: bool) -> None:
        if pool_changed and self._validation_mode == "restricted":
            self._region = self._index.cell_edges(self._held)
