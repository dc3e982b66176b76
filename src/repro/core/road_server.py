"""The road-network multi-query moving-kNN server.

The road counterpart of :class:`~repro.core.server.MovingKNNServer` and,
like it, a thin metric-specific subclass of the generic
:class:`~repro.core.engine.ServingEngine` (which owns everything a metric
does not decide).  This module contributes only the network: one shared,
incrementally maintained
:class:`~repro.roadnet.network_voronoi.NetworkVoronoiDiagram` (the
expensive structure — a whole-graph multi-source Dijkstra to build), the
diagram's *local* repair floods — O(cells touched) per update — and a
native move (the object keeps its index).  Its processors come from
the query-kind registry (:mod:`repro.queries.kinds`), like the plane's:
the ``knn`` kind's :class:`~repro.core.ins_road.INSRoadProcessor` (each
with its own ``k``, ``ρ`` and Theorem 2 region), or a road kind
registered beside it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.engine import ServingEngine
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats


class MovingRoadKNNServer(ServingEngine[NetworkLocation]):
    """Serve many concurrent moving kNN queries over one road-side data set.

    Args:
        network: the road network shared by every query.
        object_vertices: initial vertex of each data object.
        stats: optional search-effort accumulator shared with the diagram's
            construction and repairs.
    """

    metric = "road"

    def __init__(
        self,
        network: RoadNetwork,
        object_vertices: Sequence[int],
        stats: Optional[SearchStats] = None,
    ):
        super().__init__()
        self._network = network
        self._search_stats = stats if stats is not None else SearchStats()
        self._voronoi = NetworkVoronoiDiagram(network, list(object_vertices), self._search_stats)

    @property
    def network(self) -> RoadNetwork:
        """The shared road network."""
        return self._network

    @property
    def voronoi(self) -> NetworkVoronoiDiagram:
        """The shared server-side network Voronoi diagram."""
        return self._voronoi

    index = voronoi

    def object_vertex(self, index: int) -> int:
        """The vertex data object ``index`` currently sits on."""
        return self._voronoi.object_vertex(index)

    def _repair_batch(self, inserts, deletes, moves):
        return self._voronoi.batch_update(inserts, deletes, moves)
