"""The INS moving-kNN processor in the 2-D Euclidean plane.

The protocol — initial computation, validation, update, lazy settlement of
data-object updates — is :class:`~repro.core.ins.InfluentialSetProcessor`
(see :mod:`repro.core.ins` for the one description of it).  This module is
what the plane supplies:

* the index: a :class:`~repro.index.vortree.VoRTree`, and one
  :meth:`VoRTree.retrieve` per server round trip, expanding from the
  nearest object of the ``R`` the client still holds, whose distances the
  fresh answer reports as the retrieval certified them;
* the held distances: one C ``math.dist`` loop over the tree's coordinate
  rows, copied in ``_held`` order when the held set changes (objects never move);
* the tie rule: strict ``<`` — the triangulation splits degenerate input by
  a jitter, so a tie is never a certificate (the rule retrieval uses too);
  coincident objects share one site and are each other's neighbours, so a
  twin straddling the answer's boundary is such a tie and nothing more;
* the paper's case (i), behind ``allow_incremental``: when the answer
  changes by a single object, fetch only the incomer's neighbour list.
"""

from __future__ import annotations

from itertools import repeat
from math import dist
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Tuple

from repro.core.ins import InfluentialSetProcessor
from repro.geometry.point import Point
from repro.index.vortree import VoRTree


class INSProcessor(InfluentialSetProcessor[Point]):
    """Influential-neighbour-set moving kNN processor (Euclidean space).

    Args:
        vortree: the live VoR-tree the query is served from.
        k: number of nearest neighbours to maintain (``1 <= k <`` its
            active objects).
        rho: prefetch ratio ρ ≥ 1.  ``⌊ρk⌋`` objects are retrieved per server
            round trip.  The paper's demo uses ρ = 1.6.
        allow_incremental: enable the paper's case (i) optimisation — when
            the answer changes by a single object, compose the new kNN set
            from the existing one and fetch only that object's Voronoi
            neighbour list instead of recomputing R and I(R) from scratch.
            Disabled by default so the base protocol matches Section III
            exactly; experiment E8 measures its effect.
    """

    #: Maximum consecutive single-object swaps attempted before falling back
    #: to a full retrieval (a fast query can cross several order-k cells in
    #: one timestamp).
    MAX_INCREMENTAL_SWAPS = 8

    def __init__(
        self,
        vortree: VoRTree,
        k: int,
        rho: float = 1.6,
        allow_incremental: bool = False,
    ):
        super().__init__(k, rho, vortree)
        self._allow_incremental = allow_incremental
        # Coordinates of ``_held``, in its order (objects never move).
        self._held_xy: List[Tuple[float, float]] = []
        # Members' Voronoi neighbour lists as shipped (``allow_incremental`` only).
        self._neighbor_lists: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "INS"

    @property
    def vortree(self) -> VoRTree:
        """The server-side VoR-tree the query is served from."""
        return self._index

    @property
    def allow_incremental(self) -> bool:
        """Whether case (i) single-object incremental updates are enabled."""
        return self._allow_incremental

    # ------------------------------------------------------------------
    # What the plane supplies
    # ------------------------------------------------------------------
    def _fetch(self, position: Point, count: int, hint: Optional[int]):
        tree = self._index
        fetched = tree.retrieve(position, count, hint)
        if self._allow_incremental:
            self._neighbor_lists = {i: frozenset(tree.voronoi_neighbors(i)) for i in fetched[0]}
        return fetched

    def _held_distances(self, position: Point) -> List[float]:
        """Distances in ``_held`` order; the floats of ``position.distance_to(point)``."""
        self._stats.distance_computations += len(self._held_xy)
        return list(map(dist, repeat((position.x, position.y)), self._held_xy))

    def _held_changed(self) -> None:
        self._held_xy = list(map(self._index.coordinates.__getitem__, self._held))

    def _refresh_ins(self, changed: AbstractSet[int]) -> None:
        if self._allow_incremental:
            for member in changed.intersection(self._R):
                self._neighbor_lists[member] = frozenset(self._index.voronoi_neighbors(member))
        super()._refresh_ins(changed)

    def _incremental_update(self, position: Point) -> Optional[List[float]]:
        """Case (i): compose the new answer by single-object swaps.

        Each swap replaces the farthest current member of R with the nearest
        guard object and fetches only that object's Voronoi neighbour list
        from the server.  The swap loop stops as soon as the recomposed
        answer passes the IS validation again (success: its distances) or
        after :data:`MAX_INCREMENTAL_SWAPS` swaps (None — the caller falls
        back to a full retrieval).
        """
        if not self._allow_incremental:
            return None
        saved_R = list(self._R)
        saved_lists = dict(self._neighbor_lists)
        saved_knn = self._knn
        transmitted = 0
        for _ in range(self.MAX_INCREMENTAL_SWAPS):
            distances = self._held_distances(position)
            recomposed = self._recompose(distances)
            if recomposed is not None:
                self._stats.incremental_updates += 1
                self._stats.transmitted_objects += transmitted
                return recomposed
            if not self._ins:
                break
            # Swap the farthest R member for the nearest outside guard object
            # and fetch the incomer's neighbour list (1 + |N| objects).
            count = len(self._R)
            outgoing = max(zip(distances[:count], self._held))[1]
            incoming = min(zip(distances[count:], self._held[count:]))[1]
            with self._stats.timed("construction_seconds"):
                incoming_neighbors = frozenset(self._index.voronoi_neighbors(incoming))
            transmitted += 1 + len(incoming_neighbors)
            self._R = [index for index in self._R if index != outgoing] + [incoming]
            # The flat layout needs kNN ⊆ R; the next recomposition refills it.
            self._knn = tuple([index for index in self._knn if index != outgoing])
            self._neighbor_lists.pop(outgoing, None)
            self._neighbor_lists[incoming] = incoming_neighbors
            self._ins = set().union(*self._neighbor_lists.values()) - set(self._R)
            self._refresh_held()
        # Could not stabilise within the swap budget: restore and report failure.
        self._R = saved_R
        self._neighbor_lists = saved_lists
        self._knn = saved_knn
        self._ins = set().union(*self._neighbor_lists.values()) - set(self._R)
        self._refresh_held()
        return None
