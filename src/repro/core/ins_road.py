"""The INS moving-kNN processor on road networks (Section IV).

Differences from the Euclidean processor:

* Distances are shortest-path (network) distances, so validation is no
  longer a constant-time arithmetic operation per object — it requires a
  shortest-path search from the query location to the held objects.
* The safe guarding objects come from the *network* Voronoi neighbour
  relation; Theorem 1 guarantees that the INS built from order-1 network
  Voronoi neighbours is still a superset of the MIS, so the validation rule
  is unchanged.
* Theorem 2 allows the validation search to be restricted to the edges of
  the Voronoi cells of the current kNN set and its INS, which bounds the
  search space independently of the network size.  It is applied as a
  restriction *of the search*: the processor holds that region as a set of
  edge ids and the one Dijkstra of a timestamp skips every edge outside it,
  on the shared network — nothing is copied or re-identified.

Two validation modes are provided:

* ``restricted`` (the paper's mode, default): distances are computed inside
  the Theorem 2 region of the held objects' Voronoi cells.
* ``exact``: distances are computed on the full network with a targeted
  Dijkstra that stops when every held object is settled.  This mode is used
  by the tests as a cross-check and is also a fair "no Theorem 2" ablation.

A timestamp costs one search: a local reorder changes neither the position
nor the held set, so it reports from the distances the validation computed;
only a retrieval (new R, new I(R)) searches again.

**Data-object updates** arrive through :meth:`INSRoadProcessor.notify_data_update`
(the road server pushes the shared diagram's repair deltas).  The processor
does not reconstruct anything eagerly — it accumulates the delta and settles
it on its next timestamp:

* a removal inside the prefetched set R invalidates R, so the next timestamp
  pays one full retrieval;
* any other delta touching the held pool (R ∪ I(R)) only refreshes I(R) and
  the Theorem 2 region from the already-repaired shared diagram — a few
  set unions instead of a reconstruction.  This is sound because
  Theorem 1 is a statement about the *current* diagram: validation against a
  freshly derived I(R) certifies the held kNN set against the current data
  set, whatever changed;
* a delta that leaves the pool untouched is absorbed for free: the
  neighbour sets of every held object are unchanged, so the guard set the
  next validation uses is already the correct one.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, QueryError, RoadNetworkError
from repro.core.objects import QueryResult, UpdateAction
from repro.core.processor import MovingKNNProcessor
from repro.geometry.point import Point
from repro.obs.metrics import counter as _obs_counter
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.knn import network_knn, object_distances_from_location
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats

_VALIDATION_FALLBACKS = _obs_counter("insq_road_validation_fallbacks_total")


class INSRoadProcessor(MovingKNNProcessor[NetworkLocation]):
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

    def __init__(
        self,
        network: RoadNetwork,
        object_vertices: Sequence[int],
        k: int,
        rho: float = 1.6,
        validation_mode: str = "restricted",
        voronoi: Optional[NetworkVoronoiDiagram] = None,
    ):
        super().__init__(k)
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        if k >= len(object_vertices):
            raise ConfigurationError(
                f"k={k} must be smaller than the number of data objects ({len(object_vertices)})"
            )
        if rho < 1.0:
            raise ConfigurationError("the prefetch ratio rho must be at least 1")
        if validation_mode not in self.VALIDATION_MODES:
            raise ConfigurationError(
                f"validation_mode must be one of {self.VALIDATION_MODES}, got {validation_mode!r}"
            )
        self._network = network
        self._rho = rho
        self._validation_mode = validation_mode
        self._search_stats = SearchStats()
        with self._stats.time_precomputation():
            self._voronoi = (
                voronoi
                if voronoi is not None
                else NetworkVoronoiDiagram(network, list(object_vertices), self._search_stats)
            )
        # Shared live views of the diagram's object storage: they grow as
        # objects are inserted and are patched in place by moves, so data
        # updates never copy per-object state into each registered query.
        self._object_vertices: Sequence[int] = self._voronoi.vertex_assignments
        population = self._voronoi.object_count()
        if k >= population:
            raise ConfigurationError(
                f"k={k} must be smaller than the number of active data objects ({population})"
            )
        self._prefetch_count = min(max(int(rho * k), k), population - 1)
        # Client-side state.
        self._R: List[int] = []
        self._ins: Set[int] = set()
        self._knn: List[int] = []
        # Derived from R, I(R) and the answer where they change
        # (_refresh_cached_sets), not per timestamp: the held pool R ∪ I(R),
        # the guard set pool \ kNN, and the Theorem 2 region — the edge ids
        # of the pool's Voronoi cells (None in "exact" mode).
        self._pool: Set[int] = set()
        self._guard: Set[int] = set()
        self._region: Optional[Set[int]] = None
        # Data-update delta accumulated since the last answer (pushed by the
        # road server); settled lazily on the next timestamp.
        self._state_stale = False
        self._force_refresh = False
        self._pending_changed: Set[int] = set()
        self._pending_removed: Set[int] = set()
        self._last_position: Optional[NetworkLocation] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        suffix = "" if self._validation_mode == "restricted" else "-exact"
        return f"INS-road{suffix}"

    @property
    def rho(self) -> float:
        """The prefetch ratio ρ."""
        return self._rho

    @property
    def prefetch_count(self) -> int:
        """The number of objects retrieved per server round trip (⌊ρk⌋)."""
        return self._prefetch_count

    @property
    def voronoi(self) -> NetworkVoronoiDiagram:
        """The precomputed order-1 network Voronoi diagram."""
        return self._voronoi

    @property
    def guard_set(self) -> Set[int]:
        """The current safe guarding objects: I(R) ∪ R \\ kNN."""
        return set(self._guard)

    @property
    def influential_set(self) -> Set[int]:
        """The current I(R)."""
        return set(self._ins)

    @property
    def prefetched_set(self) -> List[int]:
        """The current prefetched set R."""
        return list(self._R)

    @property
    def state_stale(self) -> bool:
        """True when a data-update delta is pending for the next timestamp."""
        return self._state_stale

    @property
    def last_position(self) -> Optional[NetworkLocation]:
        """The last query position processed (None before initialisation)."""
        return self._last_position

    # ------------------------------------------------------------------
    # Data-object updates (pushed by the road server)
    # ------------------------------------------------------------------
    def notify_data_update(
        self, changed: Iterable[int] = (), removed: Iterable[int] = ()
    ) -> None:
        """Record a diagram repair delta; settled lazily on the next timestamp.

        Args:
            changed: objects whose Voronoi neighbour sets (or cells) changed.
            removed: objects deleted from the data set.
        """
        self._pending_changed.update(changed)
        self._pending_removed.update(removed)
        self._state_stale = True

    def invalidate(self) -> None:
        """Blanket invalidation: force a full retrieval on the next timestamp.

        The serving engine's ``"flag"`` fallback mode (the pre-delta
        contract: every query refreshes fully on every epoch), kept as the
        oracle of the delta-equivalence tests.
        """
        self._force_refresh = True
        self._state_stale = True

    def _consume_data_updates(self, position: NetworkLocation) -> Optional[QueryResult]:
        """Settle the accumulated delta.

        Returns a full-recompute :class:`QueryResult` when the delta forced a
        retrieval, or None when the held state was refreshed (or untouched)
        and the normal validation flow should proceed.
        """
        changed = self._pending_changed
        removed = self._pending_removed
        force = self._force_refresh
        self._pending_changed = set()
        self._pending_removed = set()
        self._force_refresh = False
        self._state_stale = False
        if force or removed.intersection(self._R):
            # Blanket invalidation, or the prefetched set lost a member: R
            # no longer reflects the ⌊ρk⌋ nearest objects, recompute it.
            self._stats.validations += 1
            self._retrieve(position)
            return self._answer(
                self._held_distances(position), UpdateAction.FULL_RECOMPUTE, was_valid=False
            )
        pool = self._pool
        if removed & self._ins or changed & pool:
            # The delta touched the held region: re-derive I(R) and the
            # Theorem 2 region from the repaired shared diagram (a few
            # set unions — no kNN recomputation).  The validation
            # that follows certifies the held answer against the fresh
            # guard set, which is what makes this refresh sound.
            with self._stats.time_construction():
                self._ins = self._voronoi.influential_neighbor_set(self._R)
                self._stats.ins_refreshes += 1
                incoming = len(self._ins - pool)
                if incoming:
                    # New guard objects crossed the server-client boundary:
                    # that is a (small) communication event, charge it like
                    # a case-(i) incremental fetch so comm_events stays an
                    # honest round-trip count.
                    self._stats.transmitted_objects += incoming
                    self._stats.incremental_updates += 1
                self._refresh_cached_sets()
        else:
            # A delta outside the pool left every held neighbour set
            # unchanged: nothing to refresh, the normal validation is
            # already sound.  Free.
            self._stats.absorbed_updates += 1
        return None

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def _initialize(self, position: NetworkLocation) -> QueryResult:
        self._last_position = position
        self._state_stale = False
        self._force_refresh = False
        self._pending_changed = set()
        self._pending_removed = set()
        self._retrieve(position)
        return self._answer(
            self._held_distances(position), UpdateAction.FULL_RECOMPUTE, was_valid=False
        )

    def _update(self, position: NetworkLocation) -> QueryResult:
        self._last_position = position
        if self._state_stale:
            forced = self._consume_data_updates(position)
            if forced is not None:
                return forced
        with self._stats.time_validation():
            self._stats.validations += 1
            distances = self._held_distances(position)
            valid = self._is_valid(distances)
        action = UpdateAction.NONE
        if not valid:
            action = self._perform_update(position, distances)
            if action is UpdateAction.FULL_RECOMPUTE:
                # New R and I(R): search again.  A local reorder changed
                # neither the position nor the held set, so the distances
                # above still stand.
                distances = self._held_distances(position)
        return self._answer(distances, action, was_valid=valid)

    def _answer(
        self, distances: Dict[int, float], action: UpdateAction, was_valid: bool
    ) -> QueryResult:
        """The timestamp's result, reported from the held distances."""
        return QueryResult(
            timestamp=self.current_timestamp,
            knn=tuple(self._knn),
            knn_distances=tuple(distances[index] for index in self._knn),
            guard_objects=frozenset(self._guard),
            action=action,
            was_valid=was_valid,
        )

    # ------------------------------------------------------------------
    # INS machinery
    # ------------------------------------------------------------------
    def _retrieve(self, position: NetworkLocation) -> None:
        """Server round trip: recompute R, I(R) and the kNN set at ``position``."""
        with self._stats.time_construction():
            before = self._search_stats.settled_vertices
            # Deletions since registration may have shrunk the population
            # below the configured prefetch size; shrink the request, but
            # never below k.  The diagram's live vertex → objects map saves
            # the O(n) dictionary construction inside network_knn.
            count = max(self.k, min(self._prefetch_count, self._voronoi.object_count()))
            nearest = network_knn(
                self._network,
                self._object_vertices,
                position,
                count,
                stats=self._search_stats,
                objects_at_vertex=self._voronoi.vertex_objects(),
            )
            self._stats.settled_vertices += self._search_stats.settled_vertices - before
            self._R = [index for index, _ in nearest]
            self._ins = self._voronoi.influential_neighbor_set(self._R)
            self._knn = self._R[: self.k]
            self._stats.full_recomputations += 1
            self._stats.transmitted_objects += len(self._R) + len(self._ins)
            self._refresh_cached_sets()

    def _refresh_cached_sets(self) -> None:
        """Re-derive the held pool, guard set and Theorem 2 region.

        Called where R or I(R) change (a local reorder, which changes only
        the answer, patches the guard set itself).
        """
        self._pool = self._ins.union(self._R)
        self._guard = self._pool.difference(self._knn)
        if self._validation_mode == "restricted":
            self._region = self._voronoi.cell_edges(self._pool)

    def _held_distances(self, position: NetworkLocation) -> Dict[int, float]:
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
            self._pool,
            stats=self._search_stats,
            within=region,
        )
        self._stats.settled_vertices += self._search_stats.settled_vertices - before
        self._stats.distance_computations += len(self._pool)
        return distances

    def _is_valid(self, distances: Dict[int, float]) -> bool:
        """Validation: farthest kNN member vs nearest guard object."""
        guard = self._guard
        if not guard:
            return True
        farthest_knn = max(distances[index] for index in self._knn)
        nearest_guard = min(distances[index] for index in guard)
        return farthest_knn <= nearest_guard

    def _perform_update(
        self, position: NetworkLocation, distances: Dict[int, float]
    ) -> UpdateAction:
        """Recompose the answer from R when possible, else retrieve."""
        with self._stats.time_validation():
            # Top-k by a bounded heap instead of sorting all of R — the
            # same O(|R| log k) selection the Euclidean processor uses.
            candidate = heapq.nsmallest(
                self.k, self._R, key=lambda index: (distances[index], index)
            )
            guard = self._pool.difference(candidate)
            farthest = max(distances[index] for index in candidate)
            nearest_guard = min(distances[index] for index in guard) if guard else math.inf
            if math.isfinite(farthest) and farthest <= nearest_guard:
                self._knn = candidate
                self._guard = guard
                self._stats.local_reorders += 1
                return UpdateAction.LOCAL_REORDER
        self._retrieve(position)
        return UpdateAction.FULL_RECOMPUTE
