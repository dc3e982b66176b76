"""The INS moving-kNN processor in the 2-D Euclidean plane (Section III).

Protocol reproduced from the paper:

1. **Initial computation.**  When the query is issued at position ``q`` the
   server retrieves the ``⌊ρk⌋`` nearest objects ``R`` (ρ is the *prefetch
   ratio*) from the VoR-tree together with their influential neighbour set
   ``I(R)`` (assembled from the precomputed order-1 Voronoi neighbour lists).
   The top ``k`` objects of ``R`` are the reported kNN set; the rest of
   ``R`` plus ``I(R)`` act as the safe guarding objects (the IS).

2. **Validation** (Section III-A).  At every new position the client finds
   the farthest current kNN member (``r.delete``) and the nearest guard
   object (``r.candidate``).  The kNN set is still valid while
   ``d(q, r.delete) < d(q, r.candidate)``; this costs one distance
   evaluation per held object — linear in k — over coordinates laid out
   flat when the held set last changed.  The comparison is strict, here and
   in step 3: a tie is never a certificate (the rule retrieval uses too).

3. **Update** (Section III-B).  When validation fails the client first tries
   to recompose the kNN set from the prefetched set ``R`` alone (case (ii),
   "the new kNN set is still in R"): the candidate answer is the top-k of
   ``R`` by current distance, accepted only if it passes the same IS
   validation — which is sound because ``(R ∪ I(R)) \\ O'`` is a superset of
   ``INS(O')`` for any ``O' ⊆ R``.  A successful recomposition costs no
   communication.  Otherwise the new answer involves an object outside
   ``R`` and the server recomputes ``R`` and ``I(R)`` (case (ii) fallback /
   case (i) with an unknown neighbour list) — one :meth:`VoRTree.retrieve`,
   expanding from the nearest object of the ``R`` the client still holds.

**Data-object updates** arrive through :meth:`INSProcessor.notify_data_update`
(the serving engine pushes the VoR-tree's repair deltas).  The processor
does not reconstruct anything eagerly — it accumulates the delta and
settles it on its next timestamp, exactly like the road-side
:class:`~repro.core.ins_road.INSRoadProcessor`:

* a removal inside the prefetched set R invalidates R, so the next
  timestamp pays one full retrieval;
* any other delta touching the held pool (R ∪ I(R)) only refreshes I(R)
  from the already-patched shared neighbour lists (a few set unions).  This
  is sound because the INS guarantee is a statement about the *current*
  diagram: validation against a freshly derived I(R) certifies the held kNN
  set against the current data set, whatever changed;
* a delta that leaves the pool untouched is absorbed for free: if an
  unseen object were among the true kNN it would, by the Voronoi chain
  property, be a neighbour of some held object — and then the delta would
  have touched the pool.

The pre-delta behaviour (every update forces a full retrieval) survives as
:meth:`INSProcessor.invalidate`, the engine's ``"flag"`` fallback mode.

Cost accounting: every retrieval transmits ``|R| + |I(R)|`` objects; every
validation and local recomposition counts its distance computations.
"""

from __future__ import annotations

from math import hypot
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, QueryError
from repro.core.objects import QueryResult, UpdateAction
from repro.core.processor import MovingKNNProcessor
from repro.core.stats import ProcessorStats
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.obs.clock import clock as _clock


class INSProcessor(MovingKNNProcessor[Point]):
    """Influential-neighbour-set moving kNN processor (Euclidean space).

    Args:
        points: data-object positions; object ``i`` is ``points[i]``.
        k: number of nearest neighbours to maintain (``1 <= k < len(points)``).
        rho: prefetch ratio ρ ≥ 1.  ``⌊ρk⌋`` objects are retrieved per server
            round trip.  The paper's demo uses ρ = 1.6.
        vortree: optionally share a prebuilt VoR-tree between processors
            (e.g. across the parameter sweep of an experiment); when omitted
            one is built from ``points``.
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
        points: Sequence[Point],
        k: int,
        rho: float = 1.6,
        vortree: Optional[VoRTree] = None,
        allow_incremental: bool = False,
    ):
        super().__init__(k)
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        if k >= len(points):
            raise ConfigurationError(
                f"k={k} must be smaller than the number of data objects ({len(points)})"
            )
        if rho < 1.0:
            raise ConfigurationError("the prefetch ratio rho must be at least 1")
        self._rho = rho
        self._allow_incremental = allow_incremental
        with self._stats.time_precomputation():
            self._vortree = vortree if vortree is not None else VoRTree(list(points))
        # Cap the prefetch size by the *active* population (a shared tree
        # may already carry tombstones), not by the raw point count.
        population = len(self._vortree)
        if k >= population:
            raise ConfigurationError(
                f"k={k} must be smaller than the number of active data objects ({population})"
            )
        self._prefetch_count = min(max(int(rho * k), k), population - 1)
        # Live view of the server-side object positions: it grows as objects
        # are inserted, so data updates never copy the n-point list around.
        self._points: Sequence[Point] = self._vortree.positions
        # Client-side state.
        self._R: List[int] = []
        self._ins: Set[int] = set()
        self._knn: List[int] = []
        # Derived state, rebuilt only when R / I(R) / the answer change: the
        # guard set (pool \ kNN), and the pool R ∪ I(R) laid out flat — kNN,
        # then the rest of R, then I(R) — with coordinates (objects never move).
        self._guard: FrozenSet[int] = frozenset()
        self._held: List[int] = []
        self._held_xy: List[Tuple[float, float]] = []
        # Per-member Voronoi neighbour lists (``allow_incremental`` only).
        self._neighbor_lists: Dict[int, FrozenSet[int]] = {}
        # Data-update delta accumulated since the last answer (pushed by the
        # serving engine); settled lazily on the next timestamp.
        self._state_stale = False
        self._force_refresh = False
        self._pending_changed: Set[int] = set()
        self._pending_removed: Set[int] = set()
        self._last_position: Optional[Point] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "INS"

    @property
    def rho(self) -> float:
        """The prefetch ratio ρ."""
        return self._rho

    @property
    def prefetch_count(self) -> int:
        """The number of objects retrieved per server round trip (⌊ρk⌋)."""
        return self._prefetch_count

    @property
    def prefetched_set(self) -> List[int]:
        """The current prefetched set R (object indexes, nearest first at retrieval time)."""
        return list(self._R)

    @property
    def influential_set(self) -> Set[int]:
        """The current I(R)."""
        return set(self._ins)

    @property
    def guard_set(self) -> Set[int]:
        """The current safe guarding objects: I(R) ∪ R \\ kNN."""
        return set(self._guard)

    @property
    def vortree(self) -> VoRTree:
        """The server-side VoR-tree (shared across processors in sweeps)."""
        return self._vortree

    @property
    def allow_incremental(self) -> bool:
        """Whether case (i) single-object incremental updates are enabled."""
        return self._allow_incremental

    @property
    def state_stale(self) -> bool:
        """True when a data-update delta is pending for the next timestamp."""
        return self._state_stale

    @property
    def last_position(self) -> Optional[Point]:
        """The last query position processed (None before initialisation)."""
        return self._last_position

    # ------------------------------------------------------------------
    # Data-object updates (Section III, last paragraph)
    # ------------------------------------------------------------------
    def notify_data_update(
        self, changed: Iterable[int] = (), removed: Iterable[int] = ()
    ) -> None:
        """Record a VoR-tree repair delta; settled lazily on the next timestamp.

        Args:
            changed: objects whose Voronoi neighbour lists changed.
            removed: objects deleted from the data set.
        """
        self._pending_changed.update(changed)
        self._pending_removed.update(removed)
        self._state_stale = True

    def invalidate(self) -> None:
        """Blanket invalidation: force a full retrieval on the next timestamp.

        This is the pre-delta contract (every registered query refreshes on
        every epoch), kept as the serving engine's ``"flag"`` fallback mode
        and as the oracle of the delta-equivalence tests.
        """
        self._force_refresh = True
        self._state_stale = True

    def insert_object(self, point: Point) -> int:
        """Insert a new data object at ``point`` and return its object index.

        The server-side VoR-tree is updated incrementally and the repair
        delta is queued for the client-held answer, which settles it lazily
        on the next timestamp.  (``self._points`` is a live view of the
        tree's storage, so no position list is copied.)
        """
        with self._stats.time_construction():
            index, changed = self._vortree.insert(point)
        self.notify_data_update(changed)
        return index

    def delete_object(self, index: int) -> bool:
        """Delete data object ``index`` (returns False when it did not exist)."""
        with self._stats.time_construction():
            removed, changed = self._vortree.delete(index)
        if removed:
            self.notify_data_update(changed, (index,))
        return removed

    def _consume_data_updates(self, position: Point) -> Optional[QueryResult]:
        """Settle the accumulated data-update delta.

        Returns a full-recompute :class:`QueryResult` when the delta forced
        a retrieval, or None when the held state was refreshed (or
        untouched) and the normal validation flow should proceed.
        """
        changed = self._pending_changed
        removed = self._pending_removed
        force = self._force_refresh or self._vortree.coincident
        self._pending_changed = set()
        self._pending_removed = set()
        self._force_refresh = False
        self._state_stale = False
        if force or removed.intersection(self._R):
            # Blanket invalidation, or the prefetched set lost a member: R
            # no longer reflects the ⌊ρk⌋ nearest objects, recompute it.
            self._stats.validations += 1
            survivors = (i for i in self._R if self._vortree.is_active(i))
            self._retrieve(position, next(survivors, None))
            return self._answer(position, UpdateAction.FULL_RECOMPUTE)
        if removed & self._ins or not changed.isdisjoint(self._held):
            # The delta touched the held region: re-derive I(R) (and the
            # neighbour lists the incremental mode relies on) from the
            # already-patched shared tree — a few set unions, no kNN
            # recomputation.  The validation that follows certifies the
            # held answer against the fresh guard set, which is what makes
            # this refresh sound.
            with self._stats.time_construction():
                if self._allow_incremental:
                    for member in changed.intersection(self._R):
                        self._neighbor_lists[member] = self._vortree.voronoi_neighbors(member)
                self._ins = self._vortree.influential_neighbor_set(self._R)
                self._stats.ins_refreshes += 1
                incoming = len(self._ins.difference(self._held))
                if incoming:
                    # New guard objects crossed the server-client boundary:
                    # charge them like a case-(i) incremental fetch so
                    # comm_events stays an honest round-trip count.
                    self._stats.transmitted_objects += incoming
                    self._stats.incremental_updates += 1
                self._refresh_cached_sets()
        else:
            # The delta missed the pool: every held neighbour list is
            # unchanged, so the guard set the next validation uses is
            # already the correct one.  Free.
            self._stats.absorbed_updates += 1
        return None

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def _initialize(self, position: Point) -> QueryResult:
        self._last_position = position
        self._state_stale = False
        self._force_refresh = False
        self._pending_changed = set()
        self._pending_removed = set()
        self._retrieve(position)
        return self._answer(position, UpdateAction.FULL_RECOMPUTE)

    def _update(self, position: Point) -> QueryResult:
        self._last_position = position
        if self._state_stale or self._vortree.coincident:
            # The data set changed since the last answer (settle the delta), or
            # holds coincident objects (no validation is sound: retrieve).
            forced = self._consume_data_updates(position)
            if forced is not None:
                return forced
        # Section III-A validation: the farthest kNN member must be strictly
        # nearer than the nearest guard object (see the module docstring).
        stats = self._stats
        started = _clock()
        stats.validations += 1
        distances = self._held_distances(position)
        k = self._k
        valid = not self._guard or max(distances[:k]) < min(distances[k:])
        stats.validation_seconds += _clock() - started
        if valid:
            return self._answer(position, UpdateAction.NONE, tuple(distances[:k]))
        return self._answer(position, self._perform_update(position, distances))

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if "_held_xy" not in state:
            # Pickled before the flat layout existed: it is derived state.
            self._refresh_cached_sets()

    # ------------------------------------------------------------------
    # INS machinery
    # ------------------------------------------------------------------
    def _answer(self, position: Point, action: UpdateAction, distances=None) -> QueryResult:
        """The current answer; ``distances`` when the caller already has them."""
        if distances is None:
            px, py = position.x, position.y
            distances = tuple(hypot(px - x, py - y) for x, y in self._held_xy[: self._k])
        return QueryResult(
            timestamp=self._timestamp,
            knn=tuple(self._knn),
            knn_distances=distances,
            guard_objects=self._guard,
            action=action,
            was_valid=action is UpdateAction.NONE,
        )

    def _retrieve(self, position: Point, hint: Optional[int] = None) -> None:
        """Server round trip: recompute R, I(R) and the kNN set, expanding from ``hint``."""
        with self._stats.time_construction():
            self._vortree.rtree.reset_counters()
            # Deletions since construction may have shrunk the population
            # below the configured prefetch size; shrink the request, but
            # never below k — if fewer than k objects remain, the VoR-tree
            # raises its loud QueryError rather than silently under-filling
            # the answer.
            count = max(self.k, min(self._prefetch_count, len(self._vortree)))
            nearest, ins = self._vortree.retrieve(position, count, hint)
            self._stats.index_node_accesses += self._vortree.rtree.node_accesses
            self._R = nearest
            self._ins = ins
            self._knn = nearest[: self.k]
            if self._allow_incremental:
                self._neighbor_lists = {
                    index: self._vortree.voronoi_neighbors(index) for index in nearest
                }
            self._stats.full_recomputations += 1
            self._stats.transmitted_objects += len(self._R) + len(self._ins)
            self._refresh_cached_sets()

    def _refresh_cached_sets(self) -> None:
        """Re-derive the flat layout of the pool and the guard set."""
        knn = self._knn
        held = knn + [index for index in self._R if index not in knn] + list(self._ins)
        points = self._points
        self._guard = frozenset(held[len(knn) :])
        self._held = held
        self._held_xy = [(points[index].x, points[index].y) for index in held]

    def _held_distances(self, position: Point) -> List[float]:
        """Distances in ``_held`` order; the floats of ``position.distance_to(point)``."""
        self._stats.distance_computations += len(self._held_xy)
        px, py = position.x, position.y
        return [hypot(px - x, py - y) for x, y in self._held_xy]

    def _recompose(self, distances: List[float]) -> bool:
        """Make the top-k of R by ``(distance, index)`` the answer — if the
        rest of the pool certifies it (strictly: a tie certifies nothing)."""
        k = self._k
        count = len(self._R)
        ranked = sorted(zip(distances[:count], self._held))
        guards = [distance for distance, _ in ranked[k:]] + distances[count:]
        if guards and not ranked[k - 1][0] < min(guards):
            return False
        self._knn = [index for _, index in ranked[:k]]
        self._refresh_cached_sets()
        return True

    def _perform_update(self, position: Point, distances: List[float]) -> UpdateAction:
        """Section III-B update: recompose from R when possible, else retrieve."""
        started = _clock()
        recomposed = self._recompose(distances)
        self._stats.validation_seconds += _clock() - started
        if recomposed:
            # Case (ii), first branch: the new kNN set is still inside R.
            self._stats.local_reorders += 1
            return UpdateAction.LOCAL_REORDER
        if self._allow_incremental and self._incremental_update(position):
            return UpdateAction.INCREMENTAL
        # Case (i) with an unknown neighbour list or case (ii) fallback: the
        # answer involves an object outside R; recompute R and I(R), from
        # the nearest member of the R already held.
        self._retrieve(position, min(zip(distances, self._held[: len(self._R)]))[1])
        return UpdateAction.FULL_RECOMPUTE

    def _incremental_update(self, position: Point) -> bool:
        """Case (i): compose the new answer by single-object swaps.

        Each swap replaces the farthest current member of R with the nearest
        guard object and fetches only that object's Voronoi neighbour list
        from the server.  The swap loop stops as soon as the recomposed
        answer passes the IS validation again (success) or after
        :data:`MAX_INCREMENTAL_SWAPS` swaps (failure — the caller falls back
        to a full retrieval).  Returns True on success.
        """
        saved_R = list(self._R)
        saved_lists = dict(self._neighbor_lists)
        saved_knn = list(self._knn)
        transmitted = 0
        for _ in range(self.MAX_INCREMENTAL_SWAPS):
            distances = self._held_distances(position)
            if self._recompose(distances):
                self._stats.incremental_updates += 1
                self._stats.transmitted_objects += transmitted
                return True
            if not self._ins:
                break
            # Swap the farthest R member for the nearest outside guard object
            # and fetch the incomer's neighbour list (1 + |N| objects).
            count = len(self._R)
            outgoing = max(zip(distances[:count], self._held))[1]
            incoming = min(zip(distances[count:], self._held[count:]))[1]
            with self._stats.time_construction():
                incoming_neighbors = self._vortree.voronoi_neighbors(incoming)
            transmitted += 1 + len(incoming_neighbors)
            self._R = [index for index in self._R if index != outgoing] + [incoming]
            # The flat layout needs kNN ⊆ R; the next recomposition refills it.
            self._knn = [index for index in self._knn if index != outgoing]
            self._neighbor_lists.pop(outgoing, None)
            self._neighbor_lists[incoming] = incoming_neighbors
            self._ins = set().union(*self._neighbor_lists.values()) - set(self._R)
            self._refresh_cached_sets()
        # Could not stabilise within the swap budget: restore and report failure.
        self._R = saved_R
        self._neighbor_lists = saved_lists
        self._knn = saved_knn
        self._ins = set().union(*self._neighbor_lists.values()) - set(self._R)
        self._refresh_cached_sets()
        return False
