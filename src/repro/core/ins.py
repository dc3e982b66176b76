"""The INS moving-kNN protocol (Section III), written once for both metrics.

Theorem 1 exists so that the validation rule is *unchanged* on a road
network: :class:`InfluentialSetProcessor` is the one algorithm, and a metric
(:class:`~repro.core.ins_euclidean.INSProcessor` on the plane,
:class:`~repro.core.ins_road.INSRoadProcessor` on a network) supplies its
index, one retrieval, the distances to the held objects and a tie rule.

1. **Initial computation.**  When the query is issued at position ``q`` the
   server retrieves the ``⌊ρk⌋`` nearest objects ``R`` (ρ is the *prefetch
   ratio*) together with their influential neighbour set ``I(R)``
   (assembled from the precomputed order-1 Voronoi neighbour lists).  The
   top ``k`` objects of ``R`` are the reported kNN set; the rest of ``R``
   plus ``I(R)`` act as the safe guarding objects (the IS).

2. **Validation** (Section III-A).  At every new position the client finds
   the farthest current kNN member (``r.delete``) and the nearest guard
   object (``r.candidate``).  The kNN set is still valid while ``r.delete``
   is nearer than ``r.candidate`` — which asks whether a guard is nearer
   than the answer, never how far each guard is (see the contract below).

3. **Update** (Section III-B).  When validation fails the client first tries
   to recompose the kNN set from the prefetched set ``R`` alone (case (ii),
   "the new kNN set is still in R"): the candidate answer is the top-k of
   ``R`` by ``(distance, index)``, accepted only if it passes the same IS
   validation — which is sound because ``(R ∪ I(R)) \\ O'`` is a superset of
   ``INS(O')`` for any ``O' ⊆ R``.  A successful recomposition costs no
   communication.  Otherwise the new answer involves an object outside
   ``R`` and the server recomputes ``R`` and ``I(R)``.

**The tie rule** is where the metrics differ.  The plane's triangulation
splits degenerate input by a jitter, so there a tie is never a certificate
(strict ``<``, as in retrieval); the network diagram is exact and ties are
everyday on a grid, so there a tie certifies too — but only where the
query lies in a held cell.

**The held-distance contract.**  ``_held_distances`` is exact for every held
object no farther than D, the farthest current kNN member — ties at D
included — and may read ``inf`` beyond.  The plane returns them all (one C
``math.dist`` loop is cheaper than deciding); a network search settles in
distance order, so it stops after the ties at D.  No verdict can tell.
*Validation* compares D with the nearest guard: a guard at ``inf`` in place
of its true d > D cannot flip that.  *Recomposition* ranks R by ``(distance,
index)``: kNN ⊆ R gives at least k entries ≤ D, so the top k and
``farthest`` ≤ D are exact — a member tied *at* D included, which keeps the
``index`` tie-break — and every ``inf`` stands for a distance > D, so the
certificate agrees.  The *retrieval hint* is R's nearest member, exact.  A
kNN member that itself reads ``inf`` (unreachable inside a road region) has
exhausted the search: every reachable held object is exact, D is ``inf``.

**Data-object updates** arrive through ``notify_data_update`` (the serving
engine pushes the shared index's repair deltas), are judged against R and
I(R) on arrival and settle at the next timestamp with one of three outcomes:

* a removal inside the prefetched set R invalidates R, so the next
  timestamp pays one full retrieval;
* a delta whose ``changed`` meets R refreshes I(R) from the
  already-repaired shared index (a few set unions): validation against a
  freshly derived I(R) certifies the held kNN set against the current data
  set, whatever changed;
* every other delta is absorbed for free — with nothing else queued, on
  arrival: it keeps only the stale mark, and the next timestamp counts the
  absorb.  I(R) is R's neighbour lists minus R (Definition 4), so only a
  delta naming a member of R changes it (adjacency is symmetric: an object
  leaving I(R) names a member too).  If an unseen object were among the
  true kNN it would, by the Voronoi chain property, be a neighbour of a kNN
  member, whose list then changed, so the delta names a member of R.

No mode refreshes every session on every epoch: the rule answers to brute
force instead (``tests/service/test_service_machine.py`` drives a service
through opens, moves, churn, checkpoints and crashes, and checks every
answer against its own model of the population).

Cost accounting: every retrieval transmits ``|R| + |I(R)|`` objects; every
validation and local recomposition counts its distance computations.
"""

from __future__ import annotations

import abc
from math import inf
from typing import AbstractSet, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.core.objects import QueryResult, UpdateAction
from repro.core.processor import MovingKNNProcessor, PositionT
from repro.obs.clock import SOURCE as _CLOCK


class InfluentialSetProcessor(MovingKNNProcessor[PositionT]):
    """The INS protocol over any index with Voronoi neighbour lists.

    Args:
        k: number of nearest neighbours to maintain.
        rho: prefetch ratio ρ ≥ 1 (``⌊ρk⌋`` objects retrieved per round trip).
        index: the live index the query is served from; the prefetch is
            sized by its *active* population (it may carry tombstones).
    """

    def __init__(self, k: int, rho: float, index):
        super().__init__(k)
        population = len(index)
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        if k >= population:
            raise ConfigurationError(
                f"k={k} must be smaller than the number of active data objects ({population})"
            )
        if rho < 1.0:
            raise ConfigurationError("the prefetch ratio rho must be at least 1")
        self._rho = rho
        self._index = index
        self._prefetch_count = min(max(int(rho * k), k), population - 1)
        # Client-side state.
        self._R: List[int] = []
        self._ins: Set[int] = set()
        # The answer, a tuple reassigned only where it changes: a validated
        # timestamp reports the previous answer's tuple itself.
        self._knn: Tuple[int, ...] = ()
        # Derived where R / I(R) / the answer change (_refresh_held), not per
        # timestamp: the pool R ∪ I(R) laid out flat — kNN, then the rest of
        # R, then I(R) — and the guard set (pool \ kNN).
        self._held: List[int] = []
        self._guard: FrozenSet[int] = frozenset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # What a metric supplies
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _fetch(self, position: PositionT, count: int, hint: Optional[int]):
        """One retrieval, ``(R, I(R), d(R))``: the ``count`` nearest objects, nearest
        first, their INS and their distances.  ``hint`` is an object still held."""

    @abc.abstractmethod
    def _held_distances(self, position: PositionT) -> List[float]:
        """Distances in ``_held`` order (counted): exact up to the farthest
        current kNN member, ties included; exact or ``inf`` beyond it."""

    def _held_changed(self) -> None:
        """Re-derive what the metric keeps beside ``_held``."""

    def _tie_certifies(self) -> bool:
        """Whether a guard tied with the farthest answer certifies it: on the
        plane never (the triangulation's jitter splits every tie)."""
        return False

    def _refresh_ins(self, changed: AbstractSet[int]) -> None:
        """Re-derive I(R) from the already-repaired shared index."""
        self._ins = self._index.influential_neighbor_set(self._R)

    def _incremental_update(self, position: PositionT) -> Optional[Sequence[float]]:
        """Case (i), where a metric has it: the answer's distances on success."""
        return None

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def _initialize(self, position: PositionT) -> QueryResult:
        self._take_pending()
        return self._retrieve(position, None)

    def _update(self, position: PositionT) -> QueryResult:
        if self._state_stale:
            # The data set changed since the last answer: settle the delta.
            forced = self._consume_data_updates(position)
            if forced is not None:
                return forced
        # Section III-A validation: the farthest kNN member against the
        # nearest guard object, by the metric's tie rule.
        stats = self._stats
        started = _CLOCK[0]()
        stats.validations += 1
        distances = self._held_distances(position)
        k = self._k
        farthest, nearest = max(distances[:k]), min(distances[k:], default=inf)
        tied = farthest == nearest and self._tie_certifies()
        valid = not self._guard or farthest < nearest or tied
        stats.validation_seconds += _CLOCK[0]() - started
        if valid:
            return self._answer(UpdateAction.NONE, distances[:k])
        return self._perform_update(position, distances)

    def _reaches(self, changed: AbstractSet[int], removed: AbstractSet[int]) -> bool:
        """Whether a delta can change R or I(R): it names a member of R.  A
        removed object of I(R) neighbours a member, whose list it changed, so
        the index names that member too.  One that does not is absorbed."""
        R = self._R
        return not (changed.isdisjoint(R) and removed.isdisjoint(R))

    def notify_data_update(self, changed: Iterable[int] = (), removed: Iterable[int] = ()) -> None:
        """Queue a delta, unless nothing is pending and it misses R and I(R) —
        one the next settle would absorb: that keeps only the stale mark."""
        if self._pending is None:
            changed, removed = frozenset(changed), frozenset(removed)
            if not self._reaches(changed, removed):
                self._state_stale = True
                return
        super().notify_data_update(changed, removed)

    def _consume_data_updates(self, position: PositionT) -> Optional[QueryResult]:
        """Settle the pending delta: the full-recompute :class:`QueryResult` if it
        forced a retrieval, else None (I(R) refreshed or the delta absorbed)."""
        if self._pending is None:
            # Every delta since the last settle missed R (a queued pair
            # reaches it: only a reaching delta starts one, and merging only
            # grows it), so every member's neighbour list, hence I(R) and
            # the guard set the validation uses, is as it was.  Free.
            self._state_stale = False
            self._stats.absorbed_updates += 1
            return None
        changed, removed = self._take_pending()
        if not removed.isdisjoint(self._R):
            # The prefetched set lost a member: R no longer reflects the
            # ⌊ρk⌋ nearest objects, recompute it — from a member the
            # client still holds, if one survives.
            self._stats.validations += 1
            survivors = (member for member in self._R if self._index.is_active(member))
            return self._retrieve(position, next(survivors, None))
        # The delta named a member of R, so I(R) may differ: re-derive it
        # from the shared index, no kNN recomputation.  The validation that
        # follows certifies the held answer against the fresh guard set.
        started = _CLOCK[0]()
        self._refresh_ins(changed)
        self._stats.ins_refreshes += 1
        incoming = len(self._ins.difference(self._held))
        if incoming:
            # New guard objects crossed the server-client boundary:
            # charge them like a case-(i) incremental fetch so
            # comm_events stays an honest round-trip count.
            self._stats.transmitted_objects += incoming
            self._stats.incremental_updates += 1
        self._refresh_held()
        self._stats.construction_seconds += _CLOCK[0]() - started
        return None

    # ------------------------------------------------------------------
    # INS machinery
    # ------------------------------------------------------------------
    def _answer(self, action: UpdateAction, distances: Sequence[float]) -> QueryResult:
        """The timestamp's result; ``distances`` are the current answer's."""
        # Positional, in field order: keywords cost the valid path a lookup each.
        return QueryResult(
            self._timestamp,
            self._knn,
            tuple(distances),
            self._guard,
            action,
            action is UpdateAction.NONE,
        )

    def _retrieve(self, position: PositionT, hint: Optional[int]) -> QueryResult:
        """Server round trip: recompute R, I(R) and the kNN set, and answer."""
        started = _CLOCK[0]()
        # Deletions may have shrunk the population below the prefetch size:
        # shrink the request, but never below k — with fewer than k objects
        # left the index raises its loud QueryError, never under-fills.
        k = self._k
        count = max(k, min(self._prefetch_count, len(self._index)))
        self._R, self._ins, distances = self._fetch(position, count, hint)
        self._knn = tuple(self._R[:k])
        self._stats.full_recomputations += 1
        self._stats.transmitted_objects += len(self._R) + len(self._ins)
        self._refresh_held()
        self._stats.construction_seconds += _CLOCK[0]() - started
        return self._answer(UpdateAction.FULL_RECOMPUTE, distances[:k])

    def _refresh_held(self) -> None:
        """Re-derive the flat layout of the pool and the guard set."""
        knn = self._knn
        members = set(knn)
        held = [*knn, *(index for index in self._R if index not in members), *self._ins]
        self._guard = frozenset(held[len(knn) :])
        self._held = held
        self._held_changed()

    def _recompose(self, distances: List[float]) -> Optional[List[float]]:
        """Make the top-k of R by ``(distance, index)`` the answer — if the
        rest of the pool certifies it — and return its distances, else None."""
        k = self._k
        count = len(self._R)
        ranked = sorted(zip(distances[:count], self._held))
        farthest = ranked[k - 1][0]
        guards = [distance for distance, _ in ranked[k:]] + distances[count:]
        nearest = min(guards, default=inf)
        tied = farthest == nearest and self._tie_certifies()
        if not farthest < inf or not (farthest < nearest or tied):
            return None
        self._knn = tuple([index for _, index in ranked[:k]])
        self._refresh_held()
        return [distance for distance, _ in ranked[:k]]

    def _perform_update(self, position: PositionT, distances: List[float]) -> QueryResult:
        """Section III-B update: recompose from R when possible, else retrieve."""
        started = _CLOCK[0]()
        recomposed = self._recompose(distances)
        self._stats.validation_seconds += _CLOCK[0]() - started
        if recomposed is not None:
            # Case (ii), first branch: the new kNN set is still inside R.  The
            # position and the pool stand, so the validation's distances do too.
            self._stats.local_reorders += 1
            return self._answer(UpdateAction.LOCAL_REORDER, recomposed)
        swapped = self._incremental_update(position)
        if swapped is not None:
            return self._answer(UpdateAction.INCREMENTAL, swapped)
        # Case (i) with an unknown neighbour list or case (ii) fallback: the
        # answer involves an object outside R; recompute R and I(R), from
        # the nearest member of the R already held.
        return self._retrieve(position, min(zip(distances, self._held[: len(self._R)]))[1])
