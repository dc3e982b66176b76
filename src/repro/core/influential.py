"""Influential sets: IS, MIS and INS (Definitions 1–4 of the paper).

This module collects the set-level machinery the INS algorithm is built on,
independent of any particular processor:

* :func:`is_closer_set` — the ``A ≺_q B`` relation ("every object of A is
  closer to q than every object of B").
* :func:`verify_influential_set` — an oracle check of Definition 1 used by
  the tests: a candidate guard set S is an influential set of a kNN set O'
  exactly when, for every probed query position, ``O' = NN_k(q)`` holds if
  and only if ``O' ≺_q S``.
* :func:`minimal_influential_set` — the MIS (Definition 2), extracted from
  the exact order-k Voronoi cell.
* :func:`influential_neighbor_set` — the INS (Definition 4), the union of
  the order-1 Voronoi neighbour sets of the kNN members minus the members.
* :class:`InfluentialSetMonitor` — a small stateful wrapper that keeps the
  INS of a fixed member set current under data updates, speaking the
  serving engine's delta-invalidation contract (``notify_data_update`` /
  ``invalidate``) so it can be driven side by side with the processors.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Set

from repro.errors import QueryError
from repro.core.processor import DeltaMailbox
from repro.core.stats import ProcessorStats
from repro.geometry.delaunay import delaunay_neighbors
from repro.geometry.order_k import knn_indexes, order_k_cell
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox
from repro.geometry.voronoi import influential_neighbor_indexes as _ins_from_map


def is_closer_set(
    query: Point,
    closer: Iterable[Point],
    farther: Iterable[Point],
) -> bool:
    """The ``A ≺_q B`` relation of Definition 1.

    Returns True when every point of ``closer`` is at most as far from
    ``query`` as every point of ``farther``.  An empty ``farther`` set makes
    the relation trivially true; an empty ``closer`` set likewise.
    """
    closer_list = list(closer)
    farther_list = list(farther)
    if not closer_list or not farther_list:
        return True
    max_close = max(query.distance_to(p) for p in closer_list)
    min_far = min(query.distance_to(p) for p in farther_list)
    return max_close <= min_far


def influential_neighbor_set(
    neighbor_map: Mapping[int, Set[int]], members: Iterable[int]
) -> Set[int]:
    """The INS of ``members`` given a precomputed Voronoi neighbour map.

    Definition 4: the union of the order-1 Voronoi neighbour sets of the
    members, minus the members themselves.  Works identically for Euclidean
    Voronoi neighbour maps and network Voronoi neighbour maps.
    """
    return _ins_from_map(neighbor_map, members)


def influential_neighbor_set_from_points(
    sites: Sequence[Point], members: Iterable[int]
) -> Set[int]:
    """The INS computed directly from site coordinates (builds the dual)."""
    return influential_neighbor_set(delaunay_neighbors(sites), members)


def minimal_influential_set(
    sites: Sequence[Point],
    members: Iterable[int],
    reference: Optional[Point] = None,
    bounding_box: Optional[BoundingBox] = None,
) -> Set[int]:
    """The MIS of ``members`` (Definition 2).

    The MIS consists of the objects owning order-k Voronoi cells adjacent to
    the cell of ``members``; it is recovered from the exact order-k cell
    boundary (see :mod:`repro.geometry.order_k`).

    Note that when the cell is clipped by the bounding box (the true cell is
    unbounded), the returned set only covers neighbours across the bisector
    edges that remain inside the box — which is the correct MIS restricted
    to the modelled data space.
    """
    cell = order_k_cell(sites, members, reference=reference, bounding_box=bounding_box)
    return set(cell.mis_indexes)


class InfluentialSetMonitor(DeltaMailbox):
    """Keep the INS of a fixed member set current under data updates.

    The functional helpers above answer one-shot questions; this class is
    their continuous counterpart for a *pinned* member set (e.g. a watched
    group of facilities): it caches the INS, accepts the serving engine's
    repair deltas through :meth:`notify_data_update`, and only rebuilds the
    Voronoi diagram when a delta actually touches the members or their
    current influential neighbours — everything else is absorbed, exactly
    like the processors' lazy settling.  (The INS of the members is a
    function of the members' neighbour lists, so a delta that touches
    neither a member nor a current influential neighbour cannot change the
    answer.)  :meth:`invalidate` restores the blanket ``"flag"`` behaviour
    (rebuild on next read), which is the oracle the delta path is tested
    against.

    Args:
        sites: the live data-object positions (the monitor re-reads this
            sequence on every rebuild, so in-place mutation is the expected
            update style).
        members: the fixed member indexes whose INS is monitored.
    """

    def __init__(self, sites: Sequence[Point], members: Iterable[int]):
        super().__init__()
        self._sites = sites
        self._members = tuple(sorted(set(members)))
        if not self._members:
            raise QueryError("the monitored member set must not be empty")
        out_of_range = [i for i in self._members if i < 0 or i >= len(sites)]
        if out_of_range:
            raise QueryError(f"member indexes out of range: {out_of_range}")
        self._removed: Set[int] = set()
        self._ins: Optional[FrozenSet[int]] = None
        self._stats = ProcessorStats()

    @property
    def members(self) -> Sequence[int]:
        """The pinned member indexes (sorted, immutable)."""
        return self._members

    @property
    def stats(self) -> ProcessorStats:
        """Rebuild/absorption counters (``full_recomputations``,
        ``absorbed_updates``, ``transmitted_objects``)."""
        return self._stats

    def influential_sites(self) -> FrozenSet[int]:
        """The current INS of the member set (settling any pending delta).

        Raises:
            QueryError: when a settled delta removed one of the pinned
                members — the monitored set no longer exists.
        """
        if self._state_stale:
            self._settle_pending()
        if self._ins is None:
            self._rebuild()
        return self._ins  # type: ignore[return-value]

    def _settle_pending(self) -> None:
        changed, removed, force = self._take_pending()
        self._removed.update(removed)
        lost = removed.intersection(self._members)
        if lost:
            raise QueryError(
                f"monitored members {sorted(lost)} were removed from the data set"
            )
        if force or self._ins is None:
            self._ins = None
            return
        watched = set(self._members) | set(self._ins)
        touched = (changed | removed) & watched
        if touched:
            self._ins = None
        else:
            # The delta cannot change any member's Voronoi neighbour list:
            # both its endpoints sit outside the watched neighbourhood.
            self._stats.absorbed_updates += 1

    def _rebuild(self) -> None:
        active = [
            index for index in range(len(self._sites)) if index not in self._removed
        ]
        local_of = {index: local for local, index in enumerate(active)}
        missing = [i for i in self._members if i not in local_of]
        if missing:
            raise QueryError(
                f"monitored members {missing} are gone from the data set"
            )
        with self._stats.timed("construction_seconds"):
            local_ins = influential_neighbor_set_from_points(
                [self._sites[index] for index in active],
                [local_of[index] for index in self._members],
            )
        self._ins = frozenset(active[local] for local in local_ins)
        self._stats.full_recomputations += 1
        self._stats.transmitted_objects += len(self._ins)


def verify_influential_set(
    sites: Sequence[Point],
    members: Iterable[int],
    guard: Iterable[int],
    probes: Iterable[Point],
) -> bool:
    """Oracle check of Definition 1 over a set of probe positions.

    For every probe position q the equivalence
    ``members == NN_k(q)  <=>  members ≺_q guard`` must hold.  Ties (probe
    positions where the k-th and (k+1)-th distances coincide) are skipped,
    since at a tie both kNN sets are legitimate answers.

    Returns True when no probe violates the equivalence.
    """
    member_list = sorted(set(members))
    guard_list = sorted(set(guard))
    if set(member_list) & set(guard_list):
        raise QueryError("guard set must be disjoint from the member set")
    k = len(member_list)
    member_points = [sites[i] for i in member_list]
    guard_points = [sites[i] for i in guard_list]
    for probe in probes:
        true_knn = set(knn_indexes(sites, probe, k))
        distances = sorted(probe.distance_to(p) for p in sites)
        if k < len(sites):
            gap = distances[k] - distances[k - 1]
            if gap <= 1e-9 * max(distances[k], 1.0):
                continue
        is_knn = true_knn == set(member_list)
        is_guarded = is_closer_set(probe, member_points, guard_points)
        if is_knn != is_guarded:
            return False
    return True
