"""Order-k Voronoi cell safe-region baseline.

This is the classical "strict safe region" approach the paper's introduction
attributes to the earlier Voronoi-cell-based studies [2], [6]: after
computing the kNN set, also compute its exact order-k Voronoi cell; the kNN
set stays valid exactly as long as the query remains inside that polygon, so
the recomputation frequency is provably minimal.  The price is the
construction overhead — the cell is the intersection of many bisector
half-planes and has to be rebuilt after every recomputation.

Validation, on the other hand, is very cheap: a single point-in-convex-
polygon test per timestamp.

This baseline therefore bounds what INS must match on recomputation counts
(both methods share the same implicit safe region) while INS avoids the
polygon construction entirely — which is precisely the claim experiment E7
checks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.errors import ConfigurationError, QueryError
from repro.baselines.policies import PlaneSearch
from repro.core.objects import QueryResult, UpdateAction
from repro.core.processor import MovingKNNProcessor
from repro.geometry.order_k import OrderKCell, order_k_cell
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox

#: Relative tolerance of the vertex-invasion test (see ``_cell_invaded``).
_INVASION_TOLERANCE = 1e-9


class OrderKSafeRegionProcessor(PlaneSearch, MovingKNNProcessor[Point]):
    """Exact order-k Voronoi cell safe-region baseline (Euclidean space).

    The safe-region polygons are clipped to the box around the data,
    expanded by its larger side (at least 1), as in the geometry package.

    Args:
        points: data-object positions.
        k: number of nearest neighbours to report.
    """

    def __init__(self, points: Sequence[Point], k: int):
        super().__init__(k)
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        if k >= len(points):
            raise ConfigurationError(
                f"k={k} must be smaller than the number of data objects ({len(points)})"
            )
        # Keep the caller's sequence as the live source of truth: a data
        # update mutates it in place, and a stale recompute re-syncs the
        # private copy from it (the pre-hooks behaviour — a frozen copy —
        # survives for callers that never call notify_data_update).
        self._source: Sequence[Point] = points
        self._load(points)
        box = BoundingBox.from_points(self._points)
        self._bounding_box = box.expanded(max(box.width, box.height, 1.0))
        self._knn: List[int] = []
        self._cell: Optional[OrderKCell] = None
        self._removed: Set[int] = set()
        self._index_stale = False

    @property
    def name(self) -> str:
        return "OrderK-SR"

    @property
    def safe_region(self) -> Optional[OrderKCell]:
        """The current safe region (None before initialisation)."""
        return self._cell

    # ------------------------------------------------------------------
    # Data-object updates (the base class's mailbox; here ``changed`` also
    # names objects whose positions changed in the source sequence)
    # ------------------------------------------------------------------
    def _cell_invaded(self, changed: Set[int], removed: Set[int]) -> bool:
        """Can any changed site steal a polygon vertex from a member?

        The order-k cell is the locus where the member set is exactly the
        kNN set; a foreign site invades it only if it beats some member at
        some vertex of the (convex) polygon.  Sites that fail the test at
        every vertex cannot intersect the cell, so the delta is absorbable.
        """
        if self._cell is None or not self._cell.polygon.vertices:
            return True
        member_points = [self._points[index] for index in self._knn]
        for index in changed:
            if index in removed or index >= len(self._points):
                continue
            if index in self._knn:
                return True
            site = self._points[index]
            for vertex in self._cell.polygon.vertices:
                d_site = vertex.distance_to(site)
                for member in member_points:
                    d_member = vertex.distance_to(member)
                    self._stats.distance_computations += 1
                    if d_site < d_member - _INVASION_TOLERANCE * max(1.0, d_member):
                        return True
        return False

    def _settle_pending(self) -> bool:
        """Consume the pending delta; returns True when a recompute is due."""
        changed, removed, force = self._take_pending()
        self._removed.update(removed)
        # Sync positions before testing invasion: the source moved already.
        self._points = list(self._source)
        if force or changed or removed:
            # A blanket invalidation names no delta, so it must distrust
            # the index as much as the answer.
            self._index_stale = True
        if force or self._cell is None:
            return True
        if removed.intersection(self._knn):
            # A member vanished: the held answer is wrong, not just stale.
            return True
        if self._cell_invaded(changed, removed):
            return True
        # Removals outside the member set only grow the region; changes
        # that cannot invade the polygon leave the answer untouched.
        self._stats.absorbed_updates += 1
        return False

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def _active_indexes(self) -> List[int]:
        return [
            index for index in range(len(self._points)) if index not in self._removed
        ]

    def _recompute(self, position: Point) -> None:
        with self._stats.time_construction():
            active = self._active_indexes() if self._removed else None
            if active is not None and len(active) <= self.k:
                raise QueryError(
                    f"k={self.k} needs more than {len(active)} surviving "
                    "data objects"
                )
            if self._index_stale:
                # Positions moved (or objects vanished) since the index was
                # built: rebuild it over the surviving population.
                self._index_points(active if active is not None else range(len(self._points)))
                self._index_stale = False
            self._knn = [index for index, _ in self._nearest(position, self.k)]
            self._cell = order_k_cell(
                self._points,
                self._knn,
                reference=position,
                bounding_box=self._bounding_box,
                candidate_indexes=active,
            )
            # The construction examines many candidate objects; count the
            # bisector distance evaluations as client/server work.
            self._stats.distance_computations += self._cell.examined_objects * self.k
            self._stats.full_recomputations += 1
            # The client receives the k answers plus the safe-region polygon;
            # we count the polygon as one "object equivalent" per vertex.
            self._stats.transmitted_objects += self.k + len(self._cell.polygon.vertices)

    def _result(self, position: Point, action: UpdateAction, was_valid: bool) -> QueryResult:
        distances = tuple(position.distance_to(self._points[index]) for index in self._knn)
        order = sorted(range(len(self._knn)), key=lambda i: distances[i])
        return QueryResult(
            timestamp=self.current_timestamp,
            knn=tuple(self._knn[i] for i in order),
            knn_distances=tuple(distances[i] for i in order),
            guard_objects=frozenset(self._cell.mis_indexes if self._cell else ()),
            action=action,
            was_valid=was_valid,
        )

    def _initialize(self, position: Point) -> QueryResult:
        if self._state_stale:
            self._settle_pending()
        self._recompute(position)
        return self._result(position, UpdateAction.FULL_RECOMPUTE, was_valid=False)

    def _update(self, position: Point) -> QueryResult:
        if self._state_stale and self._settle_pending():
            self._recompute(position)
            return self._result(position, UpdateAction.FULL_RECOMPUTE, was_valid=False)
        with self._stats.time_validation():
            self._stats.validations += 1
            inside = self._cell is not None and self._cell.contains(position)
        if inside:
            return self._result(position, UpdateAction.NONE, was_valid=True)
        self._recompute(position)
        return self._result(position, UpdateAction.FULL_RECOMPUTE, was_valid=False)
