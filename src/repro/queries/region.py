"""The order-k safe region and continuous region monitoring.

:class:`OrderKRegionProcessor` serves ``kind="region"``: after each
retrieval it builds the exact order-k Voronoi cell of the kNN set
(:mod:`repro.geometry.order_k`); the set stays the answer exactly as long as
the query stays inside that polygon, so validation is one
point-in-convex-polygon test.  It runs on the live VoR-tree it is handed:
the objects it clips against are the tree's active ones, and each recompute
is one :meth:`~repro.index.vortree.VoRTree.retrieve` started from the
previous nearest member.  Each answer also reports whether the session
*entered* a new region (its member set changed — each entry doubles as the
exit of the previous region).  The same processor is the paper's strict
safe-region baseline, the exact order-k cell of the earlier Voronoi-cell
studies [2], [6] (experiment E7's ``OrderK-SR`` rows).

Delta invalidation follows the same lazy contract as ``INSProcessor``: the
base class's ``notify_data_update`` only accumulates the pending delta, and
the processor settles it on the next timestamp.  A pending delta is *absorbed*
for free when it provably leaves the held cell intact:

- removals that miss the member set keep every clipping bisector that
  bounds the cell valid (dropping a non-member only grows the true region,
  so the held cell stays a sound safe region — validation is conservative);
- a changed member costs nothing: an object never moves on the VoR-tree
  (a plane move is a delete plus an insert under a new index);
- any other changed site invades the cell only if it beats a member
  somewhere inside it, and because the cell is a convex intersection of
  half-planes, checking its *vertices* is exact: site ``c`` invades iff
  ``d(v, c) < d(v, m)`` for some vertex ``v`` and member ``m``.

Anything else — a removed member or an invading site — forces a recompute
at the next answer.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, QueryError
from repro.core.objects import QueryResult, UpdateAction, immutable
from repro.core.processor import MovingKNNProcessor
from repro.geometry.order_k import OrderKCell, order_k_cell
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox
from repro.index.vortree import VoRTree

__all__ = ["RegionResult", "OrderKRegionProcessor"]

#: Relative margin by which a changed site must beat a member at some cell
#: vertex before the cell is declared stale, mirroring the geometry layer's
#: tie handling.
_INVASION_TOLERANCE = 1e-9  # a site on a bounding bisector, up to rounding, ties: no invasion


@immutable
class RegionResult(QueryResult):
    """A :class:`QueryResult` widened with region entry/exit reporting.

    Attributes:
        event: ``"enter"`` when this answer's member set differs from the
            previous answer's (including the very first answer), ``"stay"``
            otherwise.  Every ``"enter"`` after the first doubles as the
            exit event of the previous region.
        departed: the object indexes that left the member set at an
            ``"enter"`` event, sorted ascending (empty on ``"stay"`` and on
            the first answer).
    """

    event: str = "stay"
    departed: Tuple[int, ...] = ()

    @property
    def entered(self) -> bool:
        """True when this answer crossed into a new order-k region."""
        return self.event == "enter"


class OrderKRegionProcessor(MovingKNNProcessor[Point]):
    """Serve a continuous order-k region query off a live VoR-tree.

    Unlike the INS processor there is no prefetched superset: the guard is
    the cell's minimal influential set (the sites whose bisectors bound the
    polygon).  The tree's repair deltas name every object whose neighbour
    list changed; a plane move is a delete plus an insert under a new index,
    so a member named there has not moved and costs nothing.  The polygons
    are clipped to the box around the tree's active objects at construction,
    expanded by its larger side (at least 1).
    """

    def __init__(self, vortree: VoRTree, k: int):
        super().__init__(k)
        positions = vortree.positions
        sites = [positions[index] for index in vortree.active_indexes()]
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        if k >= len(sites):
            raise ConfigurationError(
                f"k={k} must be smaller than the number of data objects ({len(sites)})"
            )
        box = BoundingBox.from_points(sites)
        self._bounding_box = box.expanded(max(box.width, box.height, 1.0))
        self._tree = vortree
        self._knn: List[int] = []
        self._cell: Optional[OrderKCell] = None
        self._prev_member_set: Optional[FrozenSet[int]] = None

    def __setstate__(self, state) -> None:
        # Pickled when the processor kept the live tree as ``_vortree``.
        if "_vortree" in state:
            state["_tree"] = state.pop("_vortree")
        super().__setstate__(state)

    @property
    def name(self) -> str:
        return "OrderK-Region"

    @property
    def safe_region(self) -> Optional[OrderKCell]:
        """The held order-k cell (None before initialisation)."""
        return self._cell

    @property
    def _points(self) -> Sequence[Point]:
        return self._tree.positions

    # ------------------------------------------------------------------
    # Settling the pending delta
    # ------------------------------------------------------------------
    def _cell_invaded(self, changed: Set[int], removed: Set[int]) -> bool:
        """Exact vertex test: does a changed site beat a member at some
        vertex of the (convex) cell?"""
        if self._cell is None or self._cell.polygon.is_empty:
            return True
        positions = self._points
        vertices = self._cell.polygon.vertices
        members = set(self._knn)
        member_points = [positions[index] for index in self._knn]
        for index in changed:
            if index in removed or index in members:
                # Gone, or a member: on the tree an object never moves.
                continue
            site = positions[index]
            for vertex in vertices:
                d_site = vertex.distance_to(site)
                for member_point in member_points:
                    d_member = vertex.distance_to(member_point)
                    self._stats.distance_computations += 1
                    if d_site < d_member - _INVASION_TOLERANCE * max(1.0, d_member):
                        return True
        return False

    def _settle_pending(self) -> bool:
        """Settle the accumulated delta; True when a recompute is required."""
        if not self._state_stale:
            return False
        changed, removed = self._take_pending()
        if self._cell is None:
            return True
        if removed.intersection(self._knn):
            # A member vanished: the held answer is wrong, not just stale.
            return True
        if self._cell_invaded(changed, removed):
            return True
        self._stats.absorbed_updates += 1
        return False

    # ------------------------------------------------------------------
    # Query maintenance
    # ------------------------------------------------------------------
    def _recompute(self, position: Point) -> None:
        with self._stats.timed("construction_seconds"):
            candidates = self._tree.active_indexes()
            if len(candidates) <= self.k:
                raise QueryError(
                    f"k={self.k} needs more than {len(candidates)} surviving data objects"
                )
            hint = self._knn[0] if self._knn else None
            self._knn = self._tree.retrieve(position, self.k, hint)[0]
            self._cell = order_k_cell(
                self._points,
                self._knn,
                reference=position,
                bounding_box=self._bounding_box,
                candidate_indexes=candidates,
            )
            # The construction examines many candidate objects; count the
            # bisector distance evaluations as client/server work.
            self._stats.distance_computations += self._cell.examined_objects * self.k
            self._stats.full_recomputations += 1
            # The response ships the k members plus the region polygon, one
            # "object equivalent" per vertex.
            self._stats.transmitted_objects += self.k + len(self._cell.polygon.vertices)

    def _answer(self, position: Point, action: UpdateAction, was_valid: bool) -> RegionResult:
        positions = self._points
        ranked = sorted((position.distance_to(positions[index]), index) for index in self._knn)
        # Re-ranking the members is client work at every answer; the held
        # members follow the answer's order from here on.
        self._stats.distance_computations += self.k
        self._knn = [index for _, index in ranked]
        members = frozenset(self._knn)
        # Timestamp 0 is an initialize(): whatever came before, it enters.
        previous = self._prev_member_set if self.current_timestamp else None
        self._prev_member_set = members
        if members == previous:
            event, departed = "stay", ()
        else:
            event, departed = "enter", tuple(sorted((previous or frozenset()) - members))
        return RegionResult(
            self.current_timestamp,
            tuple(self._knn),
            tuple(distance for distance, _ in ranked),
            frozenset(self._cell.mis_indexes),
            action,
            was_valid,
            event,
            departed,
        )

    def _initialize(self, position: Point) -> QueryResult:
        # The recompute reads the data as it is now: a pending delta is
        # taken but never counted as absorbed.
        if self._state_stale:
            self._take_pending()
        self._recompute(position)
        return self._answer(position, UpdateAction.FULL_RECOMPUTE, was_valid=False)

    def _update(self, position: Point) -> QueryResult:
        if self._settle_pending():
            self._recompute(position)
            return self._answer(position, UpdateAction.FULL_RECOMPUTE, was_valid=False)
        with self._stats.timed("validation_seconds"):
            self._stats.validations += 1
            inside = self._cell.contains(position)
        if inside:
            return self._answer(position, UpdateAction.NONE, was_valid=True)
        self._recompute(position)
        return self._answer(position, UpdateAction.FULL_RECOMPUTE, was_valid=False)
