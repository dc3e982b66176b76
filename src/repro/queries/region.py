"""Continuous order-k region monitoring.

An order-k region query tracks whether the moving session is still inside
the order-k Voronoi region of its current kNN member set, and reports a
region *entry* event every time that set changes (each entry doubles as the
exit of the previous region).  The safe region is the exact order-k Voronoi
cell from :mod:`repro.geometry.order_k`, built over the live VoR-tree's
active sites; :mod:`repro.baselines.order_k_region` is the brute-force
oracle.

Delta invalidation follows the same lazy contract as ``INSProcessor``:
the base class's ``notify_data_update`` only accumulates the pending delta,
and the processor settles it on the next timestamp.  A pending delta can be
*absorbed* for free when it provably leaves the held cell intact:

- removals that miss the member set keep every clipping bisector that
  bounds the cell valid (dropping a non-member only grows the true region,
  so the held cell stays a sound safe region — validation is conservative);
- an inserted or moved site invades the cell only if it beats the farthest
  member somewhere inside it, and because the cell is a convex intersection
  of half-planes, checking its *vertices* is exact: site ``c`` invades iff
  ``d(v, c) < d(v, m)`` for some vertex ``v`` and member ``m``.

Anything else — a removed member, an invading changed site, or an explicit
``invalidate()`` from the blanket flag oracle — forces a recompute at the
next answer.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.core.objects import QueryResult, UpdateAction, immutable
from repro.core.processor import MovingKNNProcessor
from repro.geometry.order_k import OrderKCell, order_k_cell
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox
from repro.index.vortree import VoRTree

__all__ = ["RegionResult", "OrderKRegionProcessor"]

#: Relative tolerance of the vertex-invasion test, mirroring the geometry
#: layer's tie handling: a changed site must beat a member by more than this
#: (relative) margin at some cell vertex before the cell is declared stale.
_INVASION_TOLERANCE = 1e-9


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
    polygon), and validation is a point-in-convex-polygon test.  ``rho`` is
    accepted for engine symmetry but unused — the safe region is exact, so
    there is nothing to over-fetch.
    """

    def __init__(
        self,
        vortree: VoRTree,
        k: int,
        rho: float = 1.6,
        bounding_box: Optional[BoundingBox] = None,
    ):
        super().__init__(k)
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        population = len(vortree)
        if k >= population:
            raise ConfigurationError(
                f"k={k} must be smaller than the number of active data objects ({population})"
            )
        self._vortree = vortree
        self._rho = float(rho)
        if bounding_box is None:
            positions = vortree.positions
            active = [positions[index] for index in vortree.active_indexes()]
            box = BoundingBox.from_points(active)
            bounding_box = box.expanded(max(box.width, box.height, 1.0))
        self._bounding_box = bounding_box
        self._members: Tuple[int, ...] = ()
        self._cell: Optional[OrderKCell] = None
        self._prev_member_set: Optional[FrozenSet[int]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "OrderK-Region"

    @property
    def rho(self) -> float:
        return self._rho

    @property
    def vortree(self) -> VoRTree:
        return self._vortree

    @property
    def members(self) -> Tuple[int, ...]:
        """The current region's member set (sorted by distance at last answer)."""
        return self._members

    @property
    def safe_region(self) -> Optional[OrderKCell]:
        """The held order-k cell (None before initialisation)."""
        return self._cell

    # ------------------------------------------------------------------
    # Settling the pending delta
    # ------------------------------------------------------------------
    def _cell_invaded(self, changed: Set[int], removed: Set[int]) -> bool:
        """Exact vertex test: does any changed active site invade the cell?"""
        if self._cell is None or self._cell.polygon.is_empty:
            return True
        positions = self._vortree.positions
        member_set = set(self._members)
        vertices = self._cell.polygon.vertices
        member_points = [positions[index] for index in self._members]
        for index in changed:
            if index in member_set or index in removed:
                continue
            if index >= len(positions):
                # A delta can mention indexes allocated after this cell was
                # built and since removed again; skip anything unknown.
                continue
            site = positions[index]
            for vertex in vertices:
                d_site = vertex.distance_to(site)
                for member_point in member_points:
                    d_member = vertex.distance_to(member_point)
                    tolerance = _INVASION_TOLERANCE * max(1.0, d_member)
                    self._stats.distance_computations += 1
                    if d_site < d_member - tolerance:
                        return True
        return False

    def _settle_pending(self) -> bool:
        """Settle the accumulated delta; True when a recompute is required."""
        if not self._state_stale:
            return False
        changed, removed, force = self._take_pending()
        if force or self._cell is None:
            return True
        if removed & set(self._members):
            return True
        if self._cell_invaded(changed, removed):
            return True
        self._stats.absorbed_updates += 1
        return False

    # ------------------------------------------------------------------
    # Query maintenance
    # ------------------------------------------------------------------
    def _recompute(self, position: Point) -> None:
        with self._stats.time_construction():
            members = self._vortree.nearest(position, self.k)
            cell = order_k_cell(
                self._vortree.positions,
                members,
                reference=position,
                bounding_box=self._bounding_box,
                candidate_indexes=self._vortree.active_indexes(),
            )
            self._stats.distance_computations += cell.examined_objects * self.k
            self._stats.full_recomputations += 1
            # The response ships the k members plus the region polygon.
            self._stats.transmitted_objects += self.k + len(cell.polygon.vertices)
            self._members = tuple(members)
            self._cell = cell

    def _answer(
        self, position: Point, action: UpdateAction, was_valid: bool
    ) -> RegionResult:
        # Re-rank the members at *every* answer: ordering can flip inside
        # the cell without the set changing, and flag/delta oracles must
        # report identical tuples.
        positions = self._vortree.positions
        distances = {index: position.distance_to(positions[index]) for index in self._members}
        self._stats.distance_computations += len(self._members)
        ordered = tuple(sorted(self._members, key=lambda index: (distances[index], index)))
        member_set = frozenset(ordered)
        if self._prev_member_set is None or member_set != self._prev_member_set:
            event = "enter"
            departed = tuple(
                sorted((self._prev_member_set or frozenset()) - member_set)
            )
        else:
            event = "stay"
            departed = ()
        self._prev_member_set = member_set
        self._members = ordered
        guard = frozenset(self._cell.mis_indexes) if self._cell is not None else frozenset()
        return RegionResult(
            timestamp=self.current_timestamp,
            knn=ordered,
            knn_distances=tuple(distances[index] for index in ordered),
            guard_objects=guard,
            action=action,
            was_valid=was_valid,
            event=event,
            departed=departed,
        )

    def _initialize(self, position: Point) -> RegionResult:
        self._take_pending()
        self._prev_member_set = None
        self._recompute(position)
        return self._answer(position, UpdateAction.FULL_RECOMPUTE, was_valid=False)

    def _update(self, position: Point) -> RegionResult:
        if self._settle_pending():
            self._recompute(position)
            return self._answer(position, UpdateAction.FULL_RECOMPUTE, was_valid=False)
        with self._stats.time_validation():
            self._stats.validations += 1
            inside = self._cell is not None and self._cell.contains(position)
        if inside:
            return self._answer(position, UpdateAction.NONE, was_valid=True)
        self._recompute(position)
        return self._answer(position, UpdateAction.FULL_RECOMPUTE, was_valid=False)
