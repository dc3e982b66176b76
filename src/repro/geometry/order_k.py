"""Exact order-k Voronoi cells and the minimal influential set (MIS).

An *order-k Voronoi cell* of a k-subset ``O'`` of the data set is the region
in which ``O'`` is the k nearest neighbour set:

    V_k(O') = { x : d(x, p) <= d(x, o)  for every p in O', o not in O' }.

It is the intersection of ``|O'| * |O \\ O'|`` bisector half-planes and hence
convex.  The paper uses this cell in three roles:

* as the *strict safe region* of the safe-region baselines,
* to define the *minimal influential set* (MIS, Definition 2): the data
  objects owning order-k cells adjacent to ``V_k(O')`` — equivalently, the
  non-members whose bisector with some member contributes an edge of the
  cell boundary, and
* as the yardstick against which the INS is shown to be a superset of the MIS.

Constructing the cell by clipping against *every* other object would be
quadratic in the data set size, so the construction below processes objects
in increasing distance from the query and stops as soon as no further object
can cut the remaining polygon.  The stopping bound is::

    an object o can only affect the cell C if  d(q, o) < 2 * R_C + d_k

where ``R_C`` is the maximum distance from q to the (current) cell and
``d_k`` the distance from q to the farthest member of ``O'``.  This follows
from the triangle inequality: a point x of C that prefers o over some member
p would need ``d(x, o) < d(x, p)`` with ``d(x, o) >= d(q, o) - R_C`` and
``d(x, p) <= R_C + d_k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import nsmallest
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import GeometryError
from repro.geometry.point import Point, centroid
from repro.geometry.polygon import ConvexPolygon, bisector_halfplane
from repro.geometry.primitives import BoundingBox

#: Relative tolerance used when detecting the bisector tie at a cell edge.
_TIE_TOLERANCE = 1e-6


# Snapshots pickle this record with its ``__dict__``, which a row cannot load.
@dataclass(frozen=True)
class OrderKCell:
    """The order-k Voronoi cell of a kNN set, plus derived information.

    Attributes:
        member_indexes: the k data-object indexes whose cell this is.
        polygon: the (possibly box-clipped) cell polygon.
        mis_indexes: the minimal influential set — indexes of non-member
            objects whose order-k cells are adjacent to this one.
        clipped_by_box: True when at least one boundary edge comes from the
            clipping box rather than from an object bisector (i.e. the true
            cell is unbounded or extends beyond the box).
        examined_objects: how many candidate objects were pulled before the
            distance bound allowed the construction to stop (a construction
            cost metric used by the safe-region baseline benchmarks).
    """

    member_indexes: FrozenSet[int]
    polygon: ConvexPolygon
    mis_indexes: FrozenSet[int]
    clipped_by_box: bool
    examined_objects: int

    def contains(self, point: Point, tolerance: float = 1e-9) -> bool:
        """True when ``point`` lies inside the cell polygon."""
        return self.polygon.contains(point, tolerance)


def order_k_cell(
    sites: Sequence[Point],
    member_indexes: Iterable[int],
    reference: Optional[Point] = None,
    bounding_box: Optional[BoundingBox] = None,
    candidate_indexes: Optional[Iterable[int]] = None,
) -> OrderKCell:
    """Construct the order-k Voronoi cell of ``member_indexes``.

    Args:
        sites: all data-object positions (indexed 0..n-1).
        member_indexes: the kNN set whose cell is wanted.
        reference: a point known (or believed) to lie in the cell; used only
            to order candidate objects so that the stopping bound kicks in
            early.  Defaults to the centroid of the members.
        bounding_box: clipping box.  Defaults to a box 3x the extent of the
            sites (their extent grown by its own size on every side).
        candidate_indexes: when given, restricts the construction (clipping
            candidates, the default box, and the MIS recovery) to these site
            indexes — the *active* objects of a live index whose ``sites``
            sequence still carries tombstoned positions.  Must include every
            member.  ``None`` (the default) uses every site.

    Returns:
        The :class:`OrderKCell`, whose polygon may be empty when the member
        set is not actually a kNN set anywhere inside the bounding box.

    Raises:
        GeometryError: when ``member_indexes`` is empty or out of range, or
            when a member is missing from ``candidate_indexes``.
    """
    members = sorted(set(member_indexes))
    if not members:
        raise GeometryError("order_k_cell requires a non-empty member set")
    n = len(sites)
    for index in members:
        if index < 0 or index >= n:
            raise GeometryError(f"member index {index} out of range 0..{n - 1}")
    if candidate_indexes is None:
        candidates: List[int] = list(range(n))
    else:
        candidates = sorted(set(candidate_indexes))
        for index in candidates:
            if index < 0 or index >= n:
                raise GeometryError(
                    f"candidate index {index} out of range 0..{n - 1}"
                )
        candidate_set = set(candidates)
        for index in members:
            if index not in candidate_set:
                raise GeometryError(
                    f"member index {index} missing from candidate_indexes"
                )

    if bounding_box is None:
        box = BoundingBox.from_points([sites[i] for i in candidates])
        bounding_box = box.expanded(max(box.width, box.height, 1.0))
    if reference is None:
        reference = centroid([sites[i] for i in members])

    member_set = set(members)
    member_points = [sites[i] for i in members]
    # Position -> the highest member index there.
    stacked = dict(zip(member_points, members))
    d_k = max(reference.distance_to(p) for p in member_points)

    polygon = ConvexPolygon.from_bounding_box(bounding_box)
    outsiders = sorted(
        (i for i in candidates if i not in member_set),
        key=lambda i: reference.distance_squared_to(sites[i]),
    )

    examined = 0
    for outsider in outsiders:
        if polygon.is_empty:
            break
        site = sites[outsider]
        reach = 2.0 * polygon.max_distance_from(reference) + d_k
        if reference.distance_to(site) >= reach:
            break
        examined += 1
        # A member at the outsider's position ties it everywhere: no bisector
        # ranks the two, the (distance, index) order does.  The member stays
        # ahead only with the lower index.
        if stacked.get(site, -1) > outsider:
            polygon = ConvexPolygon.empty()
            break
        halfplanes = [bisector_halfplane(p, site) for p in member_points if p != site]
        polygon = polygon.clip_halfplanes(halfplanes)

    mis, clipped = _mis_from_polygon(sites, member_set, polygon, bounding_box, candidates)
    return OrderKCell(
        member_indexes=frozenset(member_set),
        polygon=polygon,
        mis_indexes=frozenset(mis),
        clipped_by_box=clipped,
        examined_objects=examined,
    )


def _mis_from_polygon(
    sites: Sequence[Point],
    member_set: Set[int],
    polygon: ConvexPolygon,
    bounding_box: BoundingBox,
    candidates: Sequence[int],
) -> Tuple[Set[int], bool]:
    """Recover the MIS from the final cell polygon.

    Each boundary edge of the order-k cell lies on the bisector of a member
    ``p`` and a non-member ``o``; crossing that edge swaps ``p`` for ``o`` in
    the kNN set, so ``o`` belongs to the MIS.  At the midpoint of such an
    edge the distances to ``p`` and ``o`` are tied at ranks k and k+1; edges
    lying on the clipping box have no such tie and are skipped (and reported
    via the ``clipped`` flag).
    """
    mis: Set[int] = set()
    clipped = False
    k = len(member_set)
    # An outsider stacked on a member ties it everywhere and trails it in
    # the (distance, index) order, so it is ranked by the member's
    # bisectors: the stack's lowest outsider enters only where members at
    # two positions tie at rank k, one of them on the stack.
    member_points = {sites[index] for index in member_set}
    stand_ins: Dict[Point, int] = {}
    for index in candidates:
        if index not in member_set and sites[index] in member_points:
            stand_ins.setdefault(sites[index], index)
    if stand_ins:
        candidates = [i for i in candidates if i in member_set or sites[i] not in stand_ins]
    for edge in polygon.edges():
        if edge.length <= 1e-12:
            continue
        mid = edge.midpoint()
        if _on_box_boundary(mid, bounding_box):
            clipped = True
            continue
        # Stable: sorted()[:k + 2], the only ranks read below.
        distances = nsmallest(k + 2, candidates, key=lambda i: mid.distance_squared_to(sites[i]))
        rank_k = mid.distance_to(sites[distances[k - 1]])
        entered = False
        if stand_ins:
            floor = rank_k * (1.0 - _TIE_TOLERANCE) - 1e-12
            tied = {sites[i] for i in distances[:k] if mid.distance_to(sites[i]) >= floor}
            if len(tied) > 1:
                entering = [stand_ins[point] for point in tied if point in stand_ins]
                mis.update(entering)
                entered = bool(entering)
        if len(candidates) <= k:
            continue
        rank_k1 = mid.distance_to(sites[distances[k]])
        scale = max(rank_k, rank_k1, 1e-12)
        if (rank_k1 - rank_k) / scale > _TIE_TOLERANCE:
            # No tie: numerical noise from clipping (or only a stack
            # entered); treat conservatively as a non-bisector edge.
            clipped = clipped or not entered
            continue
        # Every non-member tied at the k/k+1 boundary is an adjacent cell's
        # incoming object.  (Generic position gives exactly one.)
        threshold = rank_k1 * (1.0 + _TIE_TOLERANCE) + 1e-12
        for index in distances[: k + 2]:
            if index in member_set:
                continue
            if mid.distance_to(sites[index]) <= threshold:
                mis.add(index)
    return mis, clipped


def _on_box_boundary(point: Point, box: BoundingBox, tolerance: float = 1e-7) -> bool:
    """True when ``point`` lies on the boundary of ``box``."""
    scale = max(box.width, box.height, 1.0)
    on_x = (
        abs(point.x - box.min_x) <= tolerance * scale
        or abs(point.x - box.max_x) <= tolerance * scale
    )
    on_y = (
        abs(point.y - box.min_y) <= tolerance * scale
        or abs(point.y - box.max_y) <= tolerance * scale
    )
    inside = box.contains_point(point)
    return inside and (on_x or on_y)


def knn_indexes(sites: Sequence[Point], query: Point, k: int) -> List[int]:
    """Brute-force k nearest neighbour indexes of ``query`` (ties by index).

    Provided here because the order-k construction and its tests frequently
    need an oracle kNN answer without pulling in the index package.
    """
    if k <= 0:
        raise GeometryError("k must be positive")
    if k > len(sites):
        raise GeometryError(f"k={k} exceeds the number of sites ({len(sites)})")
    order = sorted(range(len(sites)), key=lambda i: (query.distance_squared_to(sites[i]), i))
    return order[:k]


def order_k_cell_of_query(
    sites: Sequence[Point],
    query: Point,
    k: int,
    bounding_box: Optional[BoundingBox] = None,
    candidate_indexes: Optional[Iterable[int]] = None,
) -> OrderKCell:
    """The order-k cell containing ``query`` (the safe region of its kNN set)."""
    if candidate_indexes is None:
        members = knn_indexes(sites, query, k)
    else:
        candidates = sorted(set(candidate_indexes))
        order = sorted(
            candidates, key=lambda i: (query.distance_squared_to(sites[i]), i)
        )
        members = order[:k]
    return order_k_cell(
        sites,
        members,
        reference=query,
        bounding_box=bounding_box,
        candidate_indexes=candidate_indexes,
    )
