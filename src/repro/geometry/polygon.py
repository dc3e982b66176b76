"""Convex polygons, half-planes and half-plane clipping.

The INS paper's safe regions are convex: an order-k Voronoi cell is the
intersection of half-planes bounded by perpendicular bisectors.  This module
provides the convex polygon representation used for

* the exact order-k Voronoi cell construction (:mod:`repro.geometry.order_k`),
* the order-k safe region (:mod:`repro.queries.region`),
* order-1 Voronoi cell polygons for the demo renderer.

Polygons are stored as a counter-clockwise list of vertices.  Clipping uses
the standard Sutherland–Hodgman algorithm restricted to convex clippers
(a single half-plane at a time), which keeps the polygon convex.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.objects import immutable
from repro.errors import GeometryError
from repro.geometry.point import Point, midpoint
from repro.geometry.predicates import orientation
from repro.geometry.primitives import BoundingBox, Segment

_AREA_EPSILON = 1e-12


@immutable
class HalfPlane:
    """The set of points ``(x, y)`` with ``a*x + b*y <= c``.

    The boundary line is ``a*x + b*y = c``; the half-plane keeps the side on
    which the expression is not greater than ``c``.
    """

    a: float
    b: float
    c: float

    def evaluate(self, p: Point) -> float:
        """Signed value ``a*x + b*y - c``; non-positive means inside."""
        return self.a * p.x + self.b * p.y - self.c

    def contains(self, p: Point, tolerance: float = 1e-9) -> bool:
        """True when ``p`` satisfies the half-plane inequality.

        The tolerance is relative to the coefficient magnitude: flooring the
        scale at 1.0 would turn it absolute for tiny-coefficient boundaries
        (bisectors of nearly coincident points), misclassifying points that
        are strictly outside.
        """
        scale = max(abs(self.a), abs(self.b), abs(self.c)) or 1.0
        return self.evaluate(p) <= tolerance * scale

    def boundary_intersection(self, p: Point, q: Point) -> Point:
        """Intersection of segment ``pq`` with the boundary line.

        The segment is assumed to cross the boundary (one endpoint inside,
        one outside); the crossing point is computed by linear interpolation.
        """
        vp = self.evaluate(p)
        vq = self.evaluate(q)
        if vp == vq:
            raise GeometryError("segment does not cross the half-plane boundary")
        t = vp / (vp - vq)
        return p.towards(q, t)


def bisector_halfplane(keep: Point, discard: Point) -> HalfPlane:
    """Half-plane of points at least as close to ``keep`` as to ``discard``.

    The boundary is the perpendicular bisector of the two points.  This is
    the building block of every Voronoi construction in the library:
    ``d(x, keep) <= d(x, discard)`` expands to a linear inequality.

    Raises:
        GeometryError: when the two points coincide.
    """
    dx = discard.x - keep.x
    dy = discard.y - keep.y
    if dx == 0.0 and dy == 0.0:
        raise GeometryError("cannot build the bisector of two identical points")
    mid = midpoint(keep, discard)
    # d(x, keep)^2 <= d(x, discard)^2  <=>  2*(discard-keep).x <= |discard|^2-|keep|^2
    c = dx * mid.x + dy * mid.y
    return HalfPlane(dx, dy, c)


class ConvexPolygon:
    """A convex polygon stored as counter-clockwise vertices.

    The polygon may be empty (no vertices), which arises naturally when
    half-plane clipping eliminates the whole region.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices: Sequence[Point]):
        self._vertices: Tuple[Point, ...] = tuple(vertices)

    @staticmethod
    def empty() -> "ConvexPolygon":
        """A polygon with no vertices."""
        return ConvexPolygon(())

    @staticmethod
    def from_bounding_box(box: BoundingBox) -> "ConvexPolygon":
        """The rectangle of ``box`` as a convex polygon."""
        if box.is_empty:
            return ConvexPolygon.empty()
        return ConvexPolygon(box.corners())

    @property
    def vertices(self) -> Tuple[Point, ...]:
        """The polygon vertices in counter-clockwise order."""
        return self._vertices

    @property
    def is_empty(self) -> bool:
        """True when the polygon has no vertices."""
        return len(self._vertices) == 0

    @property
    def is_degenerate(self) -> bool:
        """True when the polygon has fewer than three vertices or zero area."""
        return len(self._vertices) < 3 or self.area <= _AREA_EPSILON

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self._vertices == other._vertices

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(self._vertices)!r})"

    @property
    def area(self) -> float:
        """Enclosed area (shoelace formula)."""
        if len(self._vertices) < 3:
            return 0.0
        total = 0.0
        n = len(self._vertices)
        for i in range(n):
            p = self._vertices[i]
            q = self._vertices[(i + 1) % n]
            total += p.x * q.y - q.x * p.y
        return abs(total) / 2.0

    def edges(self) -> List[Segment]:
        """Boundary edges in counter-clockwise order."""
        n = len(self._vertices)
        if n < 2:
            return []
        return [Segment(self._vertices[i], self._vertices[(i + 1) % n]) for i in range(n)]

    def centroid(self) -> Point:
        """Area centroid (falls back to the vertex mean for degenerate polygons)."""
        if self.is_empty:
            raise GeometryError("empty polygon has no centroid")
        if len(self._vertices) < 3 or self.area <= _AREA_EPSILON:
            sx = sum(p.x for p in self._vertices)
            sy = sum(p.y for p in self._vertices)
            return Point(sx / len(self._vertices), sy / len(self._vertices))
        cx = 0.0
        cy = 0.0
        total = 0.0
        n = len(self._vertices)
        for i in range(n):
            p = self._vertices[i]
            q = self._vertices[(i + 1) % n]
            cross = p.x * q.y - q.x * p.y
            total += cross
            cx += (p.x + q.x) * cross
            cy += (p.y + q.y) * cross
        total /= 2.0
        return Point(cx / (6.0 * total), cy / (6.0 * total))

    def bounding_box(self) -> BoundingBox:
        """The smallest axis-aligned box containing the polygon."""
        if self.is_empty:
            return BoundingBox.empty()
        return BoundingBox.from_points(self._vertices)

    def contains(self, p: Point, tolerance: float = 1e-9) -> bool:
        """True when ``p`` lies inside or on the boundary of the polygon."""
        n = len(self._vertices)
        if n == 0:
            return False
        if n == 1:
            return self._vertices[0].almost_equal(p, tolerance)
        if n == 2:
            return Segment(self._vertices[0], self._vertices[1]).distance_to_point(p) <= tolerance
        for i in range(n):
            a = self._vertices[i]
            b = self._vertices[(i + 1) % n]
            cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            scale = max(abs(b.x - a.x), abs(b.y - a.y), 1.0)
            if cross < -tolerance * scale:
                return False
        return True

    def max_distance_from(self, p: Point) -> float:
        """Largest distance from ``p`` to any polygon vertex.

        For a convex polygon this is the largest distance from ``p`` to any
        point of the polygon, which the order-k construction uses to bound
        the set of objects that can still affect the cell.
        """
        if self.is_empty:
            return 0.0
        return max(p.distance_to(v) for v in self._vertices)

    def clip_halfplane(self, halfplane: HalfPlane) -> "ConvexPolygon":
        """Intersect the polygon with ``halfplane`` (Sutherland–Hodgman step)."""
        n = len(self._vertices)
        if n == 0:
            return self
        if n == 1:
            return self if halfplane.contains(self._vertices[0]) else ConvexPolygon.empty()
        output: List[Point] = []
        for i in range(n):
            current = self._vertices[i]
            following = self._vertices[(i + 1) % n]
            current_inside = halfplane.evaluate(current) <= 0.0
            following_inside = halfplane.evaluate(following) <= 0.0
            if current_inside:
                output.append(current)
                if not following_inside:
                    output.append(halfplane.boundary_intersection(current, following))
            elif following_inside:
                output.append(halfplane.boundary_intersection(current, following))
        return ConvexPolygon(_deduplicate(output))

    def clip_halfplanes(self, halfplanes: Iterable[HalfPlane]) -> "ConvexPolygon":
        """Intersect the polygon with every half-plane in ``halfplanes``."""
        result: "ConvexPolygon" = self
        for halfplane in halfplanes:
            if result.is_empty:
                return result
            result = result.clip_halfplane(halfplane)
        return result

    def intersection(self, other: "ConvexPolygon") -> "ConvexPolygon":
        """Intersection of two convex polygons (clip this one by the other's edges)."""
        if self.is_empty or other.is_empty:
            return ConvexPolygon.empty()
        result: "ConvexPolygon" = self
        vertices = other.vertices
        n = len(vertices)
        for i in range(n):
            a = vertices[i]
            b = vertices[(i + 1) % n]
            # Inside of edge a->b for a CCW polygon is the left side.
            halfplane = HalfPlane(b.y - a.y, a.x - b.x, (b.y - a.y) * a.x + (a.x - b.x) * a.y)
            result = result.clip_halfplane(halfplane)
            if result.is_empty:
                break
        return result


def _deduplicate(points: Sequence[Point], tolerance: float = 1e-9) -> List[Point]:
    """Drop consecutive (cyclically) duplicate points from a vertex list."""
    result: List[Point] = []
    for p in points:
        if not result or not result[-1].almost_equal(p, tolerance):
            result.append(p)
    if len(result) > 1 and result[0].almost_equal(result[-1], tolerance):
        result.pop()
    return result
