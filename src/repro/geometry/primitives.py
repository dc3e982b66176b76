"""Basic geometric primitives: segments, circles and axis-aligned boxes.

These primitives are shared by the spatial indexes (bounding boxes), the
Voronoi structures (segments, circles) and the safe-region baselines
(circle/box containment tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import GeometryError
from repro.geometry.point import Point, bounding_coordinates


@dataclass(frozen=True)
class Segment:
    """A straight line segment between two points."""

    start: Point
    end: Point

    @property
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.start.distance_to(self.end)

    def point_at(self, fraction: float) -> Point:
        """The point a ``fraction`` of the way from ``start`` to ``end``."""
        return self.start.towards(self.end, fraction)

    def midpoint(self) -> Point:
        """The middle point of the segment."""
        return self.point_at(0.5)

    def distance_to_point(self, p: Point) -> float:
        """Shortest distance from ``p`` to any point on the segment."""
        return p.distance_to(self.closest_point(p))

    def closest_point(self, p: Point) -> Point:
        """The point on the segment closest to ``p``."""
        dx = self.end.x - self.start.x
        dy = self.end.y - self.start.y
        length_squared = dx * dx + dy * dy
        if length_squared == 0.0:
            return self.start
        t = ((p.x - self.start.x) * dx + (p.y - self.start.y) * dy) / length_squared
        t = max(0.0, min(1.0, t))
        return Point(self.start.x + t * dx, self.start.y + t * dy)

    def reversed(self) -> "Segment":
        """The same segment traversed in the opposite direction."""
        return Segment(self.end, self.start)


@dataclass(frozen=True)
class Circle:
    """A circle given by its center and radius."""

    center: Point
    radius: float

    def contains(self, p: Point, tolerance: float = 1e-9) -> bool:
        """True when ``p`` lies inside or on the circle."""
        return self.center.distance_to(p) <= self.radius + tolerance

    def contains_strictly(self, p: Point) -> bool:
        """True when ``p`` lies strictly inside the circle."""
        return self.center.distance_to(p) < self.radius

    def intersects(self, other: "Circle") -> bool:
        """True when the two circles overlap (share at least one point)."""
        return self.center.distance_to(other.center) <= self.radius + other.radius

    @property
    def area(self) -> float:
        """Area enclosed by the circle."""
        return math.pi * self.radius * self.radius


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle, used as the MBR of index entries.

    The box is closed: points on the boundary are considered contained.
    An "empty" box can be represented with ``min_x > max_x``; use
    :meth:`BoundingBox.empty` to create one.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @staticmethod
    def empty() -> "BoundingBox":
        """A box that contains nothing and is the identity for :meth:`union`."""
        return BoundingBox(math.inf, math.inf, -math.inf, -math.inf)

    @staticmethod
    def from_point(p: Point) -> "BoundingBox":
        """A degenerate box covering exactly one point."""
        return BoundingBox(p.x, p.y, p.x, p.y)

    @staticmethod
    def from_points(points: Iterable[Point]) -> "BoundingBox":
        """The smallest box covering every point in ``points``."""
        try:
            return BoundingBox(*bounding_coordinates(points))
        except ValueError:
            raise GeometryError("cannot build a bounding box from no points") from None

    @property
    def is_empty(self) -> bool:
        """True for the canonical empty box."""
        return self.min_x > self.max_x or self.min_y > self.max_y

    @property
    def width(self) -> float:
        """Horizontal extent (0 for an empty box)."""
        return max(0.0, self.max_x - self.min_x)

    @property
    def height(self) -> float:
        """Vertical extent (0 for an empty box)."""
        return max(0.0, self.max_y - self.min_y)

    @property
    def area(self) -> float:
        """Area of the box."""
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        """Perimeter of the box (used by R-tree split heuristics)."""
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> Point:
        """The geometric center of the box."""
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def corners(self) -> List[Point]:
        """The four corner points in counter-clockwise order."""
        return [
            Point(self.min_x, self.min_y),
            Point(self.max_x, self.min_y),
            Point(self.max_x, self.max_y),
            Point(self.min_x, self.max_y),
        ]

    def contains_point(self, p: Point) -> bool:
        """True when ``p`` lies inside or on the boundary of the box."""
        return self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y

    def contains_box(self, other: "BoundingBox") -> bool:
        """True when ``other`` lies completely inside this box."""
        if other.is_empty:
            return True
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """True when the two boxes share at least one point."""
        if self.is_empty or other.is_empty:
            return False
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """The smallest box covering both boxes."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def enlargement(self, other: "BoundingBox") -> float:
        """Area increase needed to cover ``other`` (R-tree choose-subtree metric)."""
        return self.union(other).area - self.area

    def min_distance_to_point(self, p: Point) -> float:
        """Smallest distance from ``p`` to any point of the box (0 if inside)."""
        dx = max(self.min_x - p.x, 0.0, p.x - self.max_x)
        dy = max(self.min_y - p.y, 0.0, p.y - self.max_y)
        return math.hypot(dx, dy)

    def max_distance_to_point(self, p: Point) -> float:
        """Largest distance from ``p`` to any point of the box."""
        dx = max(abs(p.x - self.min_x), abs(p.x - self.max_x))
        dy = max(abs(p.y - self.min_y), abs(p.y - self.max_y))
        return math.hypot(dx, dy)

    def expanded(self, margin: float) -> "BoundingBox":
        """This box grown by ``margin`` on every side."""
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )

    def sample_grid(self, nx: int, ny: int) -> Iterator[Point]:
        """Yield an ``nx`` by ``ny`` grid of points covering the box.

        Used by the demo renderer and by tests that probe a region densely.
        """
        if nx < 1 or ny < 1:
            raise GeometryError("sample_grid requires nx >= 1 and ny >= 1")
        for i in range(nx):
            fx = 0.5 if nx == 1 else i / (nx - 1)
            for j in range(ny):
                fy = 0.5 if ny == 1 else j / (ny - 1)
                yield Point(
                    self.min_x + fx * (self.max_x - self.min_x),
                    self.min_y + fy * (self.max_y - self.min_y),
                )


def segments_to_polyline(segments: Iterable[Segment]) -> List[Point]:
    """Chain contiguous segments into an ordered list of points.

    Consecutive segments must share an endpoint; the function tolerates
    segments given in reverse orientation.  Used when assembling Voronoi cell
    boundaries from individual bisector pieces.
    """
    segment_list = list(segments)
    if not segment_list:
        return []
    polyline: List[Point] = [segment_list[0].start, segment_list[0].end]
    remaining = segment_list[1:]
    while remaining:
        tail = polyline[-1]
        for index, segment in enumerate(remaining):
            if segment.start.almost_equal(tail):
                polyline.append(segment.end)
                del remaining[index]
                break
            if segment.end.almost_equal(tail):
                polyline.append(segment.start)
                del remaining[index]
                break
        else:
            raise GeometryError("segments do not form a single connected polyline")
    return polyline
