"""Basic geometric primitives: segments, circles and axis-aligned boxes.

These primitives are shared by the Voronoi structures (segments, circles,
clipping boxes), the data and trajectory generators (their extent) and the
renderers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List

from repro.core.objects import immutable
from repro.errors import GeometryError
from repro.geometry.point import Point, bounding_coordinates


@immutable
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


@immutable
class Circle:
    """A circle given by its center and radius."""

    center: Point
    radius: float

    def contains(self, p: Point, tolerance: float = 1e-9) -> bool:
        """True when ``p`` lies inside or on the circle."""
        return self.center.distance_to(p) <= self.radius + tolerance

    def intersects(self, other: "Circle") -> bool:
        """True when the two circles overlap (share at least one point)."""
        return self.center.distance_to(other.center) <= self.radius + other.radius

    @property
    def area(self) -> float:
        """Area enclosed by the circle."""
        return math.pi * self.radius * self.radius


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned rectangle: a cell polygon's clipping box, or an extent.

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
        """A box that contains nothing (the bounds of an empty polygon)."""
        return BoundingBox(math.inf, math.inf, -math.inf, -math.inf)

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
