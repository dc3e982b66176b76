"""Immutable 2-D points and distance helpers.

The whole library works in a flat 2-D Euclidean plane (the paper's "2D Plane
mode").  Points are lightweight immutable value objects so they can be used
as dictionary keys, stored in sets and shared freely between the index, the
Voronoi structures and the query processors without defensive copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

from repro.core.objects import accepts_dict_state


@accepts_dict_state
@dataclass(frozen=True, order=True, slots=True)
class Point:
    """A point in the 2-D Euclidean plane.

    Attributes:
        x: horizontal coordinate.
        y: vertical coordinate.
    """

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance from this point to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def distance_squared_to(self, other: "Point") -> float:
        """Squared Euclidean distance to ``other`` (avoids the square root)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def scaled(self, factor: float, origin: "Point" = None) -> "Point":
        """Return this point scaled about ``origin`` (default: the origin)."""
        if origin is None:
            origin = Point(0.0, 0.0)
        return Point(
            origin.x + (self.x - origin.x) * factor,
            origin.y + (self.y - origin.y) * factor,
        )

    def towards(self, other: "Point", fraction: float) -> "Point":
        """Return the point a ``fraction`` of the way from this point to ``other``.

        ``fraction=0`` returns this point, ``fraction=1`` returns ``other``.
        Values outside ``[0, 1]`` extrapolate along the same line.
        """
        return Point(
            self.x + (other.x - self.x) * fraction,
            self.y + (other.y - self.y) * fraction,
        )

    def almost_equal(self, other: "Point", tolerance: float = 1e-9) -> bool:
        """Return True when both coordinates agree within ``tolerance``."""
        return abs(self.x - other.x) <= tolerance and abs(self.y - other.y) <= tolerance


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


def distance_squared(a: Point, b: Point) -> float:
    """Squared Euclidean distance between two points."""
    return a.distance_squared_to(b)


def midpoint(a: Point, b: Point) -> Point:
    """The point halfway between ``a`` and ``b``."""
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def centroid(points: Sequence[Point]) -> Point:
    """The arithmetic mean of a non-empty sequence of points."""
    if not points:
        raise ValueError("centroid() requires at least one point")
    sx = sum(p.x for p in points)
    sy = sum(p.y for p in points)
    return Point(sx / len(points), sy / len(points))


def bounding_coordinates(points: Iterable[Point]) -> Tuple[float, float, float, float]:
    """Return ``(min_x, min_y, max_x, max_y)`` over ``points``.

    Raises:
        ValueError: if ``points`` is empty.
    """
    iterator = iter(points)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("bounding_coordinates() requires at least one point")
    min_x = max_x = first.x
    min_y = max_y = first.y
    for p in iterator:
        min_x = min(min_x, p.x)
        max_x = max(max_x, p.x)
        min_y = min(min_y, p.y)
        max_y = max(max_y, p.y)
    return (min_x, min_y, max_x, max_y)
