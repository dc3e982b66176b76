"""Tests for repro.geometry.primitives."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox, Circle, Segment


class TestSegment:
    def test_length(self):
        assert Segment(Point(0, 0), Point(3, 4)).length == pytest.approx(5.0)

    def test_point_at_and_midpoint(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.point_at(0.3) == Point(3.0, 0.0)
        assert segment.midpoint() == Point(5.0, 0.0)

    def test_closest_point_interior(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.closest_point(Point(4, 5)) == Point(4, 0)

    def test_closest_point_clamps_to_endpoints(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.closest_point(Point(-5, 3)) == Point(0, 0)
        assert segment.closest_point(Point(15, 3)) == Point(10, 0)

    def test_distance_to_point(self):
        segment = Segment(Point(0, 0), Point(10, 0))
        assert segment.distance_to_point(Point(5, 7)) == pytest.approx(7.0)

    def test_degenerate_segment(self):
        segment = Segment(Point(1, 1), Point(1, 1))
        assert segment.closest_point(Point(5, 5)) == Point(1, 1)

    def test_reversed(self):
        segment = Segment(Point(0, 0), Point(1, 2))
        assert segment.reversed() == Segment(Point(1, 2), Point(0, 0))


class TestCircle:
    def test_contains_boundary_and_interior(self):
        circle = Circle(Point(0, 0), 5.0)
        assert circle.contains(Point(3, 4))
        assert circle.contains(Point(0, 0))
        assert not circle.contains(Point(4, 4))

    def test_intersects(self):
        assert Circle(Point(0, 0), 2.0).intersects(Circle(Point(3, 0), 1.5))
        assert not Circle(Point(0, 0), 1.0).intersects(Circle(Point(5, 0), 1.0))

    def test_area(self):
        assert Circle(Point(0, 0), 2.0).area == pytest.approx(4 * math.pi)


class TestBoundingBox:
    def test_from_points(self):
        box = BoundingBox.from_points([Point(1, 2), Point(-1, 5), Point(0, 0)])
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (-1, 0, 1, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(GeometryError):
            BoundingBox.from_points([])

    def test_empty_box_properties(self):
        box = BoundingBox.empty()
        assert box.is_empty
        assert box.width == box.height == 0.0
        assert not box.contains_point(Point(0, 0))

    def test_dimensions(self):
        box = BoundingBox(0, 0, 4, 2)
        assert box.width == 4
        assert box.height == 2

    def test_containment(self):
        outer = BoundingBox(0, 0, 10, 10)
        assert outer.contains_point(Point(10, 10))
        assert not outer.contains_point(Point(10.01, 10))

    def test_expanded(self):
        box = BoundingBox(0, 0, 2, 2).expanded(1.0)
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (-1, -1, 3, 3)

    def test_corners_are_counter_clockwise(self):
        corners = BoundingBox(0, 0, 1, 1).corners()
        assert corners == [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]

    def test_sample_grid_counts_and_containment(self):
        box = BoundingBox(0, 0, 10, 10)
        samples = list(box.sample_grid(4, 3))
        assert len(samples) == 12
        assert all(box.contains_point(p) for p in samples)

    def test_sample_grid_invalid(self):
        with pytest.raises(GeometryError):
            list(BoundingBox(0, 0, 1, 1).sample_grid(0, 2))
