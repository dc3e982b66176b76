"""Tests for repro.geometry.predicates."""

import math

import pytest
from voronoi_reference import circumcenter, circumcircle, point_in_circumcircle

from repro.geometry.point import Point
from repro.geometry.predicates import collinear, in_circumcircle, orientation


class TestOrientation:
    def test_counter_clockwise(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) == 1

    def test_clockwise(self):
        assert orientation(Point(0, 0), Point(0, 1), Point(1, 0)) == -1

    def test_collinear(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) == 0
        assert collinear(Point(0, 0), Point(1, 1), Point(2, 2))

    def test_orientation_scales_with_coordinates(self):
        # Large coordinates should not flip the sign.
        assert orientation(Point(1e6, 1e6), Point(1e6 + 1, 1e6), Point(1e6, 1e6 + 1)) == 1


class TestCircumcircle:
    def test_circumcenter_of_right_triangle(self):
        # For a right triangle the circumcenter is the hypotenuse midpoint.
        center = circumcenter(Point(0, 0), Point(4, 0), Point(0, 3))
        assert center.almost_equal(Point(2.0, 1.5))

    def test_circumcircle_radius(self):
        center, radius = circumcircle(Point(0, 0), Point(2, 0), Point(1, 1))
        assert center.distance_to(Point(0, 0)) == pytest.approx(radius)
        assert center.distance_to(Point(2, 0)) == pytest.approx(radius)
        assert center.distance_to(Point(1, 1)) == pytest.approx(radius)

    def test_in_circumcircle_sign(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(0, 4)
        assert in_circumcircle(a.x, a.y, b.x, b.y, c.x, c.y, 1.0, 1.0) > 0
        assert in_circumcircle(a.x, a.y, b.x, b.y, c.x, c.y, 10.0, 10.0) < 0

    def test_point_in_circumcircle_wrapper(self):
        a, b, c = Point(0, 0), Point(4, 0), Point(0, 4)
        assert point_in_circumcircle(a, b, c, Point(1, 1))
        assert not point_in_circumcircle(a, b, c, Point(10, 10))

    def test_collinear_circumcenter_raises(self):
        with pytest.raises(ZeroDivisionError):
            circumcenter(Point(0, 0), Point(1, 1), Point(2, 2))
