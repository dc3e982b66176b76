"""Tests for repro.geometry.point."""

import math
import pickle

import pytest

from repro.geometry.point import (
    Point,
    bounding_coordinates,
    centroid,
    distance,
    distance_squared,
    midpoint,
)


class TestPointBasics:
    def test_points_are_value_objects(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert Point(1.0, 2.0) != Point(2.0, 1.0)

    def test_points_are_hashable(self):
        assert len({Point(0, 0), Point(0, 0), Point(1, 0)}) == 2

    def test_iteration_and_tuple(self):
        x, y = Point(3.0, 4.0)
        assert (x, y) == (3.0, 4.0)

    def test_ordering_is_lexicographic(self):
        assert Point(1.0, 5.0) < Point(2.0, 0.0)
        assert Point(1.0, 1.0) < Point(1.0, 2.0)


class TestSlots:
    def test_a_point_has_no_instance_dict(self):
        point = Point(1.0, 2.0)
        assert not hasattr(point, "__dict__")
        with pytest.raises(AttributeError):
            point.x = 3.0
        # Python 3.11's frozen __setattr__ of a slotted dataclass raises
        # TypeError for a name that is not a field; either way nothing is set.
        with pytest.raises((AttributeError, TypeError)):
            point.z = 3.0

    def test_a_slotted_point_round_trips(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(Point(1.5, -2.25), protocol)) == Point(1.5, -2.25)


class TestDistances:
    def test_distance_to_345_triangle(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-3.0, 7.0)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_squared_matches_distance(self):
        a, b = Point(1.0, 2.0), Point(4.0, 6.0)
        assert a.distance_squared_to(b) == pytest.approx(a.distance_to(b) ** 2)

    def test_module_level_helpers(self):
        a, b = Point(0, 0), Point(6, 8)
        assert distance(a, b) == pytest.approx(10.0)
        assert distance_squared(a, b) == pytest.approx(100.0)

    def test_distance_to_self_is_zero(self):
        p = Point(2.5, -1.0)
        assert p.distance_to(p) == 0.0


class TestTransformations:
    def test_scaled_about_origin(self):
        assert Point(2, 4).scaled(0.5) == Point(1, 2)

    def test_scaled_about_custom_origin(self):
        assert Point(4, 4).scaled(2.0, origin=Point(2, 2)) == Point(6, 6)

    def test_towards_endpoints(self):
        a, b = Point(0, 0), Point(10, 0)
        assert a.towards(b, 0.0) == a
        assert a.towards(b, 1.0) == b
        assert a.towards(b, 0.25) == Point(2.5, 0.0)

    def test_towards_extrapolates(self):
        a, b = Point(0, 0), Point(1, 1)
        assert a.towards(b, 2.0) == Point(2.0, 2.0)

    def test_almost_equal(self):
        assert Point(1.0, 1.0).almost_equal(Point(1.0 + 1e-12, 1.0))
        assert not Point(1.0, 1.0).almost_equal(Point(1.1, 1.0))


class TestAggregates:
    def test_midpoint(self):
        assert midpoint(Point(0, 0), Point(4, 6)) == Point(2, 3)

    def test_centroid(self):
        points = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        assert centroid(points) == Point(1, 1)

    def test_centroid_requires_points(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_bounding_coordinates(self):
        points = [Point(1, 5), Point(-2, 3), Point(4, -1)]
        assert bounding_coordinates(points) == (-2, -1, 4, 5)

    def test_bounding_coordinates_requires_points(self):
        with pytest.raises(ValueError):
            bounding_coordinates([])
