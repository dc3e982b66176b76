"""Tests for repro.geometry.polygon."""

import math

import pytest
from voronoi_reference import convex_hull

from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, HalfPlane, bisector_halfplane
from repro.geometry.primitives import BoundingBox


def unit_square() -> ConvexPolygon:
    return ConvexPolygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])


class TestHalfPlane:
    def test_contains(self):
        halfplane = HalfPlane(1.0, 0.0, 2.0)  # x <= 2
        assert halfplane.contains(Point(1, 5))
        assert halfplane.contains(Point(2, 0))
        assert not halfplane.contains(Point(3, 0))

    def test_boundary_intersection(self):
        halfplane = HalfPlane(1.0, 0.0, 2.0)
        crossing = halfplane.boundary_intersection(Point(0, 0), Point(4, 4))
        assert crossing.almost_equal(Point(2, 2))

    def test_boundary_intersection_requires_crossing(self):
        halfplane = HalfPlane(1.0, 0.0, 2.0)
        with pytest.raises(GeometryError):
            halfplane.boundary_intersection(Point(0, 0), Point(0, 0))


class TestBisector:
    def test_bisector_keeps_the_near_side(self):
        halfplane = bisector_halfplane(Point(0, 0), Point(4, 0))
        assert halfplane.contains(Point(1, 0))
        assert halfplane.contains(Point(2, 10))  # on the boundary
        assert not halfplane.contains(Point(3, 0))

    def test_bisector_matches_distance_comparison(self):
        keep, discard = Point(1, 2), Point(5, -1)
        halfplane = bisector_halfplane(keep, discard)
        for probe in [Point(0, 0), Point(3, 3), Point(6, 0), Point(2.5, 1.0)]:
            expected = probe.distance_to(keep) <= probe.distance_to(discard) + 1e-9
            assert halfplane.contains(probe) == expected

    def test_identical_points_raise(self):
        with pytest.raises(GeometryError):
            bisector_halfplane(Point(1, 1), Point(1, 1))


class TestConvexPolygonBasics:
    def test_area_of_square(self):
        square = unit_square()
        assert square.area == pytest.approx(1.0)

    def test_centroid_of_square(self):
        assert unit_square().centroid().almost_equal(Point(0.5, 0.5))

    def test_contains(self):
        square = unit_square()
        assert square.contains(Point(0.5, 0.5))
        assert square.contains(Point(0, 0))  # boundary
        assert not square.contains(Point(1.5, 0.5))

    def test_empty_polygon(self):
        empty = ConvexPolygon.empty()
        assert empty.is_empty
        assert empty.area == 0.0
        assert not empty.contains(Point(0, 0))
        with pytest.raises(GeometryError):
            empty.centroid()

    def test_from_bounding_box(self):
        polygon = ConvexPolygon.from_bounding_box(BoundingBox(0, 0, 2, 3))
        assert polygon.area == pytest.approx(6.0)

    def test_edges_count(self):
        assert len(unit_square().edges()) == 4

    def test_bounding_box_round_trip(self):
        box = unit_square().bounding_box()
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (0, 0, 1, 1)

    def test_max_distance_from(self):
        assert unit_square().max_distance_from(Point(0, 0)) == pytest.approx(math.sqrt(2))


class TestConvexHull:
    def test_hull_of_square_with_interior_points(self):
        points = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1), Point(0.5, 0.5)]
        hull = convex_hull(points)
        assert len(hull) == 4
        assert hull.area == pytest.approx(1.0)

    def test_hull_of_two_points_is_degenerate(self):
        hull = convex_hull([Point(0, 0), Point(1, 1)])
        assert hull.is_degenerate

    def test_hull_is_counter_clockwise(self):
        hull = convex_hull([Point(0, 0), Point(2, 0), Point(1, 2)])
        vertices = hull.vertices
        area2 = sum(
            vertices[i].x * vertices[(i + 1) % 3].y - vertices[(i + 1) % 3].x * vertices[i].y
            for i in range(3)
        )
        assert area2 > 0


class TestClipping:
    def test_clip_square_in_half(self):
        clipped = unit_square().clip_halfplane(HalfPlane(1.0, 0.0, 0.5))  # x <= 0.5
        assert clipped.area == pytest.approx(0.5)

    def test_clip_away_everything(self):
        clipped = unit_square().clip_halfplane(HalfPlane(1.0, 0.0, -1.0))  # x <= -1
        assert clipped.is_empty

    def test_clip_keeps_everything(self):
        clipped = unit_square().clip_halfplane(HalfPlane(1.0, 0.0, 5.0))  # x <= 5
        assert clipped.area == pytest.approx(1.0)

    def test_clip_multiple_halfplanes(self):
        clipped = unit_square().clip_halfplanes(
            [HalfPlane(1.0, 0.0, 0.75), HalfPlane(0.0, 1.0, 0.5)]
        )
        assert clipped.area == pytest.approx(0.75 * 0.5)

    def test_clipping_preserves_convexity_boundary(self):
        # Clip a square with a diagonal bisector: the result is a triangle.
        clipped = unit_square().clip_halfplane(bisector_halfplane(Point(0, 0), Point(1, 1)))
        assert clipped.area == pytest.approx(0.5)
        assert clipped.contains(Point(0.1, 0.1))
        assert not clipped.contains(Point(0.9, 0.9))

    def test_intersection_of_polygons(self):
        other = ConvexPolygon([Point(0.5, 0.5), Point(1.5, 0.5), Point(1.5, 1.5), Point(0.5, 1.5)])
        intersection = unit_square().intersection(other)
        assert intersection.area == pytest.approx(0.25)

    def test_intersection_with_empty(self):
        assert unit_square().intersection(ConvexPolygon.empty()).is_empty
