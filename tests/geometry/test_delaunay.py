"""Tests for repro.geometry.delaunay."""

import hashlib
import json
import math

import pytest
from voronoi_reference import point_in_circumcircle

from repro.errors import GeometryError
from repro.geometry.delaunay import (
    GHOST,
    DelaunayTriangulation,
    delaunay_neighbors,
)
from repro.geometry.point import Point
from repro.geometry.predicates import orientation
from repro.workloads.datasets import uniform_points


class TestSmallConfigurations:
    def test_single_triangle(self):
        points = [Point(0, 0), Point(1, 0), Point(0, 1)]
        triangulation = DelaunayTriangulation(points)
        assert len(triangulation.triangles) == 1
        assert triangulation.neighbors() == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}

    def test_square_produces_two_triangles(self):
        points = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]
        triangulation = DelaunayTriangulation(points)
        assert len(triangulation.triangles) == 2
        # Every point has at least its two square-side neighbours.
        neighbors = triangulation.neighbors()
        for index in range(4):
            assert len(neighbors[index]) >= 2

    def test_requires_three_points(self):
        with pytest.raises(GeometryError):
            DelaunayTriangulation([Point(0, 0), Point(1, 1)])

    def test_collinear_points_raise(self):
        with pytest.raises(GeometryError):
            DelaunayTriangulation([Point(0, 0), Point(1, 0), Point(2, 0)], jitter=0.0)


class TestKnownAnswersByHand:
    """A 10 x 6 rectangle with an off-centre interior point, worked on paper.

    Any point inside a rectangle is joined to all four corners (the circle
    through a side and the point stays inside the rectangle's own circle on
    that side), so neither diagonal exists while point 4 does.
    """

    RECTANGLE = [Point(0, 0), Point(10, 0), Point(10, 6), Point(0, 6), Point(4, 2)]

    def test_interior_point_sees_the_four_corners(self):
        triangulation = DelaunayTriangulation(self.RECTANGLE)
        assert triangulation.neighbors() == {
            0: {1, 3, 4},
            1: {0, 2, 4},
            2: {1, 3, 4},
            3: {0, 2, 4},
            4: {0, 1, 2, 3},
        }
        assert [t.vertices() for t in triangulation.triangles] == [
            (0, 1, 4),
            (0, 4, 3),
            (1, 2, 4),
            (2, 3, 4),
        ]

    def test_insert_outside_the_hull_swallows_a_hull_edge(self):
        # (11, 3) is beyond side 1-2 and inside the circle through 1, 2 and 4
        # (centre (23/3, 3), radius^2 130/9 > (10/3)^2): that triangle goes
        # with the side; the circles of (0, 1, 4) and (2, 3, 4) do not reach it.
        triangulation = DelaunayTriangulation(self.RECTANGLE)
        index, changed = triangulation.insert_site(Point(11, 3))
        assert (index, changed) == (5, {1, 2, 4, 5})
        assert triangulation.neighbors() == {
            0: {1, 3, 4},
            1: {0, 4, 5},
            2: {3, 4, 5},
            3: {0, 2, 4},
            4: {0, 1, 2, 3, 5},
            5: {1, 2, 4},
        }

    def test_removing_a_hull_corner_leaves_the_point_inside_a_triangle(self):
        # Without (10, 6): 6x + 10y = 44 < 60 puts point 4 inside triangle 0-1-3.
        triangulation = DelaunayTriangulation(self.RECTANGLE)
        assert triangulation.remove_site(2) == {1, 3, 4}
        assert triangulation.neighbors() == {
            0: {1, 3, 4},
            1: {0, 3, 4},
            3: {0, 1, 4},
            4: {0, 1, 3},
        }

    def test_removing_the_interior_point_leaves_exactly_one_diagonal(self):
        triangulation = DelaunayTriangulation(self.RECTANGLE)
        assert triangulation.remove_site(4) == {0, 1, 2, 3}
        neighbors = triangulation.neighbors()
        assert (2 in neighbors[0]) != (3 in neighbors[1])  # co-circular: the jitter picks
        for corner in range(4):
            assert {(corner - 1) % 4, (corner + 1) % 4} <= neighbors[corner]
        assert len(triangulation.triangles) == 2
        assert len(triangulation.edges()) == 5

    def test_a_masked_point_keeps_its_index_and_is_not_triangulated(self):
        points = self.RECTANGLE[:2] + [Point(5, 3)] + self.RECTANGLE[2:]
        triangulation = DelaunayTriangulation(
            points, active=[True, True, False, True, True, True]
        )
        assert triangulation.active_indexes() == [0, 1, 3, 4, 5]
        assert triangulation.points == points
        assert triangulation.neighbors() == {
            0: {1, 4, 5},
            1: {0, 3, 5},
            3: {1, 4, 5},
            4: {0, 3, 5},
            5: {0, 1, 3, 4},
        }
        with pytest.raises(GeometryError):
            triangulation.neighbors_of(2)
        with pytest.raises(GeometryError):
            DelaunayTriangulation(points, active=[True, True, False])

    def test_a_masked_build_draws_the_jitter_of_the_compacted_build(self):
        # On a grid every diagonal is a tie the jitter decides.
        grid = [Point(10.0 * x, 10.0 * y) for x in range(5) for y in range(5)]
        mask = [index % 6 != 2 for index in range(len(grid))]
        kept = [index for index, on in enumerate(mask) if on]
        compact = DelaunayTriangulation([grid[index] for index in kept])
        masked = DelaunayTriangulation(grid, active=mask)
        assert masked.neighbors() == {
            kept[index]: {kept[neighbor] for neighbor in neighbors}
            for index, neighbors in compact.neighbors().items()
        }


class TestDelaunayProperty:
    def test_empty_circumcircle_property(self):
        points = uniform_points(40, extent=100.0, seed=5)
        triangulation = DelaunayTriangulation(points)
        triangles = triangulation.triangles
        assert triangles, "expected a non-trivial triangulation"
        for triangle in triangles:
            a = points[triangle.a]
            b = points[triangle.b]
            c = points[triangle.c]
            for index, p in enumerate(points):
                if index in triangle.vertices():
                    continue
                # Allow boundary tolerance: strictly-inside violations only.
                assert not _strictly_inside(a, b, c, p), (
                    f"point {index} lies inside the circumcircle of {triangle}"
                )

    def test_euler_edge_bound(self):
        # A planar triangulation of n points has at most 3n - 6 edges.
        points = uniform_points(60, extent=100.0, seed=6)
        triangulation = DelaunayTriangulation(points)
        assert len(triangulation.edges()) <= 3 * len(points) - 6

    def test_neighbor_relation_is_symmetric(self):
        points = uniform_points(50, extent=100.0, seed=7)
        neighbors = DelaunayTriangulation(points).neighbors()
        for index, adjacent in neighbors.items():
            for other in adjacent:
                assert index in neighbors[other]

    def test_nearest_neighbor_is_delaunay_neighbor(self):
        # A classical property: each point's nearest neighbour is adjacent to
        # it in the Delaunay triangulation.
        points = uniform_points(45, extent=100.0, seed=8)
        neighbors = DelaunayTriangulation(points).neighbors()
        for index, point in enumerate(points):
            nearest = min(
                (i for i in range(len(points)) if i != index),
                key=lambda i: point.distance_squared_to(points[i]),
            )
            assert nearest in neighbors[index]


def _strictly_inside(a: Point, b: Point, c: Point, p: Point) -> bool:
    center_x, center_y, radius = _circumcircle(a, b, c)
    distance = math.hypot(p.x - center_x, p.y - center_y)
    return distance < radius * (1 - 1e-7)


def _circumcircle(a: Point, b: Point, c: Point):
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    a2 = a.x * a.x + a.y * a.y
    b2 = b.x * b.x + b.y * b.y
    c2 = c.x * c.x + c.y * c.y
    ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
    uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
    return ux, uy, math.hypot(a.x - ux, a.y - uy)


class TestDelaunayNeighborsWrapper:
    def test_degenerate_sizes(self):
        assert delaunay_neighbors([]) == {}
        assert delaunay_neighbors([Point(0, 0)]) == {0: set()}
        assert delaunay_neighbors([Point(0, 0), Point(1, 0)]) == {0: {1}, 1: {0}}

    def test_collinear_fallback_links_consecutive_points(self):
        points = [Point(0, 0), Point(2, 0), Point(1, 0), Point(3, 0)]
        neighbors = delaunay_neighbors(points)
        # Sorted along the line: 0, 2, 1, 3 -> chain 0-2-1-3.
        assert neighbors[0] == {2}
        assert neighbors[2] == {0, 1}
        assert neighbors[1] == {2, 3}
        assert neighbors[3] == {1}

    def test_handles_large_input(self):
        points = uniform_points(2_000, extent=1_000.0, seed=12)
        neighbors = delaunay_neighbors(points)
        assert len(neighbors) == len(points)
        assert all(adjacent for adjacent in neighbors.values())

    @pytest.mark.parametrize("side", [30, 45])
    def test_breaks_ties_as_the_live_structure_does(self, side):
        # On a lattice every diagonal is a tie; the from-scratch map (the
        # Voronoi diagram's degenerate fallback) must pick the same ones.
        points = lattice(side)
        assert delaunay_neighbors(points) == DelaunayTriangulation(points).neighbors()


def lattice(side):
    return [Point(float(x), float(y)) for x in range(side) for y in range(side)]


def ring_and_centre(count):
    angles = (2.0 * math.pi * i / count for i in range(count))
    return [Point(100.0 * math.cos(a), 100.0 * math.sin(a)) for a in angles] + [Point(0.0, 0.0)]


def digest(edge_map):
    return hashlib.sha256(json.dumps(sorted(edge_map.items())).encode()).hexdigest()


def qhull_edge_map(points):
    """Qhull's triangulation of ``points`` as an edge map, ghosts included."""
    from scipy.spatial import Delaunay

    apex = {}
    for a, b, c in Delaunay([[p.x, p.y] for p in points]).simplices.tolist():
        if orientation(points[a], points[b], points[c]) < 0:
            b, c = c, b
        apex[a, b], apex[b, c], apex[c, a] = c, a, b
    for u, v in [edge for edge in apex if edge[::-1] not in apex]:
        apex[v, u], apex[u, GHOST], apex[GHOST, v] = GHOST, v, u
    return apex


class TestScipySeeding:
    """The literal digests are of Qhull-seeded builds of these inputs.  The
    builtin build must reproduce them on uniform input and on the co-circular
    lattices and ring alike, and — where scipy is installed — equal Qhull's
    triangulation of the same perturbed coordinates, an independent answer."""

    @pytest.mark.parametrize(
        "make_points, expected",
        [
            (
                lambda: uniform_points(1_600, extent=1_000.0, seed=1_600),
                "71a386175ad839dd7f7a1f40a7dffddd12fcc70944e8773a54a0a8ffa90b965f",
            ),
            (
                lambda: uniform_points(2_000, extent=1_000.0, seed=2_000),
                "e3c16988ccadddaee61efbf2c08ac9415f50f958870f929d47e005591397f9c2",
            ),
            (
                lambda: uniform_points(5_000, extent=1_000.0, seed=5_000),
                "9fa8ae3c905b0359960c41bcac400745219b224cdd2ca2218ce9cb1791fb9768",
            ),
            (
                lambda: lattice(40),
                "2b4f0ada709845339e9881960dc9d4dab3d3176490851934447b0d5444db4f71",
            ),
            (
                lambda: lattice(45),
                "061ef0c3674965a3b3dfcd996ea2dcf948255a12179a5c22434ac3de7a77cdb0",
            ),
            (
                lambda: ring_and_centre(1_600),
                "243cb1d5a3714023de9df1381a45d80421c7ba86d6c1d0b4dcbb170bbbb41f4c",
            ),
        ],
        ids=["uniform-1600", "uniform-2000", "uniform-5000", "lattice-40", "lattice-45", "ring"],
    )
    def test_the_qhull_seed_equals_the_builtin_build(self, make_points, expected):
        triangulation = DelaunayTriangulation(make_points())
        edge_map = triangulation.edge_map()
        assert digest(edge_map) == expected
        try:
            import scipy.spatial  # noqa: F401
        except ImportError:
            return
        # The perturbed copies are what the builder triangulates.
        assert qhull_edge_map(triangulation._points) == edge_map
