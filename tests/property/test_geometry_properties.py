"""Property-based tests for the geometric substrate (hypothesis)."""

import math

import voronoi_reference
from hypothesis import assume, given, settings, strategies as st

from repro.geometry.delaunay import delaunay_neighbors
from repro.geometry.order_k import knn_indexes, order_k_cell
from repro.geometry.point import Point, midpoint
from repro.geometry.polygon import ConvexPolygon, HalfPlane, bisector_halfplane
from repro.geometry.primitives import BoundingBox
from repro.geometry.voronoi import influential_neighbor_indexes
from repro.index.vortree import VoRTree

coordinates = st.floats(min_value=-1_000.0, max_value=1_000.0, allow_nan=False, allow_infinity=False)
points_strategy = st.builds(Point, coordinates, coordinates)


def distinct_points(min_size, max_size):
    return st.lists(
        points_strategy, min_size=min_size, max_size=max_size, unique_by=lambda p: (round(p.x, 6), round(p.y, 6))
    )


def well_separated(points, minimum_gap=1e-2):
    """True when no two points are closer than ``minimum_gap``.

    Near-coincident sites make Voronoi adjacency numerically ambiguous, which
    is a property of floating-point geometry rather than of the algorithms
    under test, so the structural properties only assume well-separated input.
    """
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if p.distance_to(q) < minimum_gap:
                return False
    return True


class TestBisectorProperties:
    @given(points_strategy, points_strategy, points_strategy)
    @settings(max_examples=80, deadline=None)
    def test_bisector_halfplane_matches_distance_comparison(self, keep, discard, probe):
        assume(keep.distance_to(discard) > 1e-6)
        halfplane = bisector_halfplane(keep, discard)
        closer_to_keep = probe.distance_to(keep) <= probe.distance_to(discard)
        # Allow boundary slack proportional to the configuration scale.
        if abs(probe.distance_to(keep) - probe.distance_to(discard)) > 1e-6:
            assert halfplane.contains(probe) == closer_to_keep

    @given(points_strategy, points_strategy)
    @settings(max_examples=50, deadline=None)
    def test_bisector_boundary_passes_through_midpoint(self, keep, discard):
        assume(keep.distance_to(discard) > 1e-6)
        halfplane = bisector_halfplane(keep, discard)
        middle = midpoint(keep, discard)
        assert abs(halfplane.evaluate(middle)) <= 1e-6 * max(
            1.0, abs(halfplane.a), abs(halfplane.b), abs(halfplane.c)
        )


class TestClippingProperties:
    @given(distinct_points(3, 8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_clipping_never_grows_the_polygon(self, points, data):
        hull = voronoi_reference.convex_hull(points)
        assume(not hull.is_degenerate)
        keep = data.draw(points_strategy)
        discard = data.draw(points_strategy)
        assume(keep.distance_to(discard) > 1e-6)
        clipped = hull.clip_halfplane(bisector_halfplane(keep, discard))
        assert clipped.area <= hull.area + 1e-6

    @given(distinct_points(3, 8))
    @settings(max_examples=50, deadline=None)
    def test_hull_contains_all_input_points(self, points):
        hull = voronoi_reference.convex_hull(points)
        assume(not hull.is_degenerate)
        for p in points:
            assert hull.contains(p, tolerance=1e-6)

    @given(distinct_points(3, 8), points_strategy)
    @settings(max_examples=50, deadline=None)
    def test_clip_result_satisfies_halfplane(self, points, direction):
        hull = voronoi_reference.convex_hull(points)
        assume(not hull.is_degenerate)
        assume(abs(direction.x) + abs(direction.y) > 1e-6)
        halfplane = HalfPlane(direction.x, direction.y, 10.0)
        clipped = hull.clip_halfplane(halfplane)
        for vertex in clipped.vertices:
            assert halfplane.contains(vertex, tolerance=1e-6)


class TestVoronoiProperties:
    @given(distinct_points(4, 25))
    @settings(max_examples=30, deadline=None)
    def test_neighbor_relation_is_symmetric_and_irreflexive(self, points):
        neighbors = delaunay_neighbors(points)
        for index, adjacent in neighbors.items():
            assert index not in adjacent
            for other in adjacent:
                assert index in neighbors[other]

    @given(distinct_points(4, 20), points_strategy)
    @settings(max_examples=30, deadline=None)
    def test_nearest_site_cell_contains_query(self, points, query):
        assume(well_separated(points))
        tree = VoRTree(points)
        assume(voronoi_reference.bounding_box(tree).contains_point(query))
        owner = voronoi_reference.nearest_site(tree, query)
        assert voronoi_reference.cell(tree, owner).contains(query, tolerance=1e-6)


class TestOrderKProperties:
    """Structural order-k properties over randomly generated configurations.

    The point sets come from the workload generator (seeded by hypothesis)
    rather than from raw adversarial floats: the order-k construction and the
    jittered Delaunay triangulation both use approximate predicates, so
    exactly- or nearly-degenerate inputs (many collinear sites) can make the
    two disagree at the tolerance level — a property of floating-point
    geometry, not of the INS/MIS relationship under test.
    """

    @given(
        st.integers(min_value=8, max_value=60),
        st.integers(min_value=0, max_value=100_000),
        st.floats(min_value=100.0, max_value=900.0),
        st.floats(min_value=100.0, max_value=900.0),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_mis_is_subset_of_ins(self, count, seed, qx, qy, k):
        from repro.workloads.datasets import uniform_points

        points = uniform_points(count, extent=1_000.0, seed=seed)
        assume(k < count)
        query = Point(qx, qy)
        members = knn_indexes(points, query, k)
        cell = order_k_cell(points, members, reference=query)
        ins = influential_neighbor_indexes(delaunay_neighbors(points), members)
        assert set(cell.mis_indexes) <= ins

    @given(
        st.integers(min_value=8, max_value=60),
        st.integers(min_value=0, max_value=100_000),
        st.floats(min_value=100.0, max_value=900.0),
        st.floats(min_value=100.0, max_value=900.0),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_query_lies_in_its_own_order_k_cell(self, count, seed, qx, qy, k):
        from repro.workloads.datasets import uniform_points

        points = uniform_points(count, extent=1_000.0, seed=seed)
        assume(k < count)
        query = Point(qx, qy)
        # Exclude queries that sit exactly on a cell boundary.
        distances = sorted(query.distance_to(p) for p in points)
        assume(distances[k] - distances[k - 1] > 1e-6)
        members = knn_indexes(points, query, k)
        cell = order_k_cell(points, members, reference=query)
        assert cell.contains(query, tolerance=1e-6)
