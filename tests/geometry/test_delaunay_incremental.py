"""Tests for the incremental maintenance of repro.geometry.delaunay.

The central property: after any sequence of ``insert_site`` / ``remove_site``
operations, the live triangulation's neighbour map must be identical to a
from-scratch triangulation of the surviving points — the full rebuild is the
oracle.
"""

import random

import pytest

from repro.errors import GeometryError
from repro.geometry.delaunay import DelaunayTriangulation, delaunay_neighbors
from repro.geometry.point import Point
from repro.workloads.datasets import uniform_points


def live_neighbor_map(triangulation):
    """Neighbour map of the live structure, keyed by original point."""
    return {
        triangulation.points[index]: {
            triangulation.points[neighbor] for neighbor in neighbors
        }
        for index, neighbors in triangulation.neighbors().items()
    }


def rebuilt_neighbor_map(points):
    """Oracle: neighbour map of a from-scratch construction."""
    local = delaunay_neighbors(points)
    return {
        points[index]: {points[neighbor] for neighbor in neighbors}
        for index, neighbors in local.items()
    }


def survivors(triangulation):
    return [triangulation.points[i] for i in triangulation.active_indexes()]


def hull_sites(triangulation):
    """The convex-hull sites, in index order: an independent monotone chain."""
    points = triangulation.points
    order = sorted(triangulation.active_indexes(), key=lambda i: (points[i].x, points[i].y))

    def chain(indexes):
        hull = []
        for index in indexes:
            while len(hull) >= 2 and _cross(points[hull[-2]], points[hull[-1]], points[index]) <= 0:
                hull.pop()
            hull.append(index)
        return hull[:-1]

    return sorted(chain(order) + chain(order[::-1]))


def _cross(o, a, b):
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


class TestInsertSite:
    def test_single_insert_matches_rebuild(self, small_points):
        triangulation = DelaunayTriangulation(small_points)
        index, changed = triangulation.insert_site(Point(4.2, 5.1))
        assert index == len(small_points)
        assert index in changed
        assert live_neighbor_map(triangulation) == rebuilt_neighbor_map(
            small_points + [Point(4.2, 5.1)]
        )

    def test_insert_outside_hull(self, small_points):
        """Ghost triangles make out-of-hull insertion a regular operation."""
        triangulation = DelaunayTriangulation(small_points)
        outside = Point(20.0, 20.0)
        triangulation.insert_site(outside)
        assert live_neighbor_map(triangulation) == rebuilt_neighbor_map(
            small_points + [outside]
        )

    def test_changed_set_is_sound(self, small_points):
        """Sites outside the reported changed set kept their neighbour lists."""
        triangulation = DelaunayTriangulation(small_points)
        before = {i: triangulation.neighbors_of(i) for i in triangulation.active_indexes()}
        _, changed = triangulation.insert_site(Point(4.2, 5.1))
        for index, neighbors in before.items():
            if index not in changed:
                assert triangulation.neighbors_of(index) == neighbors

    def test_insert_stream_matches_rebuild(self):
        rng = random.Random(77)
        points = uniform_points(60, extent=1_000.0, seed=7)
        triangulation = DelaunayTriangulation(points)
        for _ in range(40):
            point = Point(rng.uniform(-100.0, 1_100.0), rng.uniform(-100.0, 1_100.0))
            points.append(point)
            triangulation.insert_site(point)
        assert live_neighbor_map(triangulation) == rebuilt_neighbor_map(points)

    @pytest.mark.parametrize("pick", ["nearest", "farthest", "removed", "unknown"])
    def test_any_hint_yields_the_same_triangulation(self, pick):
        """The hint only picks where the search for a first bad triangle starts."""
        rng = random.Random(78)
        points = uniform_points(60, extent=1_000.0, seed=8)
        plain = DelaunayTriangulation(points)
        hinted = DelaunayTriangulation(points)
        removed = 17
        plain.remove_site(removed)
        hinted.remove_site(removed)
        for _ in range(25):
            point = Point(rng.uniform(-100.0, 1_100.0), rng.uniform(-100.0, 1_100.0))
            by_distance = sorted(
                plain.active_indexes(),
                key=lambda i: plain.points[i].distance_squared_to(point),
            )
            hint = {
                "nearest": by_distance[0],
                "farthest": by_distance[-1],
                "removed": removed,  # stale: ignored
                "unknown": 10_000,  # never existed: ignored
            }[pick]
            assert hinted.insert_site(point, hint=hint) == plain.insert_site(point)
            assert hinted.triangles == plain.triangles


class TestRemoveSite:
    def test_interior_removal_matches_rebuild(self):
        points = uniform_points(80, extent=1_000.0, seed=9)
        triangulation = DelaunayTriangulation(points)
        # The centroid-most point is always interior (no ghost in its star).
        center = Point(500.0, 500.0)
        victim = min(range(len(points)), key=lambda i: points[i].distance_squared_to(center))
        changed = triangulation.remove_site(victim)
        assert victim not in triangulation.active_indexes()
        assert changed  # the hole boundary is never empty
        survivors = [p for i, p in enumerate(points) if i != victim]
        assert live_neighbor_map(triangulation) == rebuilt_neighbor_map(survivors)

    def test_hull_removal_matches_rebuild(self):
        points = uniform_points(40, extent=1_000.0, seed=10)
        triangulation = DelaunayTriangulation(points)
        # The point with the smallest x coordinate is on the convex hull.
        hull_site = min(range(len(points)), key=lambda i: points[i].x)
        assert hull_site in hull_sites(triangulation)
        old_neighbors = triangulation.neighbors_of(hull_site)
        changed = triangulation.remove_site(hull_site)
        assert changed == old_neighbors  # local, and no ghost vertex in it
        assert live_neighbor_map(triangulation) == rebuilt_neighbor_map(
            survivors(triangulation)
        )

    def test_removal_below_three_sites_raises_and_mutates_nothing(self):
        triangulation = DelaunayTriangulation(
            [Point(0.0, 0.0), Point(10.0, 1.0), Point(4.0, 9.0)]
        )
        before = triangulation.triangles
        with pytest.raises(GeometryError):
            triangulation.remove_site(1)
        assert triangulation.triangles == before
        assert triangulation.active_indexes() == [0, 1, 2]

    def test_removal_leaving_collinear_sites_raises(self):
        line = [Point(float(x), 0.0) for x in range(4)]
        triangulation = DelaunayTriangulation(line + [Point(1.5, 2.0)])
        with pytest.raises(GeometryError):
            triangulation.remove_site(4)
        assert triangulation.is_active(4)

    def test_removed_site_rejected_twice(self):
        points = uniform_points(30, extent=1_000.0, seed=11)
        triangulation = DelaunayTriangulation(points)
        center = Point(500.0, 500.0)
        victim = min(range(len(points)), key=lambda i: points[i].distance_squared_to(center))
        triangulation.remove_site(victim)
        with pytest.raises(GeometryError):
            triangulation.remove_site(victim)
        with pytest.raises(GeometryError):
            triangulation.neighbors_of(victim)


class TestRandomizedSequences:
    def test_shuffled_insert_delete_sequence_matches_rebuild(self):
        """The incremental structure is bit-identical to a rebuild, always."""
        rng = random.Random(123)
        points = uniform_points(50, extent=1_000.0, seed=12)
        triangulation = DelaunayTriangulation(points)
        for step in range(120):
            if rng.random() < 0.45 and len(triangulation.active_indexes()) > 10:
                victim = rng.choice(triangulation.active_indexes())
                triangulation.remove_site(victim)
            else:
                point = Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
                triangulation.insert_site(point)
            assert live_neighbor_map(triangulation) == rebuilt_neighbor_map(
                survivors(triangulation)
            ), f"neighbour maps diverged after step {step}"

    @pytest.mark.parametrize("seed", [14, 15, 16])
    def test_hull_only_deletions_down_to_three_survivors(self, seed):
        """Peel the convex hull, one random hull site at a time."""
        rng = random.Random(seed)
        triangulation = DelaunayTriangulation(
            uniform_points(45, extent=1_000.0, seed=seed)
        )
        while len(triangulation.active_indexes()) > 3:
            victim = rng.choice(hull_sites(triangulation))
            old_neighbors = triangulation.neighbors_of(victim)
            assert triangulation.remove_site(victim) == old_neighbors
            assert live_neighbor_map(triangulation) == rebuilt_neighbor_map(
                survivors(triangulation)
            ), f"neighbour maps diverged with {len(survivors(triangulation))} left"
        assert hull_sites(triangulation) == triangulation.active_indexes()
        with pytest.raises(GeometryError):
            triangulation.remove_site(triangulation.active_indexes()[0])

    def test_neighbor_relation_stays_symmetric(self):
        rng = random.Random(321)
        triangulation = DelaunayTriangulation(uniform_points(40, extent=500.0, seed=13))
        for _ in range(60):
            triangulation.insert_site(
                Point(rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0))
            )
        adjacency = triangulation.neighbors()
        for index, neighbors in adjacency.items():
            for neighbor in neighbors:
                assert index in adjacency[neighbor]
