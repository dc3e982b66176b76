"""Property-based tests for the spatial indexes (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox
from repro.index.rtree import RTree, RTreeEntry

coordinates = st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False, allow_infinity=False)
points_strategy = st.builds(Point, coordinates, coordinates)
point_lists = st.lists(
    points_strategy,
    min_size=1,
    max_size=60,
    unique_by=lambda p: (round(p.x, 6), round(p.y, 6)),
)


def brute_knn_distances(points, query, k):
    return sorted(query.distance_to(p) for p in points)[:k]


class TestRTreeProperties:
    @given(point_lists, points_strategy, st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_knn_distances_match_brute_force(self, points, query, k):
        k = min(k, len(points))
        tree = RTree.bulk_load([RTreeEntry(p, i) for i, p in enumerate(points)], max_entries=6)
        got = [d for d, _ in tree.nearest_neighbors(query, k)]
        expected = brute_knn_distances(points, query, k)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-9

    @given(point_lists, st.data())
    @settings(max_examples=40, deadline=None)
    def test_range_search_matches_linear_scan(self, points, data):
        tree = RTree.bulk_load([RTreeEntry(p, i) for i, p in enumerate(points)], max_entries=5)
        x1 = data.draw(coordinates)
        x2 = data.draw(coordinates)
        y1 = data.draw(coordinates)
        y2 = data.draw(coordinates)
        box = BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        expected = {i for i, p in enumerate(points) if box.contains_point(p)}
        got = {entry.payload for entry in tree.range_search(box)}
        assert got == expected

    @given(point_lists)
    @settings(max_examples=40, deadline=None)
    def test_insert_then_delete_restores_size(self, points):
        tree = RTree(max_entries=5)
        for index, point in enumerate(points):
            tree.insert(point, index)
        assert len(tree) == len(points)
        for index, point in enumerate(points):
            assert tree.delete(point, index)
        assert len(tree) == 0


class TestCrossIndexAgreement:
    @given(point_lists, points_strategy, st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_all_indexes_agree_on_knn_distances(self, points, query, k):
        """The baselines' R-tree, at its default node size, against brute force."""
        k = min(k, len(points))
        rtree = RTree.bulk_load([RTreeEntry(p, i) for i, p in enumerate(points)])
        expected = brute_knn_distances(points, query, k)
        got = [d for d, _ in rtree.nearest_neighbors(query, k)]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-9
