"""Property-based tests for the spatial index (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.geometry.point import Point
from repro.index.vortree import VoRTree

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


class TestVoRTreeProperties:
    @given(point_lists, points_strategy, st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_knn_distances_match_brute_force(self, points, query, k):
        """A tree grown one insert at a time retrieves the brute-force floats."""
        k = min(k, len(points))
        tree = VoRTree(points[:1])
        for point in points[1:]:
            tree.insert(point)
        _, _, got = tree.retrieve(query, k)
        assert got == brute_knn_distances(points, query, k)

    @given(point_lists)
    @settings(max_examples=40, deadline=None)
    def test_insert_then_delete_restores_size(self, points):
        tree = VoRTree(points[:1])
        for index, point in enumerate(points[1:], start=1):
            assert tree.insert(point)[0] == index
        assert len(tree) == len(points)
        for index in range(1, len(points)):
            assert tree.delete(index)[0]
        assert tree.active_indexes() == [0]


class TestCrossIndexAgreement:
    @given(point_lists, points_strategy, st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_all_indexes_agree_on_knn_distances(self, points, query, k):
        """The VoR-tree's retrieval, which the INS processor and the plane
        baselines share, and its linear scan against brute force: the same
        floats."""
        k = min(k, len(points))
        tree = VoRTree(points)
        _, _, got = tree.retrieve(query, k)
        scanned = [query.distance_to(points[index]) for index in tree.nearest(query, k)]
        assert got == scanned == brute_knn_distances(points, query, k)
