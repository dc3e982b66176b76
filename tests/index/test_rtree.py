"""Tests for repro.index.rtree."""

import random

import pytest

from repro.errors import ConfigurationError, QueryError
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox
from repro.index.rtree import RTree, RTreeEntry
from repro.workloads.datasets import clustered_points, uniform_points


def build_tree(points, bulk=True, max_entries=8):
    entries = [RTreeEntry(p, i) for i, p in enumerate(points)]
    if bulk:
        return RTree.bulk_load(entries, max_entries=max_entries)
    tree = RTree(max_entries=max_entries)
    for entry in entries:
        tree.insert(entry.point, entry.payload)
    return tree


def brute_knn(points, query, k):
    order = sorted(range(len(points)), key=lambda i: (query.distance_squared_to(points[i]), i))
    return [i for i in order[:k]]


class TestConstruction:
    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            RTree(max_entries=2)
        with pytest.raises(ConfigurationError):
            RTree(max_entries=8, min_entries=7)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert list(tree.entries()) == []
        assert list(tree.incremental_nearest(Point(0, 0))) == []

    def test_bulk_load_size_and_entries(self, medium_points):
        tree = build_tree(medium_points)
        assert len(tree) == len(medium_points)
        assert sorted(e.payload for e in tree.entries()) == list(range(len(medium_points)))

    def test_bulk_load_height_is_logarithmic(self, medium_points):
        tree = build_tree(medium_points, max_entries=8)
        assert tree.height <= 4

    def test_insert_matches_bulk_load_content(self, medium_points):
        bulk = build_tree(medium_points, bulk=True)
        incremental = build_tree(medium_points, bulk=False)
        assert sorted(e.payload for e in bulk.entries()) == sorted(
            e.payload for e in incremental.entries()
        )

    def test_single_item(self):
        tree = build_tree([Point(1, 1)])
        result = tree.nearest_neighbors(Point(0, 0), 1)
        assert len(result) == 1
        assert result[0][1].payload == 0


class TestKNNSearch:
    @pytest.mark.parametrize("k", [1, 3, 10, 25])
    def test_knn_matches_brute_force_bulk(self, medium_points, k):
        tree = build_tree(medium_points)
        query = Point(321.0, 654.0)
        expected = brute_knn(medium_points, query, k)
        got = tree.nearest_payloads(query, k)
        assert got == expected

    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_knn_matches_brute_force_incremental_insertions(self, medium_points, k):
        tree = build_tree(medium_points, bulk=False)
        query = Point(777.0, 111.0)
        assert tree.nearest_payloads(query, k) == brute_knn(medium_points, query, k)

    @pytest.mark.parametrize("max_entries", [4, 8, 16, 64])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_knn_matches_brute_force_at_every_node_capacity(self, max_entries, k):
        points = uniform_points(150, extent=400.0, seed=71)
        tree = build_tree(points, max_entries=max_entries)
        query = Point(123.0, 321.0)
        assert tree.nearest_payloads(query, k) == brute_knn(points, query, k)

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_knn_matches_brute_force_clustered(self, k):
        points = clustered_points(200, clusters=5, extent=500.0, seed=61)
        tree = build_tree(points)
        query = Point(111.0, 432.0)
        assert tree.nearest_payloads(query, k) == brute_knn(points, query, k)

    def test_query_outside_data_extent(self):
        points = uniform_points(60, extent=100.0, seed=72)
        tree = build_tree(points)
        query = Point(500.0, -300.0)
        assert tree.nearest_payloads(query, 4) == brute_knn(points, query, 4)

    def test_nearest_neighbors_distances_are_sorted(self):
        points = uniform_points(80, extent=100.0, seed=62)
        tree = build_tree(points)
        result = tree.nearest_neighbors(Point(50, 50), 10)
        distances = [d for d, _ in result]
        assert distances == sorted(distances)
        assert len(result) == 10

    def test_k_larger_than_size_returns_all(self):
        points = uniform_points(5, extent=10.0, seed=63)
        tree = build_tree(points)
        assert len(tree.nearest_neighbors(Point(0, 0), 50)) == 5

    def test_incremental_nearest_is_sorted(self, medium_points):
        tree = build_tree(medium_points)
        distances = [d for d, _ in tree.incremental_nearest(Point(500, 500))]
        assert distances == sorted(distances)
        assert len(distances) == len(medium_points)

    def test_nearest_payloads_requires_positive_k(self, medium_points):
        tree = build_tree(medium_points)
        with pytest.raises(QueryError):
            tree.nearest_payloads(Point(0, 0), 0)

    def test_node_access_counter_increases(self, medium_points):
        tree = build_tree(medium_points)
        tree.reset_counters()
        tree.nearest_neighbors(Point(500, 500), 5)
        assert tree.node_accesses > 0
        tree.reset_counters()
        assert tree.node_accesses == 0


class TestRangeSearch:
    def test_range_matches_brute_force(self, medium_points):
        tree = build_tree(medium_points)
        box = BoundingBox(200, 200, 600, 700)
        expected = {i for i, p in enumerate(medium_points) if box.contains_point(p)}
        got = {e.payload for e in tree.range_search(box)}
        assert got == expected

    def test_range_outside_data_is_empty(self, medium_points):
        tree = build_tree(medium_points)
        assert tree.range_search(BoundingBox(5000, 5000, 6000, 6000)) == []

    def test_full_range_returns_everything(self, medium_points):
        tree = build_tree(medium_points)
        box = BoundingBox.from_points(medium_points)
        assert len(tree.range_search(box)) == len(medium_points)


class TestDeletion:
    def test_delete_existing_entry(self, medium_points):
        tree = build_tree(medium_points)
        target = medium_points[17]
        assert tree.delete(target, 17)
        assert len(tree) == len(medium_points) - 1
        assert 17 not in tree.nearest_payloads(target, 3)

    def test_delete_missing_entry_returns_false(self, medium_points):
        tree = build_tree(medium_points)
        assert not tree.delete(Point(-999, -999))
        assert len(tree) == len(medium_points)

    def test_delete_many_then_query(self, medium_points):
        tree = build_tree(medium_points, max_entries=6)
        removed = set(range(0, len(medium_points), 3))
        for index in removed:
            assert tree.delete(medium_points[index], index)
        remaining_points = [p for i, p in enumerate(medium_points) if i not in removed]
        remaining_ids = [i for i in range(len(medium_points)) if i not in removed]
        query = Point(444.0, 555.0)
        expected_order = sorted(
            remaining_ids, key=lambda i: (query.distance_squared_to(medium_points[i]), i)
        )[:7]
        assert tree.nearest_payloads(query, 7) == expected_order

    def test_delete_all_entries(self):
        points = uniform_points(30, extent=100.0, seed=50)
        tree = build_tree(points, max_entries=4)
        for index, point in enumerate(points):
            assert tree.delete(point, index)
        assert len(tree) == 0
        assert list(tree.entries()) == []


class TestMixedWorkload:
    def test_random_insert_delete_query_sequence(self):
        rng = random.Random(99)
        reference = {}
        tree = RTree(max_entries=6)
        next_id = 0
        for step in range(300):
            action = rng.random()
            if action < 0.6 or not reference:
                point = Point(rng.uniform(0, 100), rng.uniform(0, 100))
                tree.insert(point, next_id)
                reference[next_id] = point
                next_id += 1
            else:
                victim = rng.choice(list(reference))
                assert tree.delete(reference[victim], victim)
                del reference[victim]
        assert len(tree) == len(reference)
        query = Point(50, 50)
        k = min(10, len(reference))
        expected = sorted(
            reference, key=lambda i: (query.distance_squared_to(reference[i]), i)
        )[:k]
        assert tree.nearest_payloads(query, k) == expected
