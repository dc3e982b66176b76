"""Point location for an insert: the walk starts from the point's cell.

An insert is located by a greedy walk over the neighbour lists to the
nearest live object, whose site the dual's cavity search starts from.  The
walk starts from the object the point-location table names for the point's
grid cell, and from the strided jump only where that cell names no live
object.  These tests pin the work that saves, that the located site is the
nearest object's site wherever the insert lands, that a delete never leaves
a dead entry to be read, and that a tree pickled before the table existed
restores and locates.
"""

import os
import pickle
import random

import pytest

import repro.index.vortree as vortree
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.workloads.datasets import clustered_points, uniform_points


def lists_of(tree):
    return {index: set(tree.voronoi_neighbors(index)) for index in tree.active_indexes()}


def cell_of(tree, point):
    side = tree._cell_side
    return (point.x // side, point.y // side)


def replacements(tree, rng, count, extent):
    """``count`` one-in-one-out replacements: insert a uniform point, then
    delete a random live object other than the new one."""
    for _ in range(count):
        index, _ = tree.insert(Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent)))
        victim = index
        while victim == index or not tree.is_active(victim):
            victim = rng.randrange(len(tree.positions))
        tree.delete(victim)


def test_a_located_insert_evaluates_few_distances(monkeypatch):
    """10 x n replacements on n = 2 000: the walk from the point's cell costs
    ~16 distance evaluations per insert; a walk from the strided jump alone
    costs ~63."""
    extent = 10_000.0
    tree = VoRTree(uniform_points(2_000, extent=extent, seed=91))
    rng = random.Random(92)
    calls = [0]
    real_dist = vortree.dist

    def counting_dist(a, b):
        calls[0] += 1
        return real_dist(a, b)

    monkeypatch.setattr(vortree, "dist", counting_dist)
    located = [0]
    real_insert = DelaunayTriangulation.insert_site

    def counting_insert(self, point, hint=None):
        located[0] += 1
        return real_insert(self, point, hint=hint)

    monkeypatch.setattr(DelaunayTriangulation, "insert_site", counting_insert)
    replacements(tree, rng, 10 * 2_000, extent)
    assert located[0] == 20_000
    assert calls[0] / located[0] <= 25


class TestTheLocatedSiteIsTheNearest:
    """Every located insert hands the dual the site of ``nearest(point, 1)``."""

    @pytest.fixture
    def hints(self, monkeypatch):
        seen = []
        real_insert = DelaunayTriangulation.insert_site

        def recording_insert(self, point, hint=None):
            seen.append(hint)
            return real_insert(self, point, hint=hint)

        monkeypatch.setattr(DelaunayTriangulation, "insert_site", recording_insert)
        return seen

    @staticmethod
    def insert_and_check(tree, hints, point):
        nearest = tree.nearest(point, 1)[0]
        expected = tree._site_at[tree.coordinates[nearest]]
        before = len(hints)
        index, changed = tree.insert(point)
        assert len(hints) == before + 1, "the insert was not located"
        assert hints[-1] == expected
        assert index in changed

    def test_uniform_and_clustered_inserts(self, hints):
        rng = random.Random(5)
        for points in (
            uniform_points(400, extent=1_000.0, seed=6),
            clustered_points(400, clusters=4, extent=1_000.0, spread_fraction=0.01, seed=7),
        ):
            tree = VoRTree(points)
            for step in range(300):
                if step % 2:
                    source = tree.point(rng.choice(tree.active_indexes()))
                    point = Point(source.x + rng.gauss(0, 3.0), source.y + rng.gauss(0, 3.0))
                else:
                    point = Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
                self.insert_and_check(tree, hints, point)
                tree.delete(rng.choice(tree.active_indexes()))
            before = lists_of(tree)
            tree.full_rebuild()
            assert lists_of(tree) == before

    def test_inserts_beside_stacked_twins(self, hints):
        rng = random.Random(8)
        base = uniform_points(60, extent=100.0, seed=9)
        tree = VoRTree(base + [base[i] for i in range(0, 60, 3)] * 2)
        assert tree._members
        for _ in range(120):
            anchor = tree.point(rng.choice(tree.active_indexes()))
            if rng.random() < 0.3:
                tree.insert(anchor)  # a twin joins its site: no location
            else:
                offset = rng.choice((1e-6, 0.01, 0.5)) * rng.uniform(0.5, 1.0)
                self.insert_and_check(
                    tree, hints, Point(anchor.x + offset, anchor.y - offset / 2)
                )
            tree.delete(rng.choice(tree.active_indexes()))

    def test_inserts_outside_the_box_the_table_was_sized_on(self, hints):
        tree = VoRTree(uniform_points(200, extent=100.0, seed=10))
        self.insert_and_check(tree, hints, Point(50.5, 49.5))
        assert tree._cells is not None
        # Far, but not so far that the inexact predicates break the dual.
        far = [
            Point(-7.25, -3.5), Point(-1e3, 40.0), Point(130.0, -0.001), Point(1e6, 1e6),
            Point(-1e6, 2e6), Point(1e6 + 1.0, 1e6 - 1.0), Point(-7.0, -3.0), Point(99.9, 250.0),
        ]
        for point in far:
            self.insert_and_check(tree, hints, point)
        for point in far[:4]:
            tree.delete(tree.nearest(point, 1)[0])
            self.insert_and_check(tree, hints, Point(point.x + 0.5, point.y + 0.5))
        before = lists_of(tree)
        tree.full_rebuild()
        assert lists_of(tree) == before


class TestTheTableNamesLiveObjects:
    def test_a_delete_that_empties_a_cell_heals_it(self, monkeypatch):
        tree = VoRTree(uniform_points(500, extent=1_000.0, seed=11))
        tree.insert(Point(500.0, 500.0))
        counts = {}
        for index in tree.active_indexes():
            cell = cell_of(tree, tree.point(index))
            counts.setdefault(cell, []).append(index)
        lonely = [objects[0] for objects in counts.values() if len(objects) == 1]
        assert len(lonely) >= 10
        jumps = []
        real_jump = VoRTree._jump
        monkeypatch.setattr(VoRTree, "_jump", lambda self, q: jumps.append(q) or real_jump(self, q))
        for index in lonely[:10]:
            point = tree.point(index)
            cell = cell_of(tree, point)
            assert tree._cells[cell] == index
            tree.delete(index)
            assert tree.is_active(tree._cells[cell])
            tree.insert(Point(point.x + 1e-3, point.y))
        assert jumps == []

    def test_no_walk_starts_from_a_dead_object(self, monkeypatch):
        tree = VoRTree(uniform_points(300, extent=1_000.0, seed=12))
        real_walk = VoRTree._walk

        def checked_walk(self, q, seed):
            assert self.is_active(seed), f"the walk started from dead object {seed}"
            return real_walk(self, q, seed)

        monkeypatch.setattr(VoRTree, "_walk", checked_walk)
        rng = random.Random(13)
        for _ in range(30):
            # Deleting whole neighbourhoods leaves cells healed to objects
            # that a later delete kills.
            victim = rng.choice(tree.active_indexes())
            for index in [victim, *tree.voronoi_neighbors(victim)]:
                tree.delete(index)
            for _ in range(8):
                tree.insert(Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0)))
        dead = [index for index in tree._cells.values() if not tree.is_active(index)]
        assert dead, "no entry outlived its object: the read check went untested"

    def test_a_rebuild_drops_the_table(self):
        tree = VoRTree(uniform_points(100, extent=100.0, seed=14))
        assert tree._cells is None
        tree.insert(Point(10.0, 10.0))
        assert tree._cells is not None
        tree.full_rebuild()
        assert tree._cells is None


def test_a_tree_pickled_before_the_table_restores_and_locates():
    """A tree pickled by a version that kept no point-location table, as::

        tree = VoRTree(uniform_points(40, extent=100.0, seed=8))
        tree.insert(Point(50.0, 50.0)); tree.insert(tree.point(6))
        tree.delete(6); tree.delete(11)
        pickle.dump(tree, file, protocol=4)

    restores without one, builds it on its first located insert, and then
    answers every update like a tree built fresh and updated the same way."""
    golden = os.path.join(os.path.dirname(__file__), "golden", "vortree-no-cells.pickle")
    with open(golden, "rb") as handle:
        tree = pickle.load(handle)
    assert tree._cells is None
    fresh = VoRTree(uniform_points(40, extent=100.0, seed=8))
    fresh.insert(Point(50.0, 50.0))
    fresh.insert(fresh.point(6))
    fresh.delete(6)
    fresh.delete(11)
    assert lists_of(tree) == lists_of(fresh)
    rng = random.Random(15)
    for _ in range(40):
        point = Point(rng.uniform(-10.0, 110.0), rng.uniform(-10.0, 110.0))
        assert tree.insert(point) == fresh.insert(point)
        victim = rng.choice(tree.active_indexes())
        assert tree.delete(victim) == fresh.delete(victim)
    assert tree._cells is not None
    assert lists_of(tree) == lists_of(fresh)
    assert pickle.loads(pickle.dumps(tree))._cells is None
