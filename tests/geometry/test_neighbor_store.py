"""The triangulation's neighbour store: hand-worked answers, edits in place,
refusals that edit nothing, pickles written before the store or the link
maps existed, and a build whose store costs no second copy.

The fixture is a convex pentagon around one interior site, in general
position (no four sites co-circular), so every answer below is the unique
Delaunay adjacency and was worked out by hand from the in-circle test:

    4 (-2, 7)   3 (5, 12)   2 (12, 8)
                5 (5, 5)
    0 (0, 0)                1 (10, 0)

The interior site 5 sees every hull site; the hull sites see their two hull
neighbours and 5 (the wheel).
"""

import copy
import pickle
import random
import tracemalloc

import pytest

from repro.errors import GeometryError
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.workloads.datasets import uniform_points

PENTAGON = [Point(0, 0), Point(10, 0), Point(12, 8), Point(5, 12), Point(-2, 7), Point(5, 5)]

WHEEL = {
    0: {1, 4, 5},
    1: {0, 2, 5},
    2: {1, 3, 5},
    3: {2, 4, 5},
    4: {0, 3, 5},
    5: {0, 1, 2, 3, 4},
}


class TestKnownAdjacency:
    """Literal adjacency after each kind of edit the store takes."""

    def build(self):
        return DelaunayTriangulation(PENTAGON)

    def test_the_build_is_the_wheel(self):
        """The derived store of a fresh build."""
        assert self.build().neighbors() == WHEEL

    def test_an_insert_inside_the_hull(self):
        """(8, 3) lies in triangle (1, 2, 5) and in the circumcircle of
        (0, 1, 5) (centre (5, 0), radius 5): the cavity's one interior edge
        1-5 goes, 6 joins 0, 1, 2, 5."""
        triangulation = self.build()
        assert triangulation.insert_site(Point(8, 3)) == (6, {0, 1, 2, 5, 6})
        assert triangulation.neighbors() == {
            0: {1, 4, 5, 6},
            1: {0, 2, 6},
            2: {1, 3, 5, 6},
            3: {2, 4, 5},
            4: {0, 3, 5},
            5: {0, 2, 3, 4, 6},
            6: {0, 1, 2, 5},
        }

    def test_an_insert_outside_the_hull(self):
        """(15, 2) sees only the hull edge 1-2: the cavity is that edge's
        ghost triangle, no real edge goes, 6 joins 1 and 2."""
        triangulation = self.build()
        assert triangulation.insert_site(Point(15, 2)) == (6, {1, 2, 6})
        assert triangulation.neighbors() == {**WHEEL, 1: {0, 2, 5, 6}, 2: {1, 3, 5, 6}, 6: {1, 2}}

    def test_a_hull_site_delete(self):
        """Removing 3 opens the hole 2-5-4 on the hull: the new hull edge
        2-4 is the one diagonal."""
        triangulation = self.build()
        assert triangulation.remove_site(3) == {2, 4, 5}
        assert triangulation.neighbors() == {
            0: {1, 4, 5},
            1: {0, 2, 5},
            2: {1, 4, 5},
            4: {0, 2, 5},
            5: {0, 1, 2, 4},
        }

    def test_an_interior_delete(self):
        """Removing 5 leaves the pentagon, closed by the diagonals 3-0 and
        3-1 (the fan from the top vertex)."""
        triangulation = self.build()
        assert triangulation.remove_site(5) == {0, 1, 2, 3, 4}
        assert triangulation.neighbors() == {
            0: {1, 3, 4},
            1: {0, 2, 3},
            2: {1, 3},
            3: {0, 1, 2, 4},
            4: {0, 3},
        }

    def test_the_sets_handed_out_are_edited_in_place(self):
        """``neighbor_sets`` hands out the store's own sets: held across an
        insert, the set of site 5 is the same object with the new contents."""
        triangulation = self.build()
        held = triangulation.neighbor_sets([5])[5]
        triangulation.insert_site(Point(8, 3))
        assert triangulation.neighbor_sets([5])[5] is held
        assert held == {0, 2, 3, 4, 6}
        assert triangulation.neighbors_of(5) is not held


class TestRefusals:
    """A mutation refused with GeometryError edits no set of the store."""

    def snapshot(self, triangulation):
        store = triangulation._adjacent
        return dict(store), {site: set(neighbors) for site, neighbors in store.items()}

    def check_refused(self, triangulation, mutate):
        objects, contents = self.snapshot(triangulation)
        with pytest.raises(GeometryError):
            mutate()
        after_objects, after_contents = self.snapshot(triangulation)
        assert after_contents == contents
        assert all(after_objects[site] is objects[site] for site in objects)
        assert after_objects.keys() == objects.keys()

    def test_removing_the_third_last_site(self):
        triangulation = DelaunayTriangulation(PENTAGON)
        for site in (5, 4, 3):
            triangulation.remove_site(site)
        self.check_refused(triangulation, lambda: triangulation.remove_site(0))

    def test_removing_the_apex_over_a_line(self):
        line = [Point(float(x), 0.0) for x in range(5)] + [Point(2.0, 3.0)]
        triangulation = DelaunayTriangulation(line)
        self.check_refused(triangulation, lambda: triangulation.remove_site(5))

    def test_removing_a_removed_site(self):
        triangulation = DelaunayTriangulation(PENTAGON)
        triangulation.remove_site(5)
        self.check_refused(triangulation, lambda: triangulation.remove_site(5))


def churn(tree, rng, rounds):
    for _ in range(rounds):
        inserts = [Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0)) for _ in range(3)]
        tree.batch_update(inserts, rng.sample(tree.active_indexes(), 3))


def lists(tree):
    return {index: set(tree.voronoi_neighbors(index)) for index in tree.active_indexes()}


class TestPicklesWithoutTheStore:
    """A pickle written before the store existed restores: the store is
    derived from the edge map, and maintenance carries on from it."""

    def test_a_triangulation_derives_its_store(self):
        triangulation = DelaunayTriangulation(uniform_points(80, extent=1_000.0, seed=3))
        triangulation.insert_site(Point(500.0, 500.0))
        triangulation.remove_site(7)
        state = dict(vars(triangulation))
        del state["_adjacent"]
        restored = DelaunayTriangulation.__new__(DelaunayTriangulation)
        restored.__setstate__(copy.deepcopy(state))
        assert restored._adjacent == triangulation._adjacent

    def test_a_tree_restored_without_the_store_churns_to_the_rebuild(self):
        rng = random.Random(11)
        tree = VoRTree(uniform_points(200, extent=1_000.0, seed=29))
        churn(tree, rng, 10)
        # What an older version pickled: frozen lists and no store.
        tree._neighbor_map = {obj: frozenset(n) for obj, n in tree._neighbor_map.items()}
        del tree.voronoi._delaunay._adjacent
        restored = pickle.loads(pickle.dumps(tree))
        edges = restored.voronoi._delaunay.edge_map()
        assert restored.voronoi._delaunay._adjacent == {
            site: {b for a, b in edges if a == site and b >= 0}
            for site in restored.voronoi.active_site_indexes()
        }
        assert lists(restored) == lists(tree)
        churn(restored, rng, 20)
        patched = lists(restored)
        restored.full_rebuild()
        assert patched == lists(restored)

    @pytest.mark.parametrize("with_store", [True, False], ids=["with-store", "without-store"])
    def test_a_tree_pickled_with_one_edge_keyed_map_churns_to_the_rebuild(self, with_store):
        """Before the link maps the triangulation was one map keyed by
        directed edge beside a spoke per vertex: a restore turns the map into
        rows, drops the spoke and derives the store if it is missing."""
        rng = random.Random(13)
        tree = VoRTree(uniform_points(200, extent=1_000.0, seed=31))
        churn(tree, rng, 10)
        triangulation = tree.voronoi._delaunay
        edges, store, expected = triangulation.edge_map(), triangulation._adjacent, lists(tree)
        state = vars(triangulation)
        state["_spoke"] = {vertex: next(iter(row)) for vertex, row in state["_apex"].items()}
        state["_apex"] = dict(edges)
        if not with_store:
            del state["_adjacent"]
        restored = pickle.loads(pickle.dumps(tree))
        triangulation = restored.voronoi._delaunay
        assert "_spoke" not in vars(triangulation)
        assert all(type(row) is dict for row in triangulation._apex.values())
        assert triangulation.edge_map() == edges
        assert triangulation._adjacent == store
        assert lists(restored) == expected
        churn(restored, rng, 20)
        patched = lists(restored)
        restored.full_rebuild()
        assert patched == lists(restored)


class TestTheBuildsMemory:
    """The store is read off the link maps without a second copy of it."""

    def test_the_build_peaks_within_a_tenth_of_what_it_holds(self):
        points = uniform_points(5_000, extent=1_000.0, seed=5)
        tracemalloc.start()
        try:
            triangulation = DelaunayTriangulation(points)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(triangulation._adjacent) == 5_000
        assert peak <= 1.1 * held, f"peak {peak} B against {held} B held"
