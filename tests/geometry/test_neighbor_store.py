"""The triangulation's neighbour lists are its link rows: hand-worked answers,
rows edited in place, hull lists rebuilt when their site changes, refusals
that edit nothing, pickles written with a neighbour store or before the link
maps existed, and a build and a tree that hold no second copy.

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
    """Literal adjacency after each kind of edit the rows take."""

    def build(self):
        return DelaunayTriangulation(PENTAGON)

    def test_the_build_is_the_wheel(self):
        """The rows of a fresh build."""
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

    def test_an_interior_list_is_its_row_edited_in_place(self):
        """``neighbor_sets`` hands out an interior site's row itself: held
        across an insert, the list of site 5 is the same object, its keys the
        new neighbours."""
        triangulation = self.build()
        held = triangulation.neighbor_sets([5])[5]
        assert held is triangulation._apex[5]
        triangulation.insert_site(Point(8, 3))
        assert triangulation.neighbor_sets([5])[5] is held
        assert held.keys() == {0, 2, 3, 4, 6}
        assert triangulation.neighbors_of(5) is not held

    def test_a_hull_list_is_a_ghost_free_frozenset_read_again_when_changed(self):
        """Hull site 1's row holds GHOST, so its list is a frozenset.  (15, 2)
        lies right of hull edge 1-2 only: 1 stays on the hull, and a re-read
        gives its new list while the old frozenset keeps the old one."""
        triangulation = self.build()
        held = triangulation.neighbor_sets([1])[1]
        assert type(held) is frozenset and held == {0, 2, 5}
        assert triangulation.insert_site(Point(15, 2)) == (6, {1, 2, 6})
        assert held == {0, 2, 5}
        lists = triangulation.neighbor_sets([1, 6])
        assert lists == {1: {0, 2, 5, 6}, 6: {1, 2}}
        assert all(type(found) is frozenset for found in lists.values())

    def test_a_hull_site_made_interior_is_handed_its_row(self):
        """(14, -4) lies right of hull edges 0-1 and 1-2 and in no real
        triangle's circumcircle (that of (0, 1, 5) has centre (5, 0), radius
        5): the two ghost triangles are the cavity, 6 joins 0, 1 and 2, and
        1 leaves the hull, so its re-read list is its row."""
        triangulation = self.build()
        assert triangulation.insert_site(Point(14, -4)) == (6, {0, 1, 2, 6})
        lists = triangulation.neighbor_sets([0, 1, 2, 6])
        assert lists[1] is triangulation._apex[1] and lists[1].keys() == {0, 2, 5, 6}
        assert (lists[0], lists[2], lists[6]) == ({1, 4, 5, 6}, {1, 3, 5, 6}, {0, 1, 2})
        assert all(type(lists[site]) is frozenset for site in (0, 2, 6))


class TestRefusals:
    """A mutation refused with GeometryError edits no row and replaces none."""

    def snapshot(self, triangulation):
        rows = triangulation._apex
        return dict(rows), {vertex: dict(row) for vertex, row in rows.items()}

    def check_refused(self, triangulation, mutate):
        objects, contents = self.snapshot(triangulation)
        with pytest.raises(GeometryError):
            mutate()
        after_objects, after_contents = self.snapshot(triangulation)
        assert after_contents == contents
        assert all(after_objects[vertex] is objects[vertex] for vertex in objects)
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


def with_a_store(tree):
    """Hand-set ``tree`` to the layout of a version that kept a neighbour
    store beside the rows: one set per site, and without twins each object's
    list *is* its site's set.  Returns the store."""
    triangulation = tree.voronoi
    store = {site: triangulation.neighbors_of(site) for site in triangulation.active_indexes()}
    triangulation._adjacent = store
    tree._neighbor_map = {obj: store[obj] for obj in tree.active_indexes()}
    return store


class TestPicklesWithTheStore:
    """A pickle written when a neighbour store stood beside the rows (or
    before the rows existed) restores without it, and maintenance carries on
    from the rows."""

    def test_a_triangulation_drops_its_store(self):
        triangulation = DelaunayTriangulation(uniform_points(80, extent=1_000.0, seed=3))
        triangulation.insert_site(Point(500.0, 500.0))
        triangulation.remove_site(7)
        state = copy.deepcopy(dict(vars(triangulation)))
        state["_adjacent"] = triangulation.neighbors()
        restored = DelaunayTriangulation.__new__(DelaunayTriangulation)
        restored.__setstate__(state)
        assert "_adjacent" not in vars(restored)
        assert restored.edge_map() == triangulation.edge_map()
        assert restored.neighbors() == triangulation.neighbors()

    def test_a_tree_whose_lists_alias_the_store_churns_to_the_rebuild(self):
        """The old sets stay the lists of the sites no mutation has touched
        yet; each is correct until its site changes and is read again."""
        rng = random.Random(11)
        tree = VoRTree(uniform_points(300, extent=1_000.0, seed=29))
        churn(tree, rng, 10)
        with_a_store(tree)
        expected = lists(tree)
        restored = pickle.loads(pickle.dumps(tree))
        triangulation = restored.voronoi
        assert "_adjacent" not in vars(triangulation)
        assert lists(restored) == expected
        for _ in range(200):
            restored.insert(Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0)))
            restored.delete(rng.choice(restored.active_indexes()))
            assert lists(restored) == triangulation.neighbors(), "a list went stale"
        old = [obj for obj, held in restored._neighbor_map.items() if type(held) is set]
        assert 0 < len(old) < len(restored)
        patched = lists(restored)
        restored.full_rebuild()
        assert patched == lists(restored)

    @pytest.mark.parametrize("with_store", [True, False], ids=["with-store", "without-store"])
    def test_a_tree_pickled_with_one_edge_keyed_map_churns_to_the_rebuild(self, with_store):
        """Before the link maps the triangulation was one map keyed by
        directed edge beside a spoke per vertex, and from some version on a
        store beside both: a restore turns the map into rows and drops the
        spoke and the store."""
        rng = random.Random(13)
        tree = VoRTree(uniform_points(200, extent=1_000.0, seed=31))
        churn(tree, rng, 10)
        triangulation = tree.voronoi
        edges, expected = triangulation.edge_map(), lists(tree)
        if with_store:
            with_a_store(tree)
        else:
            tree._neighbor_map = {obj: frozenset(n) for obj, n in expected.items()}
        state = vars(triangulation)
        state["_spoke"] = {vertex: next(iter(row)) for vertex, row in state["_apex"].items()}
        state["_apex"] = dict(edges)
        restored = pickle.loads(pickle.dumps(tree))
        triangulation = restored.voronoi
        assert not {"_spoke", "_adjacent"} & set(vars(triangulation))
        assert all(type(row) is dict for row in triangulation._apex.values())
        assert triangulation.edge_map() == edges
        assert lists(restored) == expected
        churn(restored, rng, 20)
        patched = lists(restored)
        restored.full_rebuild()
        assert patched == lists(restored)


class TestTheBuildsMemory:
    """The lists are the link rows: no second copy is built or held."""

    def test_the_build_peaks_within_a_tenth_of_what_it_holds(self):
        points = uniform_points(5_000, extent=1_000.0, seed=5)
        tracemalloc.start()
        try:
            triangulation = DelaunayTriangulation(points)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(triangulation.active_indexes()) == 5_000
        assert peak <= 1.1 * held, f"peak {peak} B against {held} B held"

    def test_a_tree_holds_at_most_950_bytes_per_object(self):
        """On CPython 3.11 a per-site neighbour set beside the rows held about
        1 350 B per object here; the rows alone hold about 830."""
        points = uniform_points(5_000, extent=1_000.0, seed=5)
        tracemalloc.start()
        try:
            tree = VoRTree(points)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tree) == 5_000
        assert held <= 950 * 5_000, f"{held / 5_000:.0f} B held per object"
