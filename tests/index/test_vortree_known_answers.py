"""Known-answer tests for the Voronoi neighbour lists of degenerate layouts.

The order-1 Voronoi cells of sites on one line are parallel strips, so each
site's neighbours are the sites next to it along the line: ``n`` collinear
sites have ``n - 1`` neighbour pairs.  Collinearity is decided on the sites as
given, never on the perturbed copies the triangulation works on, so every
path — the VoR-tree and the convenience wrapper — answers with
this chain.  Every literal below is written out by hand.

Populations with no dual (one position, or a line) fall back to counted
from-scratch rebuilds; :class:`TestFallbackRebuilds` pins, step by step,
which updates rebuild and which stay local.
"""

import pytest

import repro.obs as obs
from repro.geometry.delaunay import delaunay_neighbors
from repro.geometry.point import Point
from repro.index.vortree import VoRTree

#: Ten sites on the x axis, 0..9: each neighbours the next.
TEN_ON_A_LINE = [Point(float(x), 0.0) for x in range(10)]

TEN_CHAIN = {
    0: {1},
    1: {0, 2},
    2: {1, 3},
    3: {2, 4},
    4: {3, 5},
    5: {4, 6},
    6: {5, 7},
    7: {6, 8},
    8: {7, 9},
    9: {8},
}


def tree_lists(tree):
    return {index: set(tree.voronoi_neighbors(index)) for index in tree.active_indexes()}


class TestCollinearObjects:
    """Sites on one line neighbour only the sites beside them."""

    def test_ten_collinear_objects_list_the_nine_pair_chain(self):
        """A triangulation of the jittered copies would list 20 pairs, not 9."""
        tree = VoRTree(TEN_ON_A_LINE)
        assert tree_lists(tree) == TEN_CHAIN
        assert sum(map(len, TEN_CHAIN.values())) == 2 * 9

    def test_every_path_gives_the_same_chain(self):
        """The wrapper and a shuffled line agree with the tree."""
        assert delaunay_neighbors(TEN_ON_A_LINE) == TEN_CHAIN
        shuffled = [Point(3.0, 0.0), Point(0.0, 0.0), Point(2.0, 0.0), Point(1.0, 0.0)]
        assert tree_lists(VoRTree(shuffled)) == {0: {2}, 1: {3}, 2: {0, 3}, 3: {1, 2}}

    def test_deleting_the_apex_above_a_line_leaves_the_chain(self):
        """Four sites on a line plus 4 (1.5, 2) above them: the apex neighbours
        all four, and once it goes only the line's chain is left."""
        line = [Point(float(x), 0.0) for x in range(4)]
        tree = VoRTree(line + [Point(1.5, 2.0)])
        assert tree.voronoi_neighbors(4) == {0, 1, 2, 3}
        assert tree.delete(4) == (True, {0, 1, 2, 3})
        assert tree_lists(tree) == {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}


class TestFallbackRebuilds:
    """``insq_index_rebuilds_total{reason=geometry_error}`` moves only where
    no dual can take the update: a twin on a one-position population
    rebuilds, a twin joining or leaving a line does not, and every update
    that changes the line's distinct positions does."""

    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        obs.reset()
        obs.enable()
        yield
        obs.reset()

    @staticmethod
    def rebuilds():
        return obs.counter("insq_index_rebuilds_total", reason="geometry_error").value

    def test_twins_on_one_position_rebuild_each_time(self):
        tree = VoRTree([Point(1.0, 1.0), Point(1.0, 1.0)])
        assert tree_lists(tree) == {0: {1}, 1: {0}}
        assert self.rebuilds() == 0
        assert tree.insert(Point(1.0, 1.0)) == (2, {0, 1, 2})
        assert tree_lists(tree) == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        assert self.rebuilds() == 1
        assert tree.delete(2) == (True, {0, 1})
        assert tree_lists(tree) == {0: {1}, 1: {0}}
        assert self.rebuilds() == 2

    def test_a_line_rebuilds_only_when_its_positions_change(self):
        tree = VoRTree([Point(float(x), 0.0) for x in range(4)])
        assert tree_lists(tree) == {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        assert self.rebuilds() == 0
        # A twin at (2, 0) joins site 2: its lists and its neighbours' change.
        assert tree.insert(Point(2.0, 0.0)) == (4, {1, 2, 3, 4})
        assert tree_lists(tree) == {
            0: {1}, 1: {0, 2, 4}, 2: {1, 3, 4}, 3: {2, 4}, 4: {1, 2, 3},
        }
        assert tree.delete(4) == (True, {1, 2, 3})
        assert tree_lists(tree) == {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
        assert self.rebuilds() == 0
        # The founder of (2, 0) leaves with no twin: three positions remain.
        assert tree.delete(2) == (True, {0, 1, 3})
        assert tree_lists(tree) == {0: {1}, 1: {0, 3}, 3: {1}}
        assert self.rebuilds() == 1
        assert tree.insert(Point(5.0, 0.0)) == (5, {0, 1, 3, 5})
        assert tree_lists(tree) == {0: {1}, 1: {0, 3}, 3: {1, 5}, 5: {3}}
        assert self.rebuilds() == 2
        # Off the line: the four line objects and the apex are one dual.  Its
        # hull runs along the line, where the jitter may link sites across
        # it (ROADMAP item 1), so the lists are checked against a fresh build.
        assert tree.insert(Point(2.0, 3.0)) == (6, {0, 1, 3, 5, 6})
        assert tree.voronoi_neighbors(6) == {0, 1, 3, 5}
        active = tree.active_indexes()
        fresh = delaunay_neighbors([tree.point(index) for index in active])
        assert tree_lists(tree) == {
            active[site]: {active[other] for other in neighbors}
            for site, neighbors in fresh.items()
        }
        assert self.rebuilds() == 3
