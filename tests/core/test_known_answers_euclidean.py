"""Hand-computed Euclidean answers (ROADMAP 4d) — literals, no oracle code.

Nine objects: a cross around the origin and four far corners::

         6 (-10,10)                         5 (10,10)

                          3 (0,2)
               2 (-2,0)   0 (0,0)   1 (2,0)
                          4 (0,-2)

         7 (-10,-10)                        8 (10,-10)

Worked by hand:

* object 0's Voronoi cell is the square |x| < 1, |y| < 1, so its
  neighbours are the four arms; each arm touches the centre, the two arms
  beside it (along the diagonals, from (±1, ±1) outwards) and the two
  corners on its side; each corner touches its two arms and the two
  corners beside it (the corner/corner bisector is an axis, which the arm
  gives up beyond 12.25: ``(t - 2)² = (t - 10)² + 100`` at ``t = 12.25``).
* a query at ``(x, 0)`` is at distance ``|x|`` from 0, ``|2 - x|`` from 1,
  ``x + 2`` from 2 and ``hypot(x, 2)`` from 3 and 4.  Every x below is a
  dyadic rational, so these floats are exact.
"""

import pytest

from repro.core.ins_euclidean import INSProcessor
from repro.core.objects import UpdateAction
from repro.geometry.point import Point
from repro.index.vortree import VoRTree

OBJECTS = [
    Point(0.0, 0.0),
    Point(2.0, 0.0),
    Point(-2.0, 0.0),
    Point(0.0, 2.0),
    Point(0.0, -2.0),
    Point(10.0, 10.0),
    Point(-10.0, 10.0),
    Point(-10.0, -10.0),
    Point(10.0, -10.0),
]

NEIGHBOURS = {
    0: {1, 2, 3, 4},
    1: {0, 3, 4, 5, 8},
    2: {0, 3, 4, 6, 7},
    3: {0, 1, 2, 5, 6},
    4: {0, 1, 2, 7, 8},
    5: {1, 3, 6, 8},
    6: {2, 3, 5, 7},
    7: {2, 4, 6, 8},
    8: {1, 4, 5, 7},
}


@pytest.fixture
def tree():
    return VoRTree(OBJECTS)


def test_voronoi_neighbour_lists(tree):
    assert {index: set(tree.voronoi_neighbors(index)) for index in range(9)} == NEIGHBOURS


@pytest.mark.parametrize(
    "query, count, nearest, influential",
    [
        (Point(0.0, 0.0), 1, [0], {1, 2, 3, 4}),
        (Point(0.5, 0.25), 1, [0], {1, 2, 3, 4}),
        (Point(0.5, 0.25), 2, [0, 1], {2, 3, 4, 5, 8}),
        (Point(0.5, 0.25), 3, [0, 1, 3], {2, 4, 5, 6, 8}),
        (Point(0.5, 0.25), 5, [0, 1, 3, 4, 2], {5, 6, 7, 8}),
        (Point(9.0, 8.0), 2, [5, 1], {0, 3, 4, 6, 8}),
        (Point(-1.5, -0.25), 9, [2, 0, 4, 3, 1, 7, 6, 8, 5], set()),
    ],
)
def test_retrieval(tree, query, count, nearest, influential):
    for hint in (None, 0, 7):
        assert tree.retrieve(query, count, hint)[:2] == (nearest, influential)
    assert tree.nearest(query, count) == nearest
    assert tree.influential_neighbor_set(nearest) == influential


class TestOneNearestNeighbour:
    """k = 1 (⌊1.6 k⌋ = 1, so R is the answer itself): object 0 guards
    against its four arms and stays the answer along the x-axis while
    ``x < 2 - x``, that is for x < 1 — and not *at* 1."""

    def start(self):
        processor = INSProcessor(VoRTree(OBJECTS), k=1)
        first = processor.initialize(Point(0.0, 0.0))
        assert (first.knn, first.knn_distances) == ((0,), (0.0,))
        assert processor.prefetched_set == [0]
        assert processor.influential_set == {1, 2, 3, 4}
        assert first.guard_objects == frozenset({1, 2, 3, 4})
        return processor

    @pytest.mark.parametrize("x", [0.25, 0.5, 0.9375, 0.999999999999])
    def test_valid_short_of_the_bisector(self, x):
        result = self.start().update(Point(x, 0.0))
        assert result.was_valid and result.action is UpdateAction.NONE
        assert (result.knn, result.knn_distances) == ((0,), (x,))

    def test_invalid_at_the_tie(self):
        processor = self.start()
        result = processor.update(Point(1.0, 0.0))
        assert not result.was_valid
        assert result.action is UpdateAction.FULL_RECOMPUTE
        assert result.knn in ((0,), (1,)) and result.knn_distances == (1.0,)
        assert processor.stats.full_recomputations == 2

    def test_the_answer_changes_past_the_bisector(self):
        processor = self.start()
        result = processor.update(Point(1.0625, 0.0))
        assert not result.was_valid
        assert (result.knn, result.knn_distances) == ((1,), (0.9375,))
        assert processor.prefetched_set == [1]
        assert processor.influential_set == {0, 3, 4, 5, 8}


class TestTwoNearestNeighbours:
    """k = 2 (⌊1.6 k⌋ = 3): from (0.5, 0.25) the server ships R = [0, 1, 3]
    and I(R) = {2, 4, 5, 6, 8}.  On the x-axis {0, 1} stays the answer while
    ``2 - x < hypot(x, 2)`` (x > 0) and ``x < hypot(x - 10, 10)`` (x < 10):
    valid on the open interval (0, 10), invalid at both ends."""

    def start(self):
        processor = INSProcessor(VoRTree(OBJECTS), k=2)
        first = processor.initialize(Point(0.5, 0.25))
        assert first.knn == (0, 1)
        assert first.knn_distances == (0.5590169943749475, 1.5206906325745548)
        assert processor.prefetched_set == [0, 1, 3]
        assert processor.influential_set == {2, 4, 5, 6, 8}
        assert first.guard_objects == frozenset({2, 3, 4, 5, 6, 8})
        return processor

    @pytest.mark.parametrize(
        "x, distances",
        [
            (0.0625, (0.0625, 1.9375)),
            (0.5, (0.5, 1.5)),
            (1.0, (1.0, 1.0)),
            (3.0, (3.0, 1.0)),
            (9.0, (9.0, 7.0)),
            (9.9375, (9.9375, 7.9375)),
        ],
    )
    def test_valid_inside_the_interval(self, x, distances):
        processor = self.start()
        result = processor.update(Point(x, 0.0))
        assert result.was_valid and result.action is UpdateAction.NONE
        assert (result.knn, result.knn_distances) == ((0, 1), distances)
        assert processor.stats.full_recomputations == 1

    def test_invalid_at_the_lower_tie(self):
        # At the origin objects 1, 2, 3 and 4 are all at distance 2.
        result = self.start().update(Point(0.0, 0.0))
        assert not result.was_valid
        assert result.knn[0] == 0 and result.knn[1] in (1, 2, 3, 4)
        assert result.knn_distances == (0.0, 2.0)

    def test_invalid_at_the_upper_tie(self):
        # At (10, 0) objects 0, 5 and 8 are all at distance 10.
        result = self.start().update(Point(10.0, 0.0))
        assert not result.was_valid
        assert result.knn[0] == 1 and result.knn[1] in (0, 5, 8)
        assert result.knn_distances == (8.0, 10.0)

    def test_invalid_left_of_the_interval(self):
        processor = self.start()
        result = processor.update(Point(-0.5, 0.0))
        assert not result.was_valid
        assert (result.knn, result.knn_distances) == ((0, 2), (0.5, 1.5))

    def test_recomposed_from_R_without_the_server(self):
        # Towards object 3 the answer becomes {0, 3}: both are in R, and the
        # rest of the pool is strictly farther, so no round trip is needed.
        processor = self.start()
        result = processor.update(Point(0.25, 0.75))
        assert result.action is UpdateAction.LOCAL_REORDER
        assert result.knn == (0, 3)
        assert result.knn_distances == (0.7905694150420949, 1.2747548783981961)
        assert processor.stats.full_recomputations == 1
        assert result.guard_objects == frozenset({1, 2, 4, 5, 6, 8})
