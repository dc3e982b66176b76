"""Known-answer tests for the order-k safe region, on both of its bindings.

The region query kind (:class:`~repro.queries.OrderKRegionProcessor`, over
the live VoR-tree) is also the E7 baseline.  It runs here as a bare
processor (``"kind"``) and as a ``kind="region"`` session on a serving
engine (``"served"``), the way the paper's sweep runs it.  Every value below
is worked out by hand, so the processor is checked against independent
answers, not only against its own past output.

Two layouts, each walked along ``y = 3``:

* ``SQUARE`` — the co-circular corners 0 (0, 0), 1 (10, 0), 2 (0, 10),
  3 (10, 10) plus 4 (30, 5).  The data box [0, 30] x [0, 10] grows by its
  larger side, 30, into the clipping box [-30, 60] x [-30, 40].  The
  bisectors: 0|1 and 2|3 are ``x = 5``, 0|2 and 1|3 are ``y = 5``, 1|2 is
  ``y = x``, 0|3 is ``x + y = 10``, 0|4 is ``6x + y = 92.5``, 1|4 is
  ``4x + y = 82.5`` and 3|4 is ``4x - y = 72.5``.  All four corners are
  equidistant from (5, 5), so several cells meet there in a single point:
  a site touching a cell only at a vertex is not in its MIS.
* ``COLLINEAR`` — 0 (0, 0), 1 (4, 0), 2 (10, 0), 3 (16, 0).  The clipping
  box is [-16, 32] x [-16, 16]; every bisector is vertical (x = 2, 5, 7,
  8, 10, 13), so every cell is a strip cut by the box.

A third layout, ``STACKED``, puts three objects at one position
(:class:`TestCoincidentObjects`).

The guard objects are the minimal influential set (MIS): the non-members
whose bisector with a member bounds the cell along an edge.
"""

import pytest

from repro.core.objects import UpdateAction
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.queries import OrderKRegionProcessor, RegionResult

SQUARE = [Point(0.0, 0.0), Point(10.0, 0.0), Point(0.0, 10.0), Point(10.0, 10.0), Point(30.0, 5.0)]
COLLINEAR = [Point(0.0, 0.0), Point(4.0, 0.0), Point(10.0, 0.0), Point(16.0, 0.0)]


def region(points, k):
    return OrderKRegionProcessor(VoRTree(points), k)


class Served:
    """A ``kind="region"`` session on a serving engine over ``points``."""

    def __init__(self, points, k):
        self.engine = MovingKNNServer(points)
        self.k = k
        self.query_id = None

    def initialize(self, position):
        self.query_id = self.engine.register_query(position, self.k, kind="region")
        (self.record,) = self.engine
        return self.record.first_answer

    def update(self, position):
        return self.engine.update_position(self.query_id, position)

    @property
    def safe_region(self):
        return self.record.processor.safe_region


BINDINGS = {"kind": region, "served": Served}


#: One walk step: x (on y = 3), the members nearest first, the MIS, the
#: region event with the departed members, and the cell's vertices.
#: Cells, by hand:
#:   {0}     x <= 5, y <= 5 — the box's lower-left corner block;
#:   {1}     x >= 5, y <= 5, 4x + y <= 82.5: at y = -30, x = 28.125; at
#:           y = 5, x = 19.375;
#:   {4}     4x + y >= 82.5, 4x - y >= 72.5 — they meet at (19.375, 5) and
#:           reach the box at x = 28.125;
#:   {0, 2}  y >= x, x + y <= 10: both lines run into box corners;
#:   {0, 1}  LOWER_WEDGE: x >= y, x + y <= 10, 6x + y <= 92.5 (tighter
#:           than 1|4 for x > 5): x + y = 10 meets 6x + y = 92.5 at
#:           (16.5, -6.5), and 6x + y = 92.5 meets the box at x = 245 / 12;
#:   {1, 3}  KITE: y <= x, x + y >= 10, 4x + y <= 82.5, 4x - y <= 72.5,
#:           through (5, 5), (16.5, -6.5), (19.375, 5), (16.5, 16.5);
#:   strips  {0, 1}: x <= 5 (0|2); {1, 2}: 5 <= x <= 10 (0|2, 1|3);
#:           {2, 3}: x >= 10 (1|3).
LOWER_WEDGE = [(-30, -30), (5, 5), (16.5, -6.5), (245 / 12, -30)]
KITE = [(5, 5), (16.5, -6.5), (16.5, 16.5), (19.375, 5)]

WALKS = {
    "square-k1": (
        SQUARE,
        1,
        [
            (2, (0,), {1, 2}, "enter", (), [(-30, -30), (-30, 5), (5, -30), (5, 5)]),
            (4, (0,), {1, 2}, "stay", (), [(-30, -30), (-30, 5), (5, -30), (5, 5)]),
            (6, (1,), {0, 3, 4}, "enter", (0,), [(5, -30), (5, 5), (19.375, 5), (28.125, -30)]),
            (12, (1,), {0, 3, 4}, "stay", (), [(5, -30), (5, 5), (19.375, 5), (28.125, -30)]),
            (
                20,
                (4,),
                {1, 3},
                "enter",
                (1,),
                [(19.375, 5), (28.125, -30), (28.125, 40), (60, -30), (60, 40)],
            ),
            (
                24,
                (4,),
                {1, 3},
                "stay",
                (),
                [(19.375, 5), (28.125, -30), (28.125, 40), (60, -30), (60, 40)],
            ),
        ],
    ),
    "square-k2": (
        SQUARE,
        2,
        [
            (2, (0, 2), {1, 3}, "enter", (), [(-30, -30), (-30, 40), (5, 5)]),
            (4, (0, 1), {2, 3, 4}, "enter", (2,), LOWER_WEDGE),
            # Object 1 is now nearer than object 0: same set, same region.
            (6, (1, 0), {2, 3, 4}, "stay", (), LOWER_WEDGE),
            (8, (1, 3), {0, 2, 4}, "enter", (0,), KITE),
            (12, (1, 3), {0, 2, 4}, "stay", (), KITE),
        ],
    ),
    "collinear-k2": (
        COLLINEAR,
        2,
        [
            (1, (0, 1), {2}, "enter", (), [(-16, -16), (-16, 16), (5, -16), (5, 16)]),
            (4, (1, 0), {2}, "stay", (), [(-16, -16), (-16, 16), (5, -16), (5, 16)]),
            (6, (1, 2), {0, 3}, "enter", (0,), [(5, -16), (5, 16), (10, -16), (10, 16)]),
            (11, (2, 3), {1}, "enter", (1,), [(10, -16), (10, 16), (32, -16), (32, 16)]),
        ],
    ),
}


def walked(binding, walk):
    """Drive one binding along one walk: ``(step, result, vertices)`` rows."""
    points, k, steps = WALKS[walk]
    processor = BINDINGS[binding](points, k)
    rows = []
    for number, step in enumerate(steps):
        position = Point(float(step[0]), 3.0)
        result = processor.update(position) if number else processor.initialize(position)
        vertices = sorted(
            ((v.x, v.y) for v in processor.safe_region.polygon.vertices),
            key=lambda xy: (round(xy[0], 6), round(xy[1], 6)),
        )
        rows.append((step, result, vertices))
    return rows


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("binding", BINDINGS)
class TestWalks:
    """The table, step by step, through both bindings."""

    def test_members_nearest_first(self, binding, walk):
        for (x, members, *_), result, _ in walked(binding, walk):
            assert result.knn == members, x

    def test_guard_objects_are_the_mis(self, binding, walk):
        for (x, _, mis, *_), result, _ in walked(binding, walk):
            assert result.guard_objects == frozenset(mis), x

    def test_cell_vertices(self, binding, walk):
        for (x, *_, expected), _, vertices in walked(binding, walk):
            assert vertices == [pytest.approx(vertex, abs=1e-9) for vertex in expected], x

    def test_a_stay_is_validated_and_an_entry_recomputed(self, binding, walk):
        for (x, _, _, event, _, _), result, _ in walked(binding, walk)[1:]:
            stayed = event == "stay"
            assert result.was_valid is stayed, x
            assert result.action is (UpdateAction.NONE if stayed else UpdateAction.FULL_RECOMPUTE)


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("binding", BINDINGS)
def test_the_kind_reports_entries_and_departures(binding, walk):
    for (x, _, _, event, departed, _), result, _ in walked(binding, walk):
        assert isinstance(result, RegionResult)
        assert (result.event, result.departed) == (event, departed), x


class TestKnownDistances:
    """A few distances, by hand."""

    def test_square_corner_to_the_first_step(self):
        # From (2, 3): object 0 is sqrt(13) away, object 2 sqrt(53).
        (_, first, _), *_ = walked("served", "square-k2")
        assert first.knn_distances == pytest.approx((13**0.5, 53**0.5))

    def test_collinear_distances_are_exact(self):
        # From (4, 3): object 1 is 3 away, object 0 is 5 — exact floats.
        _, (_, second, _), *_ = walked("kind", "collinear-k2")
        assert second.knn_distances == (3.0, 5.0)


class TestChangedMembers:
    """A changed member forces a recompute iff its position moved."""

    def test_kind_absorbs_a_neighbour_list_change(self):
        # Member 0's cell, x <= 5 and y <= 5, stops at the box's left side
        # x = -30.  A site at (-200, 0) becomes 0's Voronoi neighbour along
        # x = -100, outside the held cell: 0 is in the repair's changed set
        # but has not moved.
        tree = VoRTree(SQUARE)
        processor = OrderKRegionProcessor(tree, 1)
        processor.initialize(Point(2.0, 3.0))
        _, changed = tree.insert(Point(-200.0, 0.0))
        assert 0 in changed
        processor.notify_data_update(changed=changed)
        result = processor.update(Point(2.0, 3.0))
        assert result.knn == (0,)
        assert result.was_valid
        assert processor.stats.absorbed_updates == 1
        assert processor.stats.full_recomputations == 1

    def test_served_absorbs_a_neighbour_list_change(self):
        # The same insert made through the engine: its repair delta names
        # member 0, and the session validates its held cell, not recompute.
        served = Served(SQUARE, 1)
        served.initialize(Point(2.0, 3.0))
        served.engine.insert_object(Point(-200.0, 0.0))
        result = served.update(Point(2.0, 3.0))
        assert result.knn == (0,)
        assert result.was_valid
        assert served.record.processor.stats.absorbed_updates == 1
        assert served.record.processor.stats.full_recomputations == 1

    def test_initialize_never_counts_an_absorption(self):
        processor = region(SQUARE, 1)
        processor.initialize(Point(2.0, 3.0))
        processor.notify_data_update(changed=(4,))
        processor.initialize(Point(12.0, 3.0))
        assert processor.stats.absorbed_updates == 0
        assert processor.stats.full_recomputations == 2


#: Objects 0, 1 and 2 share (1, 1); 3 (5, 1), 4 (1, 6), 5 (9, 9).  The data
#: box [1, 9]² grows by 8 into the clipping box [-7, 17]².  Twins tie
#: everywhere, so the ``(distance, index)`` order ranks them — no bisector:
#: a twin behind a member clips nothing.  The bisectors: (1, 1)|4 is
#: y = 3.5, (1, 1)|3 is x = 3 and (1, 1)|5 is x + y = 10.
STACKED = [Point(1.0, 1.0)] * 3 + [Point(5.0, 1.0), Point(1.0, 6.0), Point(9.0, 9.0)]
#: Any member set of (1, 1) objects alone: x <= 3, y <= 3.5.
STACK_CELL = [(-7, -7), (-7, 3.5), (3, -7), (3, 3.5)]
#: Object 3 plus some of the (1, 1) objects, one left out: x >= 3 (3 beats
#: the one left out), y <= 3.5 and x + y <= 10.  Across x = 3 the left-out
#: object with the lowest index replaces 3, so it is in the MIS; 4 and 5
#: come in across the other two.
STACK_AND_3 = [(3, -7), (3, 3.5), (6.5, 3.5), (17, -7)]
#: Objects 0-3: y <= 3.5, 10y <= 8x + 11 (3|4), x + y <= 10; the first two
#: meet at (3, 3.5), the first and the third at (6.5, 3.5).
ALL_BUT_4_5 = [(-7, -7), (-7, -4.5), (3, 3.5), (6.5, 3.5), (17, -7)]

#: One walk step: the position, the members nearest first, the MIS, the
#: departed members and the cell's vertices.
STACKED_WALKS = {
    1: [
        ((0.5, 0.2), (0,), {3, 4}, (), STACK_CELL),
        ((2.5, 3.0), (0,), {3, 4}, (), STACK_CELL),
    ],
    2: [
        ((0.5, 0.2), (0, 1), {3, 4}, (), STACK_CELL),
        ((2.5, 3.0), (0, 1), {3, 4}, (), STACK_CELL),
        ((4.0, 0.2), (3, 0), {1, 4, 5}, (1,), STACK_AND_3),
    ],
    3: [
        ((0.5, 0.2), (0, 1, 2), {3, 4}, (), STACK_CELL),
        ((2.5, 3.0), (0, 1, 2), {3, 4}, (), STACK_CELL),
        ((4.0, 0.2), (3, 0, 1), {2, 4, 5}, (2,), STACK_AND_3),
    ],
    4: [
        ((0.5, 0.2), (0, 1, 2, 3), {4, 5}, (), ALL_BUT_4_5),
        ((4.0, 0.2), (3, 0, 1, 2), {4, 5}, (), ALL_BUT_4_5),
    ],
}


@pytest.mark.parametrize("k", STACKED_WALKS)
@pytest.mark.parametrize("binding", BINDINGS)
class TestCoincidentObjects:
    """Coincident objects straddling the member set, through both bindings."""

    def walk(self, binding, k):
        processor = BINDINGS[binding](STACKED, k)
        for number, (xy, members, mis, departed, cell) in enumerate(STACKED_WALKS[k]):
            position = Point(*xy)
            result = processor.update(position) if number else processor.initialize(position)
            vertices = sorted((v.x, v.y) for v in processor.safe_region.polygon.vertices)
            yield result, members, mis, departed, cell, vertices

    def test_members_mis_and_cell(self, binding, k):
        for result, members, mis, _, cell, vertices in self.walk(binding, k):
            assert result.knn == members
            assert result.guard_objects == frozenset(mis)
            assert vertices == [pytest.approx(vertex, abs=1e-9) for vertex in cell]

    def test_a_twin_left_behind_departs(self, binding, k):
        for result, _, _, departed, _, _ in list(self.walk(binding, k))[1:]:
            assert result.was_valid is not departed
            assert result.departed == departed

    def test_distances(self, binding, k):
        # From (0.5, 0.2) every (1, 1) object is sqrt(0.89) away and object 3
        # sqrt(20.89); from (4, 0.2) object 3 is sqrt(1.64) and the (1, 1)
        # objects sqrt(9.64).
        first, *_, last = (result for result, *_ in self.walk(binding, k))
        stacked = min(k, 3)
        assert first.knn_distances == pytest.approx(
            (0.89**0.5,) * stacked + (20.89**0.5,) * (k - stacked)
        )
        if k > 1:
            assert last.knn_distances == pytest.approx((1.64**0.5,) + (9.64**0.5,) * (k - 1))
