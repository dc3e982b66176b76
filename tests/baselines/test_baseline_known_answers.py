"""Known-answer tests for the V* and naive baselines.

Tiny inputs whose answers are worked out by hand below, so the policies
are checked against independent values, not only against their own past
output.  Most inputs are chosen so every distance is an exact float and
the assertions can be ``==``.
"""

import math

import pytest

from repro.baselines import (
    NaiveProcessor,
    NaiveRoadProcessor,
    VStarProcessor,
    VStarRoadProcessor,
)
from repro.core.objects import UpdateAction
from repro.geometry.point import Point
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.index.vortree import VoRTree
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram

#: Six points on the x-axis (objects 0-5 at x = 0..5) and one above it
#: (object 6 at (2, 4)).
POINTS = [Point(float(x), 0.0) for x in range(6)] + [Point(2.0, 4.0)]


class TestVStarOnThePlane:
    """k = 2, x = 1, retrieved first at the origin: the candidates are objects
    0, 1, 2 and the known radius is d((0, 0), object 2) = 2."""

    def started(self):
        processor = VStarProcessor(VoRTree(POINTS), k=2, auxiliary=1)
        first = processor.initialize(Point(0.0, 0.0))
        return processor, first

    def test_first_retrieval(self):
        processor, first = self.started()
        assert processor.candidates == [0, 1, 2]
        assert processor.known_region_radius == 2.0
        assert first.knn == (0, 1)
        assert first.knn_distances == (0.0, 1.0)
        assert first.guard_objects == frozenset({2})
        assert first.action is UpdateAction.FULL_RECOMPUTE

    def test_a_tie_is_ranked_by_index(self):
        # At (0.5, 0): objects 0 and 1 are both 0.5 away; 0.5 <= 2 - 0.5.
        processor, _ = self.started()
        result = processor.update(Point(0.5, 0.0))
        assert result.was_valid
        assert result.knn == (0, 1)
        assert result.knn_distances == (0.5, 0.5)

    def test_safe_exactly_at_the_boundary(self):
        # At (0, 0.75): object 1 is hypot(1, 0.75) = 1.25 away and the drift
        # is 0.75, so the condition reads 1.25 <= 2 - 0.75 — equality holds.
        processor, _ = self.started()
        result = processor.update(Point(0.0, 0.75))
        assert result.was_valid
        assert result.action is UpdateAction.NONE
        assert result.knn == (0, 1)
        assert result.knn_distances == (0.75, 1.25)
        assert processor.stats.full_recomputations == 1

    def test_unsafe_retrieves_again_from_the_new_position(self):
        # At (0, -1.5): object 1 is about 1.80 away, but only 2 - 1.5 = 0.5
        # is known.  The new known radius is hypot(2, 1.5) = 2.5 (object 2).
        processor, _ = self.started()
        result = processor.update(Point(0.0, -1.5))
        assert not result.was_valid
        assert result.action is UpdateAction.FULL_RECOMPUTE
        assert processor.candidates == [0, 1, 2]
        assert processor.known_region_radius == 2.5
        assert result.knn == (0, 1)
        assert result.knn_distances == (1.5, math.hypot(1.0, 1.5))
        assert processor.stats.full_recomputations == 2

    def test_the_off_line_point_is_retrieved_when_it_is_nearest(self):
        # At (5, 4): object 6 is 3 away, object 5 is 4, object 4 is sqrt(17).
        processor, _ = self.started()
        result = processor.update(Point(5.0, 4.0))
        assert processor.candidates == [6, 5, 4]
        assert processor.known_region_radius == pytest.approx(math.sqrt(17.0))
        assert result.knn == (6, 5)
        assert result.knn_distances == (3.0, 4.0)


class TestNaiveOnThePlane:
    def test_answers_and_distances(self):
        processor = NaiveProcessor(VoRTree(POINTS), k=3)
        first = processor.initialize(Point(0.0, 0.0))
        assert first.knn == (0, 1, 2)
        assert first.knn_distances == (0.0, 1.0, 2.0)
        assert first.guard_objects == frozenset()
        later = processor.update(Point(5.0, 4.0))
        assert later.knn == (6, 5, 4)
        assert later.knn_distances == (3.0, 4.0, pytest.approx(math.sqrt(17.0)))
        assert later.action is UpdateAction.FULL_RECOMPUTE
        assert processor.stats.full_recomputations == 2
        assert processor.stats.transmitted_objects == 6


def path_network():
    """Vertices 0-6 on a line, 10 apart; edge ``i`` joins vertices i and i+1,
    so the location at distance ``x`` from vertex 0 is edge ``x // 10``."""
    network = RoadNetwork()
    for x in range(7):
        network.add_vertex(Point(10.0 * x, 0.0))
    for vertex in range(6):
        network.add_edge(vertex, vertex + 1, 10.0)
    return network


def at(x):
    return NetworkLocation(int(x // 10), x % 10)


#: Objects 0-3 sit on vertices 0, 2, 3 and 6 (at x = 0, 20, 30, 60).
ROAD_OBJECTS = [0, 2, 3, 6]


class TestVStarOnARoad:
    """k = 2, x = 1, a declared step of 5 per timestamp, retrieved first at
    x = 12: objects 1, 0, 2 are 8, 12, 18 away, so the radius is 18."""

    def test_a_walk_through_both_verdicts(self):
        processor = VStarRoadProcessor(
            NetworkVoronoiDiagram(path_network(), ROAD_OBJECTS),
            k=2,
            auxiliary=1,
            step_length=5.0,
        )
        first = processor.initialize(at(12.0))
        assert processor.candidates == [1, 0, 2]
        assert processor.known_region_radius == 18.0
        assert first.knn == (1, 0)
        assert first.knn_distances == (8.0, 12.0)

        # x = 17, drift 5: object 2 is now second, at 13 <= 18 - 5 (equal).
        result = processor.update(at(17.0))
        assert result.was_valid
        assert result.knn == (1, 2)
        assert result.knn_distances == (3.0, 13.0)

        # x = 22, drift 10: 8 <= 18 - 10, equality again.
        result = processor.update(at(22.0))
        assert result.was_valid
        assert result.knn_distances == (2.0, 8.0)

        # x = 27, drift 15: 7 > 18 - 15.  Retrieved again from x = 27:
        # objects 2, 1, 0 at 3, 7, 27.
        result = processor.update(at(27.0))
        assert not result.was_valid
        assert processor.candidates == [2, 1, 0]
        assert processor.known_region_radius == 27.0
        assert result.knn == (2, 1)
        assert result.knn_distances == (3.0, 7.0)
        assert processor.stats.full_recomputations == 2


class TestNaiveOnARoad:
    def test_answers_and_distances(self):
        processor = NaiveRoadProcessor(NetworkVoronoiDiagram(path_network(), ROAD_OBJECTS), k=3)
        first = processor.initialize(at(12.0))
        assert first.knn == (1, 0, 2)
        assert first.knn_distances == (8.0, 12.0, 18.0)
        # x = 45: objects 2 (vertex 3) and 3 (vertex 6) are both 15 away; the
        # search settles the lower vertex id first.
        later = processor.update(at(45.0))
        assert later.knn == (2, 3, 1)
        assert later.knn_distances == (15.0, 15.0, 25.0)
        assert processor.stats.transmitted_objects == 6
