"""Independent known answers for the road kernel (ROADMAP 4d).

Every other road test compares ``repro`` with ``repro`` (filter vs copy,
incremental vs rebuild, processor vs ``network_knn``).  These distances were
worked out by hand on a network small enough to check on paper, and are
asserted against literals.  All lengths are small integers, so every sum is
exact in floating point.

::

        A ---4--- B ---3--- C ---7--- G
        |       /           |
        2     1             5
        |   /               |
        E --------6-------- D ---2--- F

The query sits on A-B, 1 from A and 3 from B.  By hand:

    A 1 | B 3 | E 3 (via A: 1+2; via B it is 3+1 = 4) | C 6 (B+3)
    D 9 (E+6; via C it is 6+5 = 11) | F 11 (D+2) | G 13 (C+7)

B and E tie at 3.

Objects 0-4 sit on B, E, C, F, G.  Each vertex's nearest object (its owner
in the network Voronoi diagram), by hand: A is 2 from E and 3 from B, D is 2
from F and 5 from C, so

    A 1 | B 0 | C 2 | D 3 | E 1 | F 3 | G 4

A search confined to the cells of some objects (Theorem 2) may use an edge
iff the owner of one of its endpoints is among them.
"""

import math

import pytest
import network_voronoi_reference as nvd

from repro.errors import RoadNetworkError
from repro.geometry.point import Point
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.knn import network_knn, object_distances_from_location
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import (
    SearchStats,
    bounded_dijkstra,
    dijkstra,
    distances_from_location,
    shortest_path_distance,
)

A, B, C, D, E, F, G = range(7)
AB, BC, CD, AE, ED, BE, DF, CG = range(8)

#: Object i sits on OBJECTS[i].
OBJECTS = [B, E, C, F, G]

#: Each vertex's owner, worked out by hand (see above).
OWNERS = {A: 1, B: 0, C: 2, D: 3, E: 1, F: 3, G: 4}


@pytest.fixture(scope="module")
def network():
    net = RoadNetwork()
    for x, y in [(0, 2), (4, 2), (7, 2), (7, 0), (0, 0), (9, 0), (14, 2)]:
        net.add_vertex(Point(x, y))
    for u, v, length in [
        (A, B, 4.0),
        (B, C, 3.0),
        (C, D, 5.0),
        (A, E, 2.0),
        (E, D, 6.0),
        (B, E, 1.0),
        (D, F, 2.0),
        (C, G, 7.0),
    ]:
        net.add_edge(u, v, length)
    return net


QUERY = NetworkLocation(AB, 1.0)


def test_full_network(network):
    assert distances_from_location(network, QUERY) == {
        A: 1.0, B: 3.0, E: 3.0, C: 6.0, D: 9.0, F: 11.0, G: 13.0
    }


def test_radius_stops_at_the_first_vertex_beyond_it(network):
    assert distances_from_location(network, QUERY, radius=6.0) == {
        A: 1.0, B: 3.0, E: 3.0, C: 6.0
    }


def test_the_diagram_owns_the_vertices_as_worked_out(network):
    assert NetworkVoronoiDiagram(network, OBJECTS).vertex_owners() == OWNERS


def test_filtered_to_the_cells_of_held_objects(network):
    # Held {0, 2}: the edges touching B or C, so AB, BC, CD, BE and CG.
    # Without A-E and E-D the short cuts are gone: E is reached through B
    # (3+1), D through C (6+5), and G over C-G; D-F is left out, so F is not.
    held = {0, 2}
    assert distances_from_location(network, QUERY, owners=OWNERS, cells=held) == {
        A: 1.0, B: 3.0, E: 4.0, C: 6.0, D: 11.0, G: 13.0
    }
    assert object_distances_from_location(
        network, OBJECTS, QUERY, range(5), owners=OWNERS, cells=held
    ) == [3.0, 4.0, 6.0, math.inf, 13.0]


def test_unreachable_inside_the_filter(network):
    # Held {0}: only A-B, B-C and B-E.  Nothing past C or E is reachable.
    held = {0}
    assert distances_from_location(network, QUERY, owners=OWNERS, cells=held) == {
        A: 1.0, B: 3.0, E: 4.0, C: 6.0
    }
    assert object_distances_from_location(
        network, OBJECTS, QUERY, [0, 3], owners=OWNERS, cells=held
    ) == [3.0, math.inf]
    with pytest.raises(RoadNetworkError):  # C-D: owners 2 and 3
        distances_from_location(network, NetworkLocation(CD, 1.0), owners=OWNERS, cells=held)


def test_search_stops_after_the_ties_at_the_last_required_object(network):
    # Only object 0 (on B, at 3) is required.  E ties with B at 3 and pops
    # after it (B = 1 before E = 4): the search still settles it, so object 1
    # reads its exact 3 and not inf, then stops at the first pop beyond 3
    # (C at 6).  Settled: A, B, E.
    inf = math.inf
    stats = SearchStats()
    assert object_distances_from_location(
        network, OBJECTS, QUERY, range(5), stats=stats, required=1
    ) == [3.0, 3.0, inf, inf, inf]
    assert stats.settled_vertices == 3
    # Confined to the cells of 0 and 1 (every edge but C-D, D-F and C-G)
    # nothing changes: the region holds every path the search took.
    stats = SearchStats()
    assert object_distances_from_location(
        network, OBJECTS, QUERY, range(5), stats=stats, owners=OWNERS, cells={0, 1}, required=1
    ) == [3.0, 3.0, inf, inf, inf]
    assert stats.settled_vertices == 3
    # All five required: every distance, the hand-computed table.
    assert object_distances_from_location(network, OBJECTS, QUERY, range(5), required=5) == [
        3.0, 3.0, 6.0, 11.0, 13.0
    ]


def test_required_object_unreachable_inside_the_filter(network):
    # Object 3 (on F) is required, but the cell of 0 (A-B, B-C, B-E) does
    # not lead there: looking for it exhausts the region, so every object the
    # region does reach is exact — B 3, C 6, E 4 (through B) — and F is inf.
    stats = SearchStats()
    assert object_distances_from_location(
        network, OBJECTS, QUERY, [3, 0, 2, 1], stats=stats, owners=OWNERS, cells={0}, required=1
    ) == [math.inf, 3.0, 6.0, 4.0]
    assert stats.settled_vertices == 4  # A, B, E, C


def test_query_on_an_objects_vertex(network):
    # The far end of A-B is B itself, where object 0 sits.
    at_b = NetworkLocation(AB, 4.0)
    assert distances_from_location(network, at_b) == {
        B: 0.0, E: 1.0, C: 3.0, A: 3.0, D: 7.0, F: 9.0, G: 10.0
    }
    assert object_distances_from_location(network, OBJECTS, at_b, [0, 1]) == [0.0, 1.0]
    assert network_knn(network, OBJECTS, at_b, 1) == [(0, 0.0)]


def test_three_nearest_with_the_tie(network):
    # Objects 0 (on B) and 1 (on E) tie at 3; object 2 (on C) is third.
    # Equal distances pop in vertex order (B = 1 before E = 4).
    assert network_knn(network, OBJECTS, QUERY, 3) == [(0, 3.0), (1, 3.0), (2, 6.0)]
    assert network_knn(network, OBJECTS, QUERY, 5)[3:] == [(3, 11.0), (4, 13.0)]


def test_vertex_to_vertex_is_symmetric(network):
    # From A: E 2, B 3 (A-E-B beats A-B = 4), C 6, D 8, F 10, G 13.
    assert dijkstra(network, A) == {A: 0.0, E: 2.0, B: 3.0, C: 6.0, D: 8.0, F: 10.0, G: 13.0}
    assert shortest_path_distance(network, A, D) == 8.0
    assert shortest_path_distance(network, D, A) == 8.0
    assert shortest_path_distance(network, G, F) == 14.0  # G-C-D-F: 7+5+2


def _effort(search, *args, **kwargs):
    stats = SearchStats()
    result = search(*args, stats=stats, **kwargs)
    return result, (stats.searches, stats.settled_vertices, stats.relaxed_edges)


def test_search_effort_by_hand(network):
    # Every settled vertex relaxes the edges to its unsettled neighbours, one
    # push each.  From A the order is A, E, B, C, D, F, G: 2 + 2 + 1 + 2 + 1
    # pushes, so a full search relaxes each of the 8 edges exactly once.
    assert _effort(dijkstra, network, A)[1] == (1, 7, 8)
    # Radius 3: A, E, B settle (2 + 2 + 1 pushes); C at 6 is the first pop
    # beyond.
    assert _effort(bounded_dijkstra, network, A, 3.0) == ({A: 0.0, E: 2.0, B: 3.0}, (1, 3, 5))
    # The query's three nearest: A 1 (pushes B 5, E 3), B 3 finds object 0
    # (pushes C 6, E 4), E 3 finds object 1 (pushes D 9), C 6 finds object 2
    # and still relaxes (pushes D 11, G 13); the next pop stops the search.
    assert _effort(network_knn, network, OBJECTS, QUERY, 3) == (
        [(0, 3.0), (1, 3.0), (2, 6.0)], (1, 4, 7)
    )
    # A to D: D settles at 8 after A, E, B, C, its edge to F is relaxed, and
    # F at 10 is the first pop beyond.
    assert _effort(shortest_path_distance, network, A, D) == (8.0, (1, 5, 8))


def test_flood_effort_by_hand(network):
    # The construction seeds B, E, C, F, G at 0 under labels 0-4.  B pushes
    # A 4, C 3, E 1; C pushes D 5, G 7; E pushes A 2, D 6; F pushes D 2; G
    # pushes nothing.  A settles at 2 under 1 and D at 2 under 3, with
    # nothing left to push.
    stats = SearchStats()
    diagram = NetworkVoronoiDiagram(network, OBJECTS, stats)
    assert (stats.searches, stats.settled_vertices, stats.relaxed_edges) == (1, 7, 8)
    # A new object on A wins A (0 < 2), pushes B 4 and E 2, and loses both
    # to their own objects at 0.
    diagram.insert_object(A)
    assert (stats.searches, stats.settled_vertices, stats.relaxed_edges) == (2, 8, 10)
    assert diagram.vertex_owners()[A] == 5
    # Removing object 1 frees E alone.  The rim offers E 1 under 0 (from B),
    # 2 under 5 (from A) and 8 under 3 (from D); E settles at 1 under 0 and
    # pushes nothing, every neighbour being outside the freed cell.
    diagram.remove_object(1)
    assert (stats.searches, stats.settled_vertices, stats.relaxed_edges) == (3, 9, 10)
    assert (nvd.vertex_owner(diagram, E), nvd.vertex_distance(diagram, E)) == (0, 1.0)
