"""A pending delta settles against R, soundly, on both metrics.

I(R) is the union of R's members' Voronoi neighbour lists, minus R
(Definition 4), so a delta that names no member of R cannot change it: the
INS processor re-derives I(R) only when ``changed`` meets R or ``removed``
meets I(R) and absorbs every other delta.  These churn streams check that
rule where it could go wrong — uniform points, stacked twins and hull
deletes on the plane, moves that keep their ids on a road grid.  After
*every* settle that did not retrieve, refreshed or absorbed, the held I(R)
must equal the live index's INS of the held R, and every answer must equal
a ``(distance, id)`` brute force over the current population.  Several
sessions share each stream; some skip timestamps and every fourth step
commits two epochs, so deltas also settle merged.
"""

import heapq
import random
from math import inf

import pytest

from repro.core.ins import InfluentialSetProcessor
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.geometry.primitives import BoundingBox
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.trajectory.road import network_random_walk
from repro.workloads.datasets import data_space, uniform_points

STEPS = 80
KS = (3, 5, 8, 4)
EXTENT = 10_000.0


@pytest.fixture
def settles(monkeypatch):
    """Check I(R) after every settle that did not retrieve; count the outcomes."""
    counts = {"refreshed": 0, "absorbed": 0}
    consume = InfluentialSetProcessor._consume_data_updates

    def checked(self, position):
        refreshes = self.stats.ins_refreshes
        forced = consume(self, position)
        if forced is None:
            assert self.influential_set == self._index.influential_neighbor_set(
                self.prefetched_set
            )
            counts["refreshed" if self.stats.ins_refreshes > refreshes else "absorbed"] += 1
        return forced

    monkeypatch.setattr(InfluentialSetProcessor, "_consume_data_updates", checked)
    return counts


# ----------------------------------------------------------------------
# Brute force: every active object's distance, ranked by (distance, id)
# ----------------------------------------------------------------------
def plane_distances(engine, position):
    tree = engine.index
    return {i: position.distance_to(tree.point(i)) for i in tree.active_indexes()}


def road_distances(engine, position):
    """One Dijkstra from both ends of the query's edge, written here."""
    network, diagram = engine.network, engine.index
    edge = network.edge(position.edge_id)
    best = {edge.u: position.offset}
    best[edge.v] = min(best.get(edge.v, inf), edge.length - position.offset)
    heap = [(distance, vertex) for vertex, distance in best.items()]
    heapq.heapify(heap)
    settled = {}
    while heap:
        distance, vertex = heapq.heappop(heap)
        if vertex in settled:
            continue
        settled[vertex] = distance
        for other, length, _ in network.neighbors(vertex):
            if other not in settled and distance + length < best.get(other, inf):
                best[other] = distance + length
                heapq.heappush(heap, (distance + length, other))
    vertices = diagram.vertex_assignments
    return {i: settled[vertices[i]] for i in diagram.active_indexes()}


def check_answer(result, distances, k):
    expected = [distance for distance, _ in sorted((d, i) for i, d in distances.items())[:k]]
    assert len(set(result.knn)) == k
    assert sorted(distances[i] for i in result.knn) == pytest.approx(expected, rel=1e-12)
    assert sorted(result.knn_distances) == pytest.approx(expected, rel=1e-12)


def drive(engine, walks, churn, distances, seed):
    """Open one session per walk, then per step commit the step's epochs
    (two on every fourth step) and advance the sessions due: session ``i``
    moves on every ``1 + i % 3``-th step, so it may settle a merged delta."""
    rng = random.Random(seed)
    queries = [engine.register_query(walk[0], k=k) for walk, k in zip(walks, KS)]
    assert all(registered.processor._index is engine.index for registered in engine)
    for step in range(1, STEPS + 1):
        for _ in range(2 if step % 4 == 0 else 1):
            engine.batch_update(**churn(engine, rng))
        for i, (query_id, walk, k) in enumerate(zip(queries, walks, KS)):
            if step % (1 + i % 3) == 0:
                result = engine.update_position(query_id, walk[step])
                check_answer(result, distances(engine, walk[step]), k)


# ----------------------------------------------------------------------
# The plane
# ----------------------------------------------------------------------
def anywhere(rng):
    return Point(rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT))


def uniform_churn(engine, rng):
    victims = rng.sample(engine.index.active_indexes(), 3)
    return {
        "inserts": [anywhere(rng), anywhere(rng)],
        "deletes": victims[:2],
        "moves": [(victims[2], anywhere(rng))],
    }


def twin_churn(engine, rng):
    """Inserts and moves land on live objects' positions; deletes hit
    founders and twins alike."""
    tree = engine.index
    active = tree.active_indexes()
    victims = rng.sample(active, 3)
    return {
        "inserts": [tree.point(rng.choice(active)), anywhere(rng)],
        "deletes": victims[:2],
        "moves": [(victims[2], tree.point(rng.choice(active)))],
    }


def hull_churn(engine, rng):
    """Delete two extreme objects (the left-most always) and insert two on
    the left border, so the hull near the sessions keeps changing."""
    tree = engine.index
    active = tree.active_indexes()
    x, y = (lambda i: tree.point(i).x), (lambda i: tree.point(i).y)
    leftmost = min(active, key=x)
    other = max((i for i in active if i != leftmost), key=rng.choice([x, y, lambda i: -y(i)]))
    border = [Point(rng.uniform(0.0, 200.0), rng.uniform(0.0, EXTENT)) for _ in range(2)]
    return {"inserts": border, "deletes": [leftmost, other]}


def plane_walks(space, seed):
    return [
        random_waypoint_trajectory(space, STEPS, 150.0, seed=seed + i) for i in range(len(KS))
    ]


PLANE = {
    "uniform": (lambda: uniform_points(300, seed=21), uniform_churn, data_space()),
    "uniform-incremental": (lambda: uniform_points(300, seed=22), uniform_churn, data_space()),
    "stacked-twins": (
        lambda: (lambda base: base + base[:50] + base[:20])(uniform_points(120, seed=23)),
        twin_churn,
        data_space(),
    ),
    "hull-deletes": (
        lambda: uniform_points(300, seed=24),
        hull_churn,
        BoundingBox(0.0, 0.0, 1_500.0, EXTENT),
    ),
}


@pytest.mark.parametrize("case", sorted(PLANE))
def test_the_plane_settles_soundly(case, settles):
    objects, churn, space = PLANE[case]
    engine = MovingKNNServer(objects(), allow_incremental=case.endswith("incremental"))
    drive(engine, plane_walks(space, seed=60), churn, plane_distances, seed=61)
    assert settles["refreshed"] > 0 and settles["absorbed"] > 0


# ----------------------------------------------------------------------
# The road
# ----------------------------------------------------------------------
def road_moves(engine, rng):
    """Three moves that keep their ids, nothing else."""
    vertices = engine.network.vertices()
    movers = rng.sample(engine.index.active_indexes(), 3)
    return {"moves": [(mover, rng.choice(vertices)) for mover in movers]}


def road_churn(engine, rng):
    vertices = engine.network.vertices()
    victims = rng.sample(engine.index.active_indexes(), 3)
    return {
        "inserts": [rng.choice(vertices)],
        "deletes": victims[:1],
        "moves": [(mover, rng.choice(vertices)) for mover in victims[1:]],
    }


@pytest.mark.parametrize("churn", [road_moves, road_churn], ids=["moves", "churn"])
def test_the_road_settles_soundly(churn, settles):
    network = grid_network(10, 10, spacing=50.0)
    engine = MovingRoadKNNServer(network, place_objects(network, 50, seed=25))
    walks = [network_random_walk(network, STEPS, 30.0, seed=70 + i) for i in range(len(KS))]
    drive(engine, walks, churn, road_distances, seed=71)
    assert settles["refreshed"] > 0 and settles["absorbed"] > 0
