"""Every epoch's delta names each survivor whose neighbour list it changed.

An INS session settles a pushed delta ``(changed, removed)`` by asking
whether it reaches its prefetched set R.  That is enough only because both
indexes keep one contract, pinned here on every mutation path: a surviving
object whose Voronoi neighbour list held a removed object is in ``changed``
(and, more generally, so is every survivor whose list changed at all).  A
removed object of I(R) neighbours some member r of R, so its removal puts r
in ``changed``; a removal alone never has to be tested against I(R).

The paths: single inserts, deletes and moves (on the plane a move is a
delete plus an insert under a new id; on a road network it keeps its id),
mixed bursts under the bulk threshold, bursts over it (one rebuild, every
object changed), and on the plane a batch refused on degenerate input, whose
delta the engine pushes to every session before re-raising.
"""

import random

import pytest
from test_vortree_incremental import near_stacks, refused_step

from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.workloads.datasets import uniform_points


def neighbour_lists(index):
    """Every active object's neighbour list, on either index."""
    read = index.voronoi_neighbors if isinstance(index, VoRTree) else index.neighbors_of
    return {obj: frozenset(read(obj)) for obj in index.active_indexes()}


def assert_the_delta_names_every_touched_list(before, index, removed, changed):
    """The contract, for one delta: ``removed`` left, every list is over
    active objects, and a survivor whose list held a removed object, or
    changed at all, is in ``changed``."""
    after = neighbour_lists(index)
    removed, changed = set(removed), set(changed)
    assert removed.isdisjoint(after)
    for obj, neighbours in after.items():
        assert neighbours <= after.keys(), obj
        if obj not in before:
            continue  # inserted by this delta
        held = before[obj] & removed
        assert not held or obj in changed, (obj, sorted(held))
        assert before[obj] == neighbours or obj in changed, obj


class Metric:
    """An engine on one metric, and seeded draws of its operations' targets."""

    def victim(self):
        return self.rng.choice(list(self.engine.index.active_indexes()))

    def bulk_threshold(self):
        """The smallest burst the index answers with one rebuild."""
        population = len(self.engine.index.active_indexes())
        return max(self.BULK_FLOOR, int(population * self.BULK_FRACTION))


class Plane(Metric):
    BULK_FRACTION = VoRTree.BULK_REBUILD_FRACTION
    BULK_FLOOR = 8

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.engine = MovingKNNServer(uniform_points(120, extent=1_000.0, seed=seed))

    def target(self):
        return Point(self.rng.uniform(0.0, 1_000.0), self.rng.uniform(0.0, 1_000.0))


class Road(Metric):
    BULK_FRACTION = NetworkVoronoiDiagram.BULK_REBUILD_FRACTION
    BULK_FLOOR = 16

    def __init__(self, seed):
        self.rng = random.Random(seed)
        network = grid_network(12, 12, spacing=10.0)
        self.engine = MovingRoadKNNServer(network, place_objects(network, 40, seed=seed))
        self.vertices = sorted(network.vertices())

    def target(self):
        # One target in three is a vertex that already holds an object, so
        # co-located groups form and lose their representatives too.
        if self.rng.random() < 0.34:
            return self.engine.index.object_vertex(self.victim())
        return self.rng.choice(self.vertices)


def single(kind):
    def batch(metric):
        if kind == "insert":
            return {"inserts": [metric.target()]}
        if kind == "delete":
            return {"deletes": [metric.victim()]}
        return {"moves": [(metric.victim(), metric.target())]}

    return batch


def burst(metric):
    """Three inserts, three deletes and two moves: under the bulk threshold."""
    movers = metric.rng.sample(list(metric.engine.index.active_indexes()), 5)
    return {
        "inserts": [metric.target() for _ in range(3)],
        "deletes": movers[:3],
        "moves": [(obj, metric.target()) for obj in movers[3:]],
    }


def bulk(metric):
    """Half inserts, half deletes, over the bulk threshold."""
    size = metric.bulk_threshold() + 4
    return {
        "inserts": [metric.target() for _ in range(size // 2)],
        "deletes": metric.rng.sample(list(metric.engine.index.active_indexes()), size - size // 2),
    }


SHAPES = {
    "insert": single("insert"),
    "delete": single("delete"),
    "move": single("move"),
    "burst": burst,
    "bulk": bulk,
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("metric", [Plane, Road], ids=["plane", "road"])
def test_every_epoch_names_the_lists_it_touched(metric, shape, seed):
    metric = metric(seed)
    engine = metric.engine
    steps = 2 if shape == "bulk" else 12
    for _ in range(steps):
        before = neighbour_lists(engine.index)
        batch = SHAPES[shape](metric)
        result = engine.batch_update(**batch)
        assert_the_delta_names_every_touched_list(
            before, engine.index, result.deleted_indexes, result.changed_objects
        )
        if shape == "bulk":  # the one-rebuild path: every survivor is named
            assert result.changed_objects == set(engine.index.active_indexes())
        if "deletes" in batch:
            assert set(result.deleted_indexes) >= set(batch["deletes"])


@pytest.mark.parametrize("rollback", ["taken-back", "refused-too"])
def test_a_refused_batch_names_the_lists_it_leaves_changed(rollback, monkeypatch):
    """The delta a refused batch carries (the one the engine pushes to every
    session) keeps the contract: after a rollback, against the lists before
    the batch; when the rollback is refused too, with a delete standing."""
    tree, victim, _ = refused_step(18)
    at = tree.point(victim)
    far = max(tree.active_indexes(), key=lambda i: tree.point(i).distance_to(at))
    before = neighbour_lists(tree)
    if rollback == "refused-too":

        def refuse(reason=None):
            raise GeometryError("refused")

        monkeypatch.setattr(tree, "_rebuild_neighbor_map", refuse)
    with pytest.raises(GeometryError) as refused:
        tree.batch_update(deletes=[far, victim])
    new_indexes, deleted, changed = refused.value.delta
    assert new_indexes == []
    assert deleted == ([far] if rollback == "refused-too" else [])
    assert_the_delta_names_every_touched_list(before, tree, deleted, changed)


def test_the_near_stacks_keep_the_contract_step_by_step():
    """Degenerate input (sites stacked and 1e-6 apart) on the per-object
    path: each accepted step's delta names every list it touched."""
    for tree, _, operation, argument in near_stacks(20):
        before = neighbour_lists(tree)
        try:
            outcome = operation(argument)
        except GeometryError:
            continue
        if operation.__name__ == "insert":
            removed, changed = (), outcome[1]
        else:
            removed, changed = (argument,), outcome[1]
        assert_the_delta_names_every_touched_list(before, tree, removed, changed)
