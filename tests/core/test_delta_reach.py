"""A delta that misses R and I(R) is settled when it arrives, on both metrics.

The INS processor tests every pushed delta against what it holds: with
nothing queued, a delta whose ``removed`` and ``changed`` both miss R is one
its next settle would absorb (a removed object of I(R) neighboured a member,
so the index names that member as changed), so it keeps no pair, only the
stale mark.  That settle then counts the absorb and returns.  Any other
delta is queued exactly as the mailbox queues it, so a missed epoch followed
by a reaching one settles as the reaching one alone.
"""

import random

import pytest

from repro.core.ins import InfluentialSetProcessor
from repro.core.ins_euclidean import INSProcessor
from repro.core.ins_road import INSRoadProcessor
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.location import NetworkLocation
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.workloads.datasets import data_space, uniform_points

#: The three ways a settle ends, in the order the tests count them.
OUTCOMES = ("full_recomputations", "ins_refreshes", "absorbed_updates")


def plane_engine():
    return MovingKNNServer(uniform_points(300, seed=5))


def road_engine():
    network = grid_network(20, 20, spacing=10.0)
    return MovingRoadKNNServer(network, place_objects(network, 60, seed=8))


#: metric -> (engine builder, query position, an insert target far from it).
METRICS = {
    "plane": (plane_engine, Point(2_500.0, 2_600.0), Point(7_600.0, 7_400.0)),
    "road": (road_engine, NetworkLocation(0, 1.0), 399),
}


@pytest.fixture(params=sorted(METRICS))
def served(request):
    """A served session on one metric: ``(engine, query_id, processor, far)``."""
    build, start, far = METRICS[request.param]
    engine = build()
    query_id = engine.register_query(start, k=3)
    return engine, query_id, next(iter(engine)).processor, far


def settle(engine, query_id):
    """Re-answer in place; returns the result and how far each outcome counter moved."""
    stats = engine.stats_for(query_id)
    before = [getattr(stats, name) for name in OUTCOMES]
    result = engine.answer(query_id)
    return result, tuple(getattr(stats, name) - was for name, was in zip(OUTCOMES, before))


def misses(processor, delta):
    """Whether an epoch's delta misses the session's R, and its I(R) by a removal."""
    held = set(processor.prefetched_set)
    return delta.changed_objects.isdisjoint(held) and held.union(
        processor.influential_set
    ).isdisjoint(delta.deleted_indexes)


class TestAMissIsSettledOnArrival:
    def test_a_missing_delta_keeps_no_pair_and_settles_as_an_absorb(self, served):
        engine, query_id, processor, far = served
        delta = engine.batch_update(inserts=[far])
        assert misses(processor, delta)  # the precondition
        assert processor._pending is None and processor.state_stale
        transmitted = processor.stats.transmitted_objects
        result, moved = settle(engine, query_id)
        assert moved == (0, 0, 1)
        assert result.was_valid and not processor.state_stale
        assert processor.stats.transmitted_objects == transmitted

    def test_a_removal_that_misses_is_settled_on_arrival_too(self, served):
        engine, query_id, processor, far = served
        pool = set(processor.prefetched_set) | processor.influential_set
        victim = max(set(engine.index.active_indexes()) - pool)
        delta = engine.batch_update(deletes=[victim])
        assert misses(processor, delta)
        assert processor._pending is None and processor.state_stale
        assert settle(engine, query_id)[1] == (0, 0, 1)

    @pytest.mark.parametrize("where, expected", [("R", (1, 0, 0)), ("guards", (0, 1, 0))])
    def test_a_missed_epoch_then_a_reaching_one_settles_as_the_reaching_one(
        self, served, where, expected
    ):
        engine, query_id, processor, far = served
        engine.batch_update(inserts=[far])
        assert processor._pending is None
        victim = processor.prefetched_set[0] if where == "R" else min(processor.influential_set)
        reaching = engine.batch_update(deletes=[victim])
        # The reaching epoch's frozen pair is held by reference, nothing merged.
        assert processor._pending[0] is reaching.changed_objects
        assert processor._pending[1] == {victim}
        result, moved = settle(engine, query_id)
        assert moved == expected
        assert victim not in result.knn

    def test_a_missing_epoch_after_a_reaching_one_is_queued_with_it(self, served):
        engine, query_id, processor, far = served
        reaching = engine.batch_update(deletes=[min(processor.influential_set)])
        missing = engine.batch_update(inserts=[far])
        assert misses(processor, missing)
        changed, removed = processor._pending
        assert changed == reaching.changed_objects | missing.changed_objects
        assert removed == set(reaching.deleted_indexes)
        assert settle(engine, query_id)[1] == (0, 1, 0)


# ----------------------------------------------------------------------
# The two clauses, one bare delta each, on a processor of its own
# ----------------------------------------------------------------------
def plane_processor():
    processor = INSProcessor(VoRTree(uniform_points(300, seed=5)), k=3)
    processor.initialize(METRICS["plane"][1])
    return processor


def road_processor():
    processor = INSRoadProcessor(road_engine().index, k=3)
    processor.initialize(METRICS["road"][1])
    return processor


@pytest.mark.parametrize("build", [plane_processor, road_processor], ids=["plane", "road"])
@pytest.mark.parametrize(
    "clause, expected", [("removed-in-R", (1, 0, 0)), ("changed-in-R", (0, 1, 0))]
)
def test_each_clause_alone_queues_the_delta(build, clause, expected):
    processor = build()
    member = processor.prefetched_set[-1]
    delta = {"removed-in-R": {"removed": (member,)}, "changed-in-R": {"changed": (member,)}}[clause]
    processor.notify_data_update(**delta)
    assert processor._pending is not None and processor.state_stale
    stats = processor.stats
    before = [getattr(stats, name) for name in OUTCOMES]
    processor.update(processor.last_position)
    assert tuple(getattr(stats, name) - was for name, was in zip(OUTCOMES, before)) == expected


@pytest.mark.parametrize("build", [plane_processor, road_processor], ids=["plane", "road"])
@pytest.mark.parametrize("field", ["changed", "removed"])
def test_a_delta_naming_only_a_guard_is_settled_on_arrival(build, field):
    # A delta is tested against R only.  A guard whose list changed leaves
    # I(R) as it was (adjacency is symmetric); a removed guard neighboured a
    # member, so the index's delta names that member too (pinned in
    # tests/index/test_removal_delta_contract.py), and a bare one misses.
    processor = build()
    processor.notify_data_update(**{field: (min(processor.influential_set),)})
    assert processor._pending is None and processor.state_stale


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_every_queued_pair_reaches_r_when_it_settles(metric, monkeypatch):
    # Only a reaching delta starts a pair, and merging only grows it, so a
    # settle never finds a queued pair that misses R: its absorb branch
    # needs to test for no pair at all.
    queued = []
    consume = InfluentialSetProcessor._consume_data_updates

    def checked(self, position):
        if self._pending is not None:
            assert self._reaches(*self._pending)
            queued.append(self._pending)
        return consume(self, position)

    monkeypatch.setattr(InfluentialSetProcessor, "_consume_data_updates", checked)
    build, _, _ = METRICS[metric]
    engine = build()
    rng = random.Random(9)
    if metric == "plane":
        anywhere = target = lambda: Point(rng.uniform(0.0, 10_000.0), rng.uniform(0.0, 10_000.0))
    else:
        edges = engine.network.edges()
        anywhere = lambda: NetworkLocation(rng.choice(edges).edge_id, 0.0)
        target = lambda: rng.randrange(engine.network.vertex_count)
    queries = [engine.register_query(anywhere(), k=rng.choice((2, 3, 5))) for _ in range(8)]
    for epoch in range(60):
        deleted, moved = rng.sample(engine.index.active_indexes(), 2)
        engine.batch_update(inserts=[target()], deletes=[deleted], moves=[(moved, target())])
        # Half the sessions skip an epoch, so their pairs merge before a settle.
        for query_id in queries[epoch % 2 :: 2]:
            engine.update_position(query_id, anywhere())
    assert len(queued) > 50


# ----------------------------------------------------------------------
# The influential kind rides on the same processor
# ----------------------------------------------------------------------
class TestInfluentialSessions:
    def test_a_miss_is_settled_on_arrival_and_the_sites_stay_live(self):
        engine = plane_engine()
        query_id = engine.register_query(METRICS["plane"][1], k=3, kind="influential")
        processor = next(iter(engine)).processor
        engine.batch_update(inserts=[METRICS["plane"][2]])
        assert processor._pending is None and processor.state_stale
        result, moved = settle(engine, query_id)
        assert moved == (0, 0, 1)
        assert result.sites == live_sites(engine, result.knn)

    def test_under_churn_every_answer_matches_the_live_tree(self):
        engine = MovingKNNServer(uniform_points(200, seed=41))
        walks = [random_waypoint_trajectory(data_space(), 60, 150.0, seed=90 + i) for i in range(4)]
        queries = [
            engine.register_query(walk[0], k=3 + i, kind="influential")
            for i, walk in enumerate(walks)
        ]
        rng = random.Random(5)
        missed = reached = 0
        for step in range(1, 60):
            victims = rng.sample(engine.index.active_indexes(), 2)
            delta = engine.batch_update(
                inserts=[Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))],
                deletes=victims[:1],
                moves=[(victims[1], Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)))],
            )
            for registered in engine:
                if registered.processor._pending is None:
                    assert misses(registered.processor, delta)
                    missed += 1
                else:
                    reached += 1
            for query_id, walk in zip(queries, walks):
                if (query_id + step) % 3:  # some sessions skip a timestamp
                    continue
                result = engine.update_position(query_id, walk[step])
                assert result.sites == live_sites(engine, result.knn)
                tree = engine.index
                position = walk[step]
                expected = sorted(position.distance_to(tree.point(i)) for i in tree.active_indexes())
                assert sorted(result.knn_distances) == expected[: len(result.knn)]
        assert missed > 0 and reached > 0


def live_sites(engine, knn):
    """The influential sites of ``knn`` read off the live tree: ∪ N(m) \\ knn."""
    return tuple(sorted(engine.index.influential_neighbor_set(knn)))
