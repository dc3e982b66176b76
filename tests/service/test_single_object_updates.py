"""A single-object update is a batch of one.

``KNNService.insert`` / ``delete`` / ``move`` take the path of a
one-operation :class:`UpdateBatch` through ``apply``, as the engine's
``insert_object`` / ``delete_object`` / ``move_object`` take
``batch_update``'s.  A seeded stream of single updates, sent one way to a service and the other
way to its twin, leaves both in the same state after every step: the
epoch, the delta each epoch pushed to the sessions, the per-session bill,
the answers and the index's edge structure.  Both metrics are driven, and
on the plane the stream stacks objects into twins (one exact position).
``move`` returns the epoch's :class:`BatchUpdateResult` on both metrics,
in process and durably.
"""

import random

import pytest
import network_voronoi_reference as nvd

from repro.core.engine import BatchUpdateResult
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.durability import DurableKNNService
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.service import KNNService, UpdateBatch
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.trajectory.road import network_random_walk
from repro.workloads.datasets import data_space, uniform_points

STEPS = 60
SESSIONS = 3
K = 3
EXTENT = 1_000.0
#: Deletes stop here, so no step can starve a session.
FLOOR = 12


def plane_engine():
    points = uniform_points(30, extent=EXTENT, seed=5)
    # Three stacks of twins from the start.
    return MovingKNNServer(points + [points[0], points[0], points[7], points[11]])


def plane_trajectories():
    return [
        random_waypoint_trajectory(
            data_space(EXTENT), steps=STEPS, step_length=40.0, seed=60 + i
        )
        for i in range(SESSIONS)
    ]


ROAD_NETWORK = grid_network(8, 8, spacing=50.0)


def road_engine():
    return MovingRoadKNNServer(ROAD_NETWORK, place_objects(ROAD_NETWORK, 24, seed=9))


def road_trajectories():
    return [
        network_random_walk(ROAD_NETWORK, steps=STEPS, step_length=60.0, seed=70 + i)
        for i in range(SESSIONS)
    ]


METRICS = {
    "euclidean": (plane_engine, plane_trajectories),
    "road": (road_engine, road_trajectories),
}


def record_epochs(engine):
    """Log what every epoch of ``engine`` pushes to its sessions."""
    log = []
    commit = engine._commit_epoch

    def spy(changed, removed=(), payload=1):
        log.append((frozenset(changed), frozenset(removed), payload))
        commit(changed, removed, payload)

    engine._commit_epoch = spy
    return log


def draw_target(rng, metric, engine):
    """``(destination, stacked)``: a fresh destination, or (p = 0.3) a live
    object's own, which on the plane makes the two twins."""
    stacked = rng.random() < 0.3
    if stacked:
        live = rng.choice(engine.index.active_indexes())
        if metric == "euclidean":
            return engine.index.point(live), True
        return engine.object_vertex(live), True
    if metric == "euclidean":
        return Point(rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT)), False
    return rng.choice(ROAD_NETWORK.vertices()), False


def has_twin(metric, engine, index):
    """True when another live object shares object ``index``'s position."""
    where = engine.index.point if metric == "euclidean" else engine.object_vertex
    return any(
        other != index and where(other) == where(index)
        for other in engine.index.active_indexes()
    )


def edge_structure(metric, engine):
    """The index's edges: the plane's Delaunay edge map and neighbour
    lists, the road diagram's edge ownerships and neighbour sets."""
    index = engine.index
    if metric == "euclidean":
        dual = index.voronoi
        return (
            None if dual is None else dual.edge_map(),
            {i: set(index.voronoi_neighbors(i)) for i in index.active_indexes()},
        )
    return (
        {edge.edge_id: nvd.edge_ownership(index, edge.edge_id) for edge in ROAD_NETWORK.edges()},
        nvd.neighbor_map(index),
    )


def bills(service):
    return {
        query_id: stats.as_dict()
        for query_id, stats in service.per_session_communication().items()
    }


class TestSingleUpdatesAreBatchesOfOne:
    @pytest.mark.parametrize("metric", list(METRICS))
    def test_single_updates_match_one_operation_batches(self, metric):
        make_engine, make_trajectories = METRICS[metric]
        single, batched = KNNService(make_engine()), KNNService(make_engine())
        logs = [record_epochs(single.engine), record_epochs(batched.engine)]
        trajectories = make_trajectories()
        sessions = [
            [service.open_session(trajectory[0], k=K) for trajectory in trajectories]
            for service in (single, batched)
        ]
        rng = random.Random(17)
        gone = []
        counts = {"insert": 0, "delete": 0, "move": 0, "stacked": 0, "twin delete": 0}
        for step in range(1, STEPS):
            engine = single.engine
            roll = rng.random()
            if roll < 0.35:
                target, stacked = draw_target(rng, metric, engine)
                counts["insert"] += 1
                counts["stacked"] += stacked
                assert (
                    single.insert(target)
                    == batched.apply(UpdateBatch(inserts=(target,))).new_indexes[0]
                )
            elif roll < 0.65 and engine.object_count > FLOOR:
                # Now and then a victim that is already gone: no epoch.
                if gone and rng.random() < 0.15:
                    victim = rng.choice(gone)
                else:
                    victim = rng.choice(engine.index.active_indexes())
                    counts["twin delete"] += has_twin(metric, engine, victim)
                    gone.append(victim)
                counts["delete"] += 1
                assert single.delete(victim) == bool(
                    batched.apply(UpdateBatch(deletes=(victim,))).deleted_indexes
                )
            else:
                mover = rng.choice(engine.index.active_indexes())
                target, stacked = draw_target(rng, metric, engine)
                counts["move"] += 1
                counts["stacked"] += stacked
                assert single.move(mover, target) == batched.apply(
                    UpdateBatch(moves=((mover, target),))
                )
            assert single.epoch == batched.epoch, step
            assert logs[0] == logs[1], step
            answers = [
                [
                    (response.knn, response.knn_distances, response.epoch)
                    for response in (
                        session.update(trajectory[step])
                        for session, trajectory in zip(handles, trajectories)
                    )
                ]
                for handles in sessions
            ]
            assert answers[0] == answers[1], step
            assert bills(single) == bills(batched), step
            assert edge_structure(metric, single.engine) == edge_structure(
                metric, batched.engine
            ), step
        # The stream exercised every operation, stacking and twin deletes.
        assert min(counts.values()) > 0, counts
        assert single.epoch > STEPS // 2


class TestMoveReturnsTheEpoch:
    @pytest.mark.parametrize("durable", [False, True], ids=["in-process", "durable"])
    @pytest.mark.parametrize("metric", list(METRICS))
    def test_move_returns_a_batch_update_result(self, metric, durable, tmp_path):
        engine = METRICS[metric][0]()
        if durable:
            service = DurableKNNService(engine, str(tmp_path / "state"))
        else:
            service = KNNService(engine)
        target = Point(1.0, 2.0) if metric == "euclidean" else ROAD_NETWORK.vertices()[-1]
        result = service.move(1, target)
        assert isinstance(result, BatchUpdateResult)
        assert result.epoch == service.epoch == 1
        if metric == "euclidean":
            # Delete + reinsert: two records, and the object's index changes.
            assert result.deleted_indexes == (1,) and len(result.new_indexes) == 1
            assert service.engine.index.point(result.new_indexes[0]) == target
            assert result.payload == 2
        else:
            # A native relocation: one record, and the index stays.
            assert result.deleted_indexes == result.new_indexes == ()
            assert service.engine.object_vertex(1) == target
            assert 1 in result.changed_objects and result.payload == 1
        if durable:
            service.close_wal()
