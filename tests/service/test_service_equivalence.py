"""Service-vs-direct-server equivalence.

The service layer is a pure facade: driving the same scenario through
:class:`~repro.service.session.Session` handles and through raw
:class:`~repro.core.server.MovingKNNServer` /
:class:`~repro.core.road_server.MovingRoadKNNServer` calls must yield
*identical* answers and *identical*
:class:`~repro.core.stats.CommunicationStats` — on both metrics.  The
accounting lives in the engine, so any drift between the two surfaces
(an extra exchange, a missed payload) fails here.
"""

import random

import pytest

from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.service import KNNService, UpdateBatch
from repro.trajectory.road import network_random_walk
from repro.workloads.datasets import data_space, uniform_points
from repro.trajectory.euclidean import random_waypoint_trajectory

STEPS = 10
QUERIES = 3
K = 3
RHO = 1.6


def euclidean_workload(seed=21):
    """(initial points, per-query trajectories, scripted update batches)."""
    rng = random.Random(seed)
    points = uniform_points(120, seed=seed)
    trajectories = [
        random_waypoint_trajectory(
            data_space(), steps=STEPS, step_length=400.0, seed=seed + i
        )
        for i in range(QUERIES)
    ]
    batches = {
        step: UpdateBatch(
            inserts=tuple(
                Point(rng.uniform(0.0, 10_000.0), rng.uniform(0.0, 10_000.0))
                for _ in range(2)
            ),
            deletes=(step,),
            moves=((step + 20, Point(rng.uniform(0.0, 10_000.0), rng.uniform(0.0, 10_000.0))),),
        )
        for step in range(2, STEPS, 3)
    }
    return points, trajectories, batches


def road_workload(seed=22):
    rng = random.Random(seed)
    network = grid_network(8, 8, spacing=50.0)
    objects = place_objects(network, 24, seed=seed)
    trajectories = [
        network_random_walk(network, steps=STEPS, step_length=60.0, seed=seed + i)
        for i in range(QUERIES)
    ]
    vertices = network.vertices()
    batches = {
        step: UpdateBatch(
            inserts=(rng.choice(vertices),),
            deletes=(step,),
            moves=((step + 10, rng.choice(vertices)),),
        )
        for step in range(2, STEPS, 3)
    }
    return network, objects, trajectories, batches


def drive_sessions(service, trajectories, batches):
    """The new surface: session handles + typed messages, closed at the end."""
    answers = []
    sessions = [
        service.open_session(trajectory[0], k=K, rho=RHO)
        for trajectory in trajectories
    ]
    for step in range(1, STEPS):
        if step in batches:
            service.apply(batches[step])
        for session, trajectory in zip(sessions, trajectories):
            response = session.update(trajectory[step])
            answers.append((response.knn, response.knn_distances))
    for session in sessions:
        session.close()
    return answers


def drive_raw_euclidean(server, trajectories, batches):
    """The old surface: raw query ids against the server, by hand."""
    answers = []
    query_ids = [
        server.register_query(trajectory[0], k=K, rho=RHO)
        for trajectory in trajectories
    ]
    for step in range(1, STEPS):
        if step in batches:
            batch = batches[step]
            # The documented Euclidean decomposition of a move.
            server.batch_update(
                inserts=tuple(batch.inserts)
                + tuple(position for _, position in batch.moves),
                deletes=tuple(batch.deletes) + tuple(index for index, _ in batch.moves),
            )
        for query_id, trajectory in zip(query_ids, trajectories):
            result = server.update_position(query_id, trajectory[step])
            answers.append((result.knn, result.knn_distances))
    for query_id in query_ids:
        server.unregister_query(query_id)
    return answers


def drive_raw_road(server, trajectories, batches):
    answers = []
    query_ids = [
        server.register_query(trajectory[0], k=K, rho=RHO)
        for trajectory in trajectories
    ]
    for step in range(1, STEPS):
        if step in batches:
            batch = batches[step]
            server.batch_update(
                inserts=batch.inserts, deletes=batch.deletes, moves=batch.moves
            )
        for query_id, trajectory in zip(query_ids, trajectories):
            result = server.update_position(query_id, trajectory[step])
            answers.append((result.knn, result.knn_distances))
    for query_id in query_ids:
        server.unregister_query(query_id)
    return answers


class TestServiceVsDirectServer:
    def test_euclidean_answers_and_communication_identical(self):
        points, trajectories, batches = euclidean_workload()
        service = KNNService(MovingKNNServer(points))
        session_answers = drive_sessions(service, trajectories, batches)

        raw_server = MovingKNNServer(points)
        raw_answers = drive_raw_euclidean(raw_server, trajectories, batches)

        assert session_answers == raw_answers
        assert (
            service.communication.as_dict() == raw_server.communication.as_dict()
        )
        assert service.communication.messages > 0
        assert service.communication.objects_transmitted > 0

    def test_road_answers_and_communication_identical(self):
        network, objects, trajectories, batches = road_workload()
        service = KNNService(MovingRoadKNNServer(network, objects))
        session_answers = drive_sessions(service, trajectories, batches)

        raw_server = MovingRoadKNNServer(network, objects)
        raw_answers = drive_raw_road(raw_server, trajectories, batches)

        assert session_answers == raw_answers
        assert (
            service.communication.as_dict() == raw_server.communication.as_dict()
        )
        assert service.communication.messages > 0

    def test_per_session_counters_sum_into_the_run_total(self):
        points, trajectories, batches = euclidean_workload()
        service = KNNService(MovingKNNServer(points))
        sessions = [
            service.open_session(trajectory[0], k=K, rho=RHO)
            for trajectory in trajectories
        ]
        for step in range(1, STEPS):
            if step in batches:
                service.apply(batches[step])
            for session, trajectory in zip(sessions, trajectories):
                session.update(trajectory[step])
        total = service.communication
        per_session = service.per_session_communication()
        epochs = len(batches)
        assert sum(c.uplink_messages for c in per_session.values()) == (
            total.uplink_messages - epochs  # the update stream is unattributed
        )
        assert sum(c.downlink_objects for c in per_session.values()) == (
            total.downlink_objects
        )
        assert sum(c.uplink_objects for c in per_session.values()) == 0
