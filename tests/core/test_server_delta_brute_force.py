"""The delta-scoped invalidation contract against brute force, on both metrics.

Each session settles only the deltas that reached its held pool.  Every
answer must agree with a brute-force oracle over the current population,
and the lazy rule must pay for itself: a blanket refresh would cost one
retrieval per session at registration and one per session at every settle
after an epoch, and delta pays strictly fewer, absorbing some epochs for
free.  ``tests/service/test_service_machine.py`` drives the same rule
through every service operation.
"""

import math
import random

import pytest
from blanket_refresh import run_settle_retrievals, settle_retrievals

from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.shortest_path import distances_from_location
from repro.simulation.server_sim import check_knn_answer, simulate_server
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.trajectory.road import network_random_walk
from repro.workloads.datasets import data_space, uniform_points
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    road_server_scenario,
)


def serve(server, trajectories, ks, draw, oracle):
    """Register one query per trajectory, then per step apply the batch
    ``draw(server)`` returns and advance every query, checking each answer
    against ``oracle``.  Returns :func:`settle_retrievals` of the run."""
    ids = [server.register_query(walk[0], k=k) for walk, k in zip(trajectories, ks)]
    settles = []
    for step in range(1, len(trajectories[0])):
        epoch = server.epoch
        server.batch_update(**draw(server))
        for query_id, walk in zip(ids, trajectories):
            answer = server.update_position(query_id, walk[step])
            oracle_distances = oracle(server, walk[step])
            assert check_knn_answer(answer.knn, oracle_distances, answer.k), (step, query_id)
            if server.epoch != epoch:
                settles.append(answer)
    return settle_retrievals(settles)


def plane_oracle(server, position):
    tree = server.vortree
    return {index: position.distance_to(tree.point(index)) for index in tree.active_indexes()}


def road_oracle(server, position):
    vertex_distances = distances_from_location(server.network, position)
    return {
        index: vertex_distances.get(server.object_vertex(index), math.inf)
        for index in server.voronoi.active_object_indexes()
    }


class TestEuclidean:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_answer_is_brute_force_with_fewer_retrievals(self, seed):
        rng = random.Random(800 + seed)
        points = uniform_points(250, extent=1_000.0, seed=810 + seed)
        trajectories = [
            random_waypoint_trajectory(
                data_space(1_000.0), steps=30, step_length=35.0, seed=820 + seed + i
            )
            for i in range(3)
        ]

        def draw(server):
            inserts = [
                Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
                for _ in range(rng.randrange(0, 3))
            ]
            deletes = rng.sample(server.vortree.active_indexes(), rng.randrange(0, 3))
            return {"inserts": inserts, "deletes": deletes}

        server = MovingKNNServer(points)
        retrievals, bound = serve(server, trajectories, [3, 4, 5], draw, plane_oracle)
        assert retrievals < bound
        assert server.aggregate_stats().absorbed_updates > 0

    def test_scenario_driver(self):
        scenario = euclidean_server_scenario(
            data="clustered",
            churn=ChurnSpec(interval=2, inserts=1, deletes=1, moves=2),
            queries=4,
            object_count=200,
            k=4,
            steps=25,
            extent=1_000.0,
            seed=31,
        )
        run = simulate_server(scenario, check_answers=True)
        assert run.is_correct
        retrievals, bound = run_settle_retrievals(scenario, run)
        assert retrievals < bound
        # The delta mode absorbed at least some far-away updates for free.
        assert run.aggregate.absorbed_updates > 0


class TestRoad:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_answer_is_brute_force_with_fewer_retrievals(self, seed):
        rng = random.Random(900 + seed)
        network = grid_network(10, 10, spacing=50.0)
        objects = place_objects(network, 25, seed=910 + seed)
        trajectories = [
            network_random_walk(network, steps=25, step_length=30.0, seed=920 + seed + i)
            for i in range(2)
        ]
        vertices = network.vertices()

        def draw(server):
            active = server.voronoi.active_object_indexes()
            inserts = [rng.choice(vertices) for _ in range(rng.randrange(0, 2))]
            deletes = rng.sample(active, rng.randrange(0, 2)) if len(active) > 8 else []
            movable = [index for index in active if index not in set(deletes)]
            moves = [(rng.choice(movable), rng.choice(vertices))]
            return {"inserts": inserts, "deletes": deletes, "moves": moves}

        # Grid networks tie constantly: check_knn_answer is tie-aware.
        server = MovingRoadKNNServer(network, objects)
        retrievals, bound = serve(server, trajectories, [3, 3], draw, road_oracle)
        assert retrievals < bound
        assert server.aggregate_stats().absorbed_updates > 0

    def test_scenario_driver(self):
        scenario = road_server_scenario(
            churn="low", queries=3, rows=8, columns=8, object_count=18, k=3,
            steps=20, seed=41,
        )
        run = simulate_server(scenario, check_answers=True)
        assert run.is_correct
        retrievals, bound = run_settle_retrievals(scenario, run)
        assert retrievals < bound
        # 18 objects on an 8 x 8 grid: every delta reaches every session's
        # pool, so the epochs it did not retrieve for were refreshes.
        assert run.aggregate.ins_refreshes > 0
