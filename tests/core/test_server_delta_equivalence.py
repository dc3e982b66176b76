"""Randomized equivalence tests for the delta-scoped invalidation contract.

The acceptance property of the unified serving engine: driving the *same*
query/update stream through ``invalidation="delta"`` (each query settles
only the deltas that touched its held pool) and ``invalidation="flag"``
(the pre-delta blanket contract: every query refreshes fully on every
epoch) must produce identical answers — and both must agree with a
brute-force oracle over the current population — while the delta mode pays
strictly fewer full retrievals.  This holds on both metric sides of the
engine.
"""

import math
import random

import pytest

from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.shortest_path import distances_from_location
from repro.simulation.server_sim import simulate_server
from repro.simulation.server_sim import check_knn_answer
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.trajectory.road import network_random_walk
from repro.workloads.datasets import data_space, uniform_points
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    road_server_scenario,
)

MODES = ("delta", "flag")


class TestEuclideanEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_stream_same_answers_fewer_retrievals(self, seed):
        rng = random.Random(800 + seed)
        points = uniform_points(250, extent=1_000.0, seed=810 + seed)
        trajectories = [
            random_waypoint_trajectory(
                data_space(1_000.0), steps=30, step_length=35.0, seed=820 + seed + i
            )
            for i in range(3)
        ]
        servers = {mode: MovingKNNServer(points, invalidation=mode) for mode in MODES}
        ids = {
            mode: [
                server.register_query(trajectory[0], k=3 + i)
                for i, trajectory in enumerate(trajectories)
            ]
            for mode, server in servers.items()
        }
        for step in range(1, 30):
            # One mixed mutation batch, identical for both servers (the
            # object indexes align because the op sequence is identical).
            active = servers["delta"].vortree.active_indexes()
            inserts = [
                Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
                for _ in range(rng.randrange(0, 3))
            ]
            deletes = rng.sample(active, rng.randrange(0, 3))
            for server in servers.values():
                server.batch_update(inserts=inserts, deletes=deletes)
            for i, trajectory in enumerate(trajectories):
                position = trajectory[step]
                answers = {
                    mode: servers[mode].update_position(ids[mode][i], position)
                    for mode in MODES
                }
                # The *set* must agree exactly; the tuple order may differ
                # (the delta mode keeps its held ordering while the flag
                # oracle re-retrieves nearest-first), so distances are
                # compared as sorted multisets.
                assert answers["delta"].knn_set == answers["flag"].knn_set, (seed, step, i)
                assert sorted(answers["delta"].knn_distances) == pytest.approx(
                    sorted(answers["flag"].knn_distances)
                )
                # Both agree with brute force over the current population.
                tree = servers["delta"].vortree
                all_distances = {
                    index: position.distance_to(tree.point(index))
                    for index in tree.active_indexes()
                }
                assert check_knn_answer(
                    answers["delta"].knn, all_distances, answers["delta"].k
                ), (seed, step, i)
        delta_retrievals = servers["delta"].aggregate_stats().full_recomputations
        flag_retrievals = servers["flag"].aggregate_stats().full_recomputations
        assert delta_retrievals < flag_retrievals

    def test_scenario_driver_equivalence(self):
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
        runs = {
            mode: simulate_server(scenario, invalidation=mode, check_answers=True)
            for mode in MODES
        }
        assert runs["delta"].is_correct and runs["flag"].is_correct
        for query_id in runs["delta"].results:
            assert [r.knn_set for r in runs["delta"].results[query_id]] == [
                r.knn_set for r in runs["flag"].results[query_id]
            ]
        assert (
            runs["delta"].aggregate.full_recomputations
            < runs["flag"].aggregate.full_recomputations
        )
        # Fewer retrievals ship fewer objects.
        assert (
            runs["delta"].aggregate.transmitted_objects
            < runs["flag"].aggregate.transmitted_objects
        )
        # The delta mode absorbed at least some far-away updates for free.
        assert runs["delta"].aggregate.absorbed_updates > 0
        assert runs["flag"].aggregate.absorbed_updates == 0


def road_oracle_distances(server, position):
    vertex_distances = distances_from_location(server.network, position)
    return {
        index: vertex_distances.get(server.object_vertex(index), math.inf)
        for index in server.voronoi.active_object_indexes()
    }


class TestRoadEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_stream_same_answers_fewer_retrievals(self, seed):
        rng = random.Random(900 + seed)
        network = grid_network(10, 10, spacing=50.0)
        objects = place_objects(network, 25, seed=910 + seed)
        trajectories = [
            network_random_walk(network, steps=25, step_length=30.0, seed=920 + seed + i)
            for i in range(2)
        ]
        servers = {
            mode: MovingRoadKNNServer(network, objects, invalidation=mode)
            for mode in MODES
        }
        ids = {
            mode: [
                server.register_query(trajectory[0], k=3)
                for trajectory in trajectories
            ]
            for mode, server in servers.items()
        }
        vertices = network.vertices()
        for step in range(1, 25):
            active = servers["delta"].voronoi.active_object_indexes()
            inserts = [rng.choice(vertices) for _ in range(rng.randrange(0, 2))]
            deletes = rng.sample(active, rng.randrange(0, 2)) if len(active) > 8 else []
            movable = [index for index in active if index not in set(deletes)]
            moves = [(rng.choice(movable), rng.choice(vertices))]
            for server in servers.values():
                server.batch_update(inserts=inserts, deletes=deletes, moves=moves)
            for i, trajectory in enumerate(trajectories):
                position = trajectory[step]
                answers = {
                    mode: servers[mode].update_position(ids[mode][i], position)
                    for mode in MODES
                }
                # Grid networks tie constantly, so compare tie-insensitive
                # distance multisets and check both against brute force.
                assert sorted(answers["delta"].knn_distances) == pytest.approx(
                    sorted(answers["flag"].knn_distances)
                ), (seed, step, i)
                all_distances = road_oracle_distances(servers["delta"], position)
                for mode in MODES:
                    assert check_knn_answer(
                        answers[mode].knn, all_distances, answers[mode].k
                    ), (mode, seed, step, i)
        delta_retrievals = servers["delta"].aggregate_stats().full_recomputations
        flag_retrievals = servers["flag"].aggregate_stats().full_recomputations
        assert delta_retrievals < flag_retrievals

    def test_scenario_driver_equivalence(self):
        scenario = road_server_scenario(
            churn="low", queries=3, rows=8, columns=8, object_count=18, k=3,
            steps=20, seed=41,
        )
        runs = {
            mode: simulate_server(scenario, invalidation=mode, check_answers=True)
            for mode in MODES
        }
        assert runs["delta"].is_correct and runs["flag"].is_correct
        for query_id in runs["delta"].results:
            delta_stream = runs["delta"].results[query_id]
            flag_stream = runs["flag"].results[query_id]
            for delta_result, flag_result in zip(delta_stream, flag_stream):
                assert sorted(delta_result.knn_distances) == pytest.approx(
                    sorted(flag_result.knn_distances)
                )
        assert (
            runs["delta"].aggregate.full_recomputations
            < runs["flag"].aggregate.full_recomputations
        )
