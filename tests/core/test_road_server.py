"""Tests for repro.core.road_server (and the INSRoadProcessor update hooks)."""

import math
import random

import pytest
from rebuild_reference import ROAD_SERVERS
from road_reference import SERVERS, FullNetworkRoadProcessor

import repro.obs as obs
from repro.errors import EmptyDatasetError, QueryError
from repro.core.road_server import MovingRoadKNNServer
from repro.roadnet.generators import grid_network, place_objects, random_planar_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.knn import network_knn
from repro.roadnet.location import NetworkLocation
from repro.trajectory.road import network_random_walk
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram


def reference_knn_distances(server, position, k):
    """Brute-force kNN distances over the server's current active objects."""
    nearest = network_knn(
        server.network,
        server.voronoi.vertex_assignments,
        position,
        k,
        objects_at_vertex=server.voronoi.vertex_objects(),
    )
    return sorted(distance for _, distance in nearest)


class TestLifecycle:
    def test_register_and_answer(self):
        network = grid_network(6, 6, spacing=50.0)
        objects = place_objects(network, 10, seed=1)
        server = MovingRoadKNNServer(network, objects)
        location = NetworkLocation(0, 10.0)
        query_id = server.register_query(location, k=3)
        assert server.query_count == 1
        result = server.answer(query_id)
        assert len(result.knn) == 3
        assert sorted(result.knn_distances) == pytest.approx(
            reference_knn_distances(server, location, 3)
        )

    def test_unknown_query_raises(self):
        network = grid_network(4, 4)
        server = MovingRoadKNNServer(network, place_objects(network, 5, seed=2))
        with pytest.raises(QueryError):
            server.update_position(99, NetworkLocation(0, 0.0))
        with pytest.raises(QueryError):
            server.unregister_query(99)

    def test_unregister(self):
        network = grid_network(4, 4)
        server = MovingRoadKNNServer(network, place_objects(network, 5, seed=3))
        query_id = server.register_query(NetworkLocation(0, 0.0), k=2)
        server.unregister_query(query_id)
        assert server.query_count == 0


class TestDataUpdates:
    def test_epoch_counts_batches_not_objects(self):
        network = grid_network(5, 5, spacing=10.0)
        server = MovingRoadKNNServer(network, place_objects(network, 6, seed=4))
        assert server.epoch == 0
        server.insert_object(3)
        assert server.epoch == 1
        server.batch_update(inserts=[7, 11], deletes=[0])
        assert server.epoch == 2

    def test_delete_unknown_returns_false(self):
        network = grid_network(4, 4)
        server = MovingRoadKNNServer(network, place_objects(network, 5, seed=5))
        assert server.delete_object(77) is False
        assert server.delete_object(2) is True
        assert server.delete_object(2) is False

    def test_updates_flag_queries_stale_without_copying(self):
        network = grid_network(6, 6, spacing=40.0)
        server = MovingRoadKNNServer(network, place_objects(network, 12, seed=6))
        query_id = server.register_query(NetworkLocation(0, 5.0), k=3)
        processor = next(iter(server)).processor
        assert not processor.state_stale
        server.insert_object(17)
        assert processor.state_stale
        server.update_position(query_id, NetworkLocation(0, 8.0))
        assert not processor.state_stale

    # (A removal inside R and a far update absorbed for free are asserted for
    # both metrics in tests/core/test_ins_protocol.py.)

    def test_nearby_insert_enters_the_answer(self):
        network = grid_network(6, 6, spacing=40.0)
        objects = [20, 25, 30, 35]  # all objects far from vertex 0
        server = MovingRoadKNNServer(network, objects)
        location = NetworkLocation(0, 1.0)
        query_id = server.register_query(location, k=2)
        index = server.insert_object(1)  # right next to the query
        result = server.update_position(query_id, location)
        assert index in result.knn
        assert sorted(result.knn_distances) == pytest.approx(
            reference_knn_distances(server, location, 2)
        )


class TestAnswersMatchBruteForce:
    @pytest.mark.parametrize("mode", list(SERVERS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_update_stream_equivalence(self, mode, seed):
        rng = random.Random(seed + 31)
        network = (
            grid_network(10, 10, spacing=50.0)
            if seed % 2 == 0
            else random_planar_network(120, extent=2_000.0, seed=seed)
        )
        objects = place_objects(network, 20, seed=seed + 13)
        trajectory = network_random_walk(network, steps=60, step_length=30.0, seed=seed + 17)
        server = SERVERS[mode](network, objects)
        query_id = server.register_query(trajectory[0], k=4)
        for step in range(1, 60):
            op = rng.random()
            active = server.voronoi.active_object_indexes()
            if op < 0.3:
                server.insert_object(rng.choice(network.vertices()))
            elif op < 0.55 and len(active) > 7:
                server.delete_object(rng.choice(active))
            elif op < 0.8:
                server.move_object(rng.choice(active), rng.choice(network.vertices()))
            result = server.update_position(query_id, trajectory[step])
            assert sorted(result.knn_distances) == pytest.approx(
                reference_knn_distances(server, trajectory[step], 4)
            ), (mode, seed, step)

    def test_batched_stream_equivalence(self):
        rng = random.Random(91)
        network = grid_network(10, 10, spacing=50.0)
        objects = place_objects(network, 25, seed=92)
        trajectory = network_random_walk(network, steps=25, step_length=40.0, seed=93)
        server = MovingRoadKNNServer(network, objects)
        query_id = server.register_query(trajectory[0], k=5)
        for step in range(1, 25):
            active = server.voronoi.active_object_indexes()
            server.batch_update(
                inserts=[rng.choice(network.vertices()) for _ in range(2)],
                deletes=[rng.choice(active)],
                moves=[(rng.choice(active[1:]), rng.choice(network.vertices()))],
            )
            result = server.update_position(query_id, trajectory[step])
            assert sorted(result.knn_distances) == pytest.approx(
                reference_knn_distances(server, trajectory[step], 5)
            ), step

    def test_rebuild_and_incremental_servers_answer_identically(self):
        rng_a, rng_b = random.Random(7), random.Random(7)
        network = random_planar_network(100, extent=1_500.0, seed=44)
        objects = place_objects(network, 15, seed=45)
        trajectory = network_random_walk(network, steps=30, step_length=30.0, seed=46)
        servers = {mode: server(network, objects) for mode, server in ROAD_SERVERS.items()}
        rngs = {"incremental": rng_a, "rebuild": rng_b}
        ids = {
            mode: server.register_query(trajectory[0], k=3)
            for mode, server in servers.items()
        }
        for step in range(1, 30):
            results = {}
            for mode, server in servers.items():
                rng = rngs[mode]
                op = rng.random()
                active = server.voronoi.active_object_indexes()
                if op < 0.4:
                    server.insert_object(rng.choice(network.vertices()))
                elif op < 0.7 and len(active) > 5:
                    server.delete_object(rng.choice(active))
                else:
                    server.move_object(rng.choice(active), rng.choice(network.vertices()))
                results[mode] = server.update_position(ids[mode], trajectory[step])
            assert sorted(results["incremental"].knn_distances) == pytest.approx(
                sorted(results["rebuild"].knn_distances)
            ), step


def validation_fallbacks(reason="escaped"):
    return obs.counter("insq_road_validation_fallbacks_total", reason=reason).value


class TestRestrictedEscapeFallback:
    """``insq_road_validation_fallbacks_total`` names the slow paths of road
    validation by reason: ``escaped``, a search of the whole network, and
    ``unreachable``, a search that exhausted the Theorem 2 region."""

    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        obs.reset()
        obs.enable()
        yield
        obs.reset()

    def test_query_escaping_the_region_falls_back_to_the_full_network(self):
        # Query initialised in one corner of a large grid, then teleported to
        # the opposite corner: the new edge is not part of the held
        # Theorem 2 region, so _held_distances must fall back to the
        # full network (and still produce a correct answer).
        network = grid_network(15, 15, spacing=20.0)
        objects = place_objects(network, 40, seed=55)
        server = MovingRoadKNNServer(network, objects)
        start = NetworkLocation(0, 1.0)
        query_id = server.register_query(start, k=3)
        far_edge = network.incident_edges(network.vertices()[-1])[0]
        far = NetworkLocation(far_edge.edge_id, far_edge.length / 2.0)
        assert validation_fallbacks() == 0
        result = server.update_position(query_id, far)
        assert validation_fallbacks() == 1
        assert all(math.isfinite(distance) for distance in result.knn_distances)
        assert sorted(result.knn_distances) == pytest.approx(
            reference_knn_distances(server, far, 3)
        )

    def test_escape_without_update_stays_correct_standalone(self):
        from repro.core.ins_road import INSRoadProcessor

        network = grid_network(12, 12, spacing=25.0)
        objects = place_objects(network, 30, seed=56)
        processor = INSRoadProcessor(NetworkVoronoiDiagram(network, objects), k=4)
        processor.initialize(NetworkLocation(0, 2.0))
        far_edge = network.incident_edges(network.vertices()[-1])[0]
        far = NetworkLocation(far_edge.edge_id, 1.0)
        assert validation_fallbacks() == 0
        result = processor.update(far)
        assert validation_fallbacks() == 1
        expected = network_knn(network, objects, far, 4)
        assert sorted(result.knn_distances) == pytest.approx(
            sorted(distance for _, distance in expected)
        )

    def test_a_knn_member_the_region_cannot_reach_is_counted(self):
        # The nearest neighbour moves to the opposite corner: its new cell
        # joins the region but no region edge leads there, so the search for
        # it exhausts the region, it reads inf, and the answer is replaced.
        network = grid_network(15, 15, spacing=20.0)
        server = MovingRoadKNNServer(network, place_objects(network, 40, seed=55))
        query_id = server.register_query(NetworkLocation(0, 1.0), k=3)
        moved = server.answer(query_id).knn[0]
        server.move_object(moved, network.vertices()[-1])
        here = NetworkLocation(0, 2.0)
        result = server.update_position(query_id, here)
        assert validation_fallbacks("unreachable") == 1
        assert validation_fallbacks("escaped") == 0
        assert not result.was_valid and moved not in result.knn
        assert sorted(result.knn_distances) == reference_knn_distances(server, here, 3)

    def test_a_walk_inside_the_region_never_falls_back(self):
        network = grid_network(12, 12, spacing=25.0)
        objects = place_objects(network, 30, seed=56)
        server = MovingRoadKNNServer(network, objects)
        trajectory = network_random_walk(network, steps=60, step_length=10.0, seed=57)
        query_id = server.register_query(trajectory[0], k=4)
        for location in trajectory[1:]:
            server.update_position(query_id, location)
        assert validation_fallbacks() == 0
        exact = FullNetworkRoadProcessor(NetworkVoronoiDiagram(network, objects), k=4)
        exact.initialize(trajectory[0])
        exact.update(NetworkLocation(network.edge_count - 1, 1.0))
        assert validation_fallbacks() == 0  # the full network has no region to fall out of
        assert validation_fallbacks("unreachable") == 0


class TestServingSharesTheNetwork:
    def test_no_network_is_built_or_copied_after_set_up(self, monkeypatch):
        """Theorem 2 is an edge filter on the one shared network: a 50-epoch
        churn stream over several sessions constructs no ``RoadNetwork`` and
        never calls ``subnetwork``."""
        rng = random.Random(58)
        network = grid_network(12, 12, spacing=50.0)
        server = MovingRoadKNNServer(network, place_objects(network, 40, seed=59))
        walks = [
            network_random_walk(network, steps=50, step_length=30.0, seed=60 + i)
            for i in range(4)
        ]
        ids = [server.register_query(walk[0], k=3 + i % 2) for i, walk in enumerate(walks)]

        built = []
        original = RoadNetwork.__init__

        def counting_init(self):
            built.append("init")
            original(self)

        monkeypatch.setattr(RoadNetwork, "__init__", counting_init)
        monkeypatch.setattr(
            RoadNetwork, "subnetwork", lambda self, edge_ids: built.append("subnetwork")
        )
        for step in range(1, 51):
            active = server.voronoi.active_object_indexes()
            victim, mover = rng.sample(active, 2)
            server.batch_update(
                inserts=[rng.choice(network.vertices())],
                deletes=[victim],
                moves=[(mover, rng.choice(network.vertices()))],
            )
            for query_id, walk in zip(ids, walks):
                result = server.update_position(query_id, walk[step])
                assert sorted(result.knn_distances) == pytest.approx(
                    reference_knn_distances(server, walk[step], len(result.knn))
                )
        assert built == []
        stats = server.aggregate_stats()
        assert stats.full_recomputations > 4 and stats.ins_refreshes > 0


class TestColocatedObjectsThroughTheServer:
    def test_insert_move_delete_on_shared_vertices(self):
        network = grid_network(8, 8, spacing=30.0)
        vertices = network.vertices()
        objects = [vertices[0], vertices[0], vertices[63], vertices[27], vertices[36]]
        server = MovingRoadKNNServer(network, objects)
        location = NetworkLocation(0, 5.0)
        query_id = server.register_query(location, k=2)
        # Insert a third object onto the already-shared vertex.
        index = server.insert_object(vertices[0])
        result = server.update_position(query_id, location)
        assert sorted(result.knn_distances) == pytest.approx(
            reference_knn_distances(server, location, 2)
        )
        # Remove the original representative of the shared trio.
        assert server.delete_object(0)
        result = server.update_position(query_id, location)
        assert sorted(result.knn_distances) == pytest.approx(
            reference_knn_distances(server, location, 2)
        )
        # Move the remaining co-located member away, then back.
        server.move_object(1, vertices[14])
        server.move_object(index, vertices[14])
        result = server.update_position(query_id, location)
        assert sorted(result.knn_distances) == pytest.approx(
            reference_knn_distances(server, location, 2)
        )

    def test_last_object_cannot_be_deleted(self):
        network = grid_network(3, 3)
        server = MovingRoadKNNServer(network, [0, 4])
        assert server.delete_object(0)
        with pytest.raises(EmptyDatasetError):
            server.delete_object(1)


class TestPopulationGuards:
    def test_delete_below_a_registered_k_fails_at_the_mutation(self):
        network = grid_network(4, 4, spacing=10.0)
        server = MovingRoadKNNServer(network, [0, 3, 12, 15, 5, 10])
        server.register_query(NetworkLocation(0, 1.0), k=5)
        with pytest.raises(QueryError):
            server.delete_object(0)
        # The diagram was not mutated by the rejected delete.
        assert server.object_count == 6 and server.epoch == 0
        server.unregister_query(server.query_ids()[0])
        assert server.delete_object(0)

    def test_batch_below_a_registered_k_fails_before_mutating(self):
        network = grid_network(4, 4, spacing=10.0)
        server = MovingRoadKNNServer(network, [0, 3, 12, 15, 5, 10])
        server.register_query(NetworkLocation(0, 1.0), k=4)
        with pytest.raises(QueryError):
            server.batch_update(deletes=[0, 1])
        assert server.object_count == 6 and server.epoch == 0
        # Inserts in the same batch count toward the surviving population.
        result = server.batch_update(inserts=[7], deletes=[0, 1])
        assert server.object_count == 5 and len(result.new_indexes) == 1

    def test_failed_registration_leaves_no_zombie_query(self):
        from repro.errors import RoadNetworkError

        network = grid_network(4, 4, spacing=10.0)
        server = MovingRoadKNNServer(network, place_objects(network, 6, seed=21))
        with pytest.raises(RoadNetworkError):
            server.register_query(NetworkLocation(0, 1e9), k=2)
        assert server.query_count == 0


class TestAggregateStats:
    def test_stats_accumulate_across_queries(self):
        network = grid_network(8, 8, spacing=30.0)
        objects = place_objects(network, 15, seed=66)
        server = MovingRoadKNNServer(network, objects)
        trajectory = network_random_walk(network, steps=10, step_length=20.0, seed=67)
        first = server.register_query(trajectory[0], k=2)
        second = server.register_query(trajectory[0], k=4)
        for step in range(1, 10):
            server.update_position(first, trajectory[step])
            server.update_position(second, trajectory[step])
        total = server.aggregate_stats()
        per_query = server.per_query_stats()
        assert total.timestamps == sum(stats.timestamps for stats in per_query.values())
        assert total.timestamps == 20
