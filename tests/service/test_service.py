"""Tests for the metric-agnostic service facade and its session handles."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError, QueryError
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.service import KNNService, UpdateBatch, open_service
from repro.trajectory.road import network_random_walk
from repro.workloads.datasets import uniform_points
from repro.workloads.scenarios import (
    default_euclidean_scenario,
    default_road_scenario,
    euclidean_server_scenario,
    road_server_scenario,
)


@pytest.fixture
def euclidean_service():
    return open_service(metric="euclidean", objects=uniform_points(150, seed=3))


@pytest.fixture
def road_service():
    network = grid_network(7, 7, spacing=50.0)
    objects = place_objects(network, 18, seed=4)
    return open_service(metric="road", network=network, objects=objects)


class TestOpenService:
    def test_one_code_path_serves_both_metrics(self, euclidean_service, road_service):
        assert euclidean_service.metric == "euclidean"
        assert isinstance(euclidean_service.engine, MovingKNNServer)
        assert road_service.metric == "road"
        assert isinstance(road_service.engine, MovingRoadKNNServer)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            open_service(metric="hyperbolic", objects=[Point(0.0, 0.0)])

    def test_missing_objects_rejected(self):
        with pytest.raises(ConfigurationError):
            open_service(metric="euclidean")

    def test_road_requires_a_network(self):
        with pytest.raises(ConfigurationError):
            open_service(metric="road", objects=[0, 1, 2])

    def test_euclidean_rejects_a_network(self):
        with pytest.raises(ConfigurationError):
            open_service(
                metric="euclidean",
                objects=uniform_points(10, seed=1),
                network=grid_network(3, 3),
            )

    def test_wrapping_a_foreign_engine_is_rejected(self):
        with pytest.raises(ConfigurationError):
            KNNService(object())

    def test_plane_set_up_imports_neither_scipy_nor_numpy(self):
        # A fresh interpreter: this one may have loaded either already.
        script = (
            "import sys\n"
            "import repro\n"
            "from repro.service import open_service\n"
            "from repro.workloads.datasets import uniform_points\n"
            "open_service(metric='euclidean', objects=uniform_points(2_000, seed=71))\n"
            "print(*sorted({'scipy', 'numpy'} & set(sys.modules)))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.split() == []

    def test_serving_loads_nothing_beyond_import_repro(self):
        # bench/rep.py times `import repro` + `open_service` as set-up and the
        # first update inside the stream: `import repro` must load the whole
        # serving path (so no cost slips out of the set-up window) and nothing
        # that serving never reaches (the wire, the WAL, the HTTP endpoint).
        script = (
            "import random, sys\n"
            "import repro\n"
            "from repro import NetworkLocation, Point, UpdateBatch, open_service\n"
            "serving = ['repro.service', 'repro.core.engine', 'repro.index.vortree',\n"
            "           'repro.roadnet.network_voronoi', 'repro.queries.kinds']\n"
            "print('missing', *[name for name in serving if name not in sys.modules])\n"
            "rng = random.Random(5)\n"
            "points = [Point(rng.uniform(0, 1e3), rng.uniform(0, 1e3)) for _ in range(200)]\n"
            "network = repro.grid_network(8, 8, spacing=50.0)\n"
            "vertices = repro.place_objects(network, 20, seed=4)\n"
            "before = set(sys.modules)\n"
            "plane = open_service(metric='euclidean', objects=points)\n"
            "road = open_service(metric='road', network=network, objects=vertices)\n"
            "free = [vertex for vertex in network.vertices() if vertex not in vertices]\n"
            "sessions = [plane.open_query(Point(500.0, 500.0), kind, k=4)\n"
            "            for kind in ('knn', 'influential', 'region')]\n"
            "for session in sessions:\n"
            "    session.update(Point(510.0, 505.0))\n"
            "sessions.append(road.open_session(NetworkLocation(0, 10.0), k=3))\n"
            "sessions[-1].update(NetworkLocation(1, 20.0))\n"
            "plane.apply(UpdateBatch(inserts=(Point(1.0, 2.0),), deletes=(3,),\n"
            "                        moves=((4, Point(501.0, 499.0)),)))\n"
            "road.apply(UpdateBatch(inserts=(free[0],), deletes=(3,), moves=((4, free[1]),)))\n"
            "for session in sessions:\n"
            "    session.refresh()\n"
            "    session.close()\n"
            "plane.close()\n"
            "road.close()\n"
            "print('joined', *sorted(set(sys.modules) - before))\n"
            "unwanted = ['repro.transport', 'repro.durability', 'repro.obs.httpd',\n"
            "            'repro.simulation', 'repro.baselines', 'http.server',\n"
            "            'multiprocessing', 'ssl']\n"
            "print('loaded', *[name for name in unwanted if name in sys.modules])\n"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        lines = completed.stdout.splitlines()
        assert lines[0].split() == ["missing"]
        assert [name for name in lines[1].split() if name.startswith("repro")] == []
        assert lines[2].split() == ["loaded"]


class TestOpenOnScenario:
    @pytest.mark.parametrize(
        "factory, metric",
        [
            (lambda: default_euclidean_scenario(object_count=60, steps=5), "euclidean"),
            (lambda: default_road_scenario(rows=5, columns=5, object_count=12, steps=5), "road"),
            (
                lambda: euclidean_server_scenario(
                    queries=2, object_count=60, k=3, steps=5
                ),
                "euclidean",
            ),
            (
                lambda: road_server_scenario(
                    queries=2, rows=5, columns=5, object_count=10, steps=5
                ),
                "road",
            ),
        ],
        ids=["euclidean", "road", "euclidean-server", "road-server"],
    )
    def test_accepts_every_scenario_flavour(self, factory, metric):
        scenario = factory()
        service = open_service(scenario.metric, scenario.objects, scenario.network)
        assert service.metric == metric == scenario.metric
        assert service.object_count > 0


class TestSessionLifecycle:
    def test_context_manager_auto_unregisters(self, euclidean_service):
        with euclidean_service.open_session(Point(100.0, 100.0), k=4) as session:
            assert not session.closed
            assert euclidean_service.session_count == 1
            assert euclidean_service.engine.query_count == 1
            assert session.k == 4 and session.rho == 1.6
        assert session.closed
        assert euclidean_service.session_count == 0
        assert euclidean_service.engine.query_count == 0

    def test_close_is_idempotent(self, euclidean_service):
        session = euclidean_service.open_session(Point(50.0, 50.0), k=3)
        session.close()
        session.close()
        assert euclidean_service.session_count == 0

    def test_closed_session_rejects_updates(self, euclidean_service):
        session = euclidean_service.open_session(Point(50.0, 50.0), k=3)
        session.close()
        with pytest.raises(QueryError):
            session.update(Point(60.0, 60.0))
        with pytest.raises(QueryError):
            session.stats
        with pytest.raises(QueryError):
            session.communication

    def test_update_and_refresh_answer(self, euclidean_service):
        with euclidean_service.open_session(Point(100.0, 100.0), k=3) as session:
            response = session.update(Point(110.0, 100.0))
            assert len(response.knn) == 3
            assert session.last_response is response
            refreshed = session.refresh()
            assert refreshed.knn == response.knn

    def test_misaddressed_message_rejected(self, euclidean_service):
        from repro.service import PositionUpdate

        with euclidean_service.open_session(Point(10.0, 10.0), k=3) as session:
            with pytest.raises(QueryError):
                session.send(PositionUpdate(query_id=999, position=Point(1.0, 1.0)))

    def test_road_session_answers(self, road_service):
        walk = network_random_walk(
            road_service.engine.network, steps=4, step_length=25.0, seed=8
        )
        with road_service.open_session(walk[0], k=3) as session:
            response = session.update(walk[1])
            assert len(response.knn) == 3

    def test_closing_sessions_while_iterating_the_engine(self, euclidean_service):
        """The ServingEngine iterates over a snapshot: unregistering mid-walk
        must not raise 'dictionary changed size during iteration'."""
        sessions = [
            euclidean_service.open_session(Point(30.0 * i, 40.0), k=3)
            for i in range(5)
        ]
        engine = euclidean_service.engine
        for record in engine:
            engine.unregister_query(record.query_id)
        assert engine.query_count == 0

    def test_service_close_closes_every_session(self, euclidean_service):
        sessions = [
            euclidean_service.open_session(Point(20.0 * i, 20.0), k=3)
            for i in range(3)
        ]
        euclidean_service.close()
        assert all(session.closed for session in sessions)
        assert euclidean_service.closed
        with pytest.raises(QueryError):
            euclidean_service.open_session(Point(1.0, 1.0), k=2)


class TestUpdateBatches:
    def test_euclidean_moves_decompose_into_delete_and_reinsert(self, euclidean_service):
        count_before = euclidean_service.object_count
        result = euclidean_service.apply(
            UpdateBatch(moves=((0, Point(9_000.0, 9_000.0)),))
        )
        assert result.deleted_indexes == (0,)
        assert len(result.new_indexes) == 1
        assert euclidean_service.object_count == count_before
        moved = result.new_indexes[0]
        assert euclidean_service.engine.vortree.point(moved) == Point(9_000.0, 9_000.0)

    def test_road_moves_are_native(self, road_service):
        target = road_service.engine.network.vertices()[0]
        road_service.apply(UpdateBatch(moves=((2, target),)))
        assert road_service.engine.object_vertex(2) == target

    def test_batch_advances_one_epoch_and_bills_its_payload(self, euclidean_service):
        comm_before = euclidean_service.communication.snapshot()
        epoch_before = euclidean_service.epoch
        batch = UpdateBatch(inserts=(Point(1.0, 1.0), Point(2.0, 2.0)), deletes=(3,))
        euclidean_service.apply(batch)
        assert euclidean_service.epoch == epoch_before + 1
        comm = euclidean_service.communication
        assert comm.uplink_messages - comm_before.uplink_messages == 1
        assert comm.uplink_objects - comm_before.uplink_objects == batch.payload_size() == 3

    def test_move_billing_follows_the_metric(self, euclidean_service, road_service):
        """A road move is one native record; a Euclidean move decomposes
        into delete + reinsert and is billed as two (see payload_size)."""
        road_batch = UpdateBatch(
            moves=((2, road_service.engine.network.vertices()[0]),)
        )
        before = road_service.communication.snapshot()
        road_service.apply(road_batch)
        assert (
            road_service.communication.uplink_objects - before.uplink_objects
            == road_batch.payload_size()
            == 1
        )
        euclidean_batch = UpdateBatch(moves=((0, Point(8_000.0, 8_000.0)),))
        before = euclidean_service.communication.snapshot()
        euclidean_service.apply(euclidean_batch)
        assert (
            euclidean_service.communication.uplink_objects - before.uplink_objects
            == 2 * euclidean_batch.payload_size()
            == 2
        )

    def test_single_object_helpers(self, road_service):
        vertices = road_service.engine.network.vertices()
        index = road_service.insert(vertices[3])
        assert road_service.engine.object_vertex(index) == vertices[3]
        road_service.move(index, vertices[5])
        assert road_service.engine.object_vertex(index) == vertices[5]
        assert road_service.delete(index) is True
        assert road_service.delete(index) is False

    def test_population_guard_protects_open_sessions(self):
        service = open_service(metric="euclidean", objects=uniform_points(6, seed=5))
        with service.open_session(Point(100.0, 100.0), k=4) as session:
            with pytest.raises(QueryError):
                service.apply(UpdateBatch(deletes=(0, 1, 2)))
            # Nothing was applied: the session still answers correctly.
            assert len(session.update(Point(120.0, 100.0)).knn) == 4


class TestCommunicationReporting:
    def test_per_session_and_aggregate_accounting(self, euclidean_service):
        with euclidean_service.open_session(Point(100.0, 100.0), k=3) as session:
            comm = session.communication
            # Registration: one uplink request, one response carrying R + I(R).
            assert comm.uplink_messages == 1
            assert comm.downlink_messages == 1
            assert comm.downlink_objects == session.stats.transmitted_objects
            assert comm.downlink_objects > 0
            session.update(Point(101.0, 100.0))
            per_session = euclidean_service.per_session_communication()
            assert set(per_session) == {session.query_id}
            snapshot = session.communication.snapshot()
        # Closing bills the goodbye message into the aggregate only.
        aggregate = euclidean_service.communication
        assert aggregate.uplink_messages == snapshot.uplink_messages + 1
        assert euclidean_service.per_session_communication() == {}

    def test_responses_annotate_their_own_cost(self, euclidean_service):
        with euclidean_service.open_session(Point(100.0, 100.0), k=3) as session:
            before = session.communication.snapshot()
            response = session.update(Point(4_000.0, 4_000.0))  # far: forces a retrieval
            after = session.communication
            assert response.round_trips >= 1
            assert response.objects_shipped == (
                after.downlink_objects - before.downlink_objects
            )
            quiet = session.update(Point(4_000.5, 4_000.0))  # barely moved: free
            assert quiet.round_trips == 0
            assert quiet.objects_shipped == 0
