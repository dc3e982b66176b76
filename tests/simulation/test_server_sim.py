"""Tests for repro.simulation.server_sim (the multi-query server driver)."""

import dataclasses

import pytest

from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.errors import ConfigurationError
from repro.service import Session, open_service
from repro.simulation.server_sim import simulate_server
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    road_server_scenario,
)


@pytest.fixture(scope="module")
def euclidean_scenario():
    return euclidean_server_scenario(
        queries=4, object_count=150, k=3, steps=18, churn="high", extent=1_000.0, seed=3
    )


@pytest.fixture(scope="module")
def road_scenario():
    return road_server_scenario(
        queries=3, rows=7, columns=7, object_count=16, k=3, steps=14, churn="low", seed=5
    )


def _service(scenario):
    return open_service(scenario.metric, scenario.objects, scenario.network)


class TestScenarioService:
    def test_builds_the_matching_server(self, euclidean_scenario, road_scenario):
        assert isinstance(_service(euclidean_scenario).engine, MovingKNNServer)
        assert isinstance(_service(road_scenario).engine, MovingRoadKNNServer)


class TestSimulateServer:
    def test_every_query_stream_is_advanced(self, euclidean_scenario):
        run = simulate_server(euclidean_scenario, check_answers=True)
        assert run.is_correct
        assert len(run.results) == euclidean_scenario.query_count
        for stream in run.results.values():
            assert len(stream) == euclidean_scenario.timestamps - 1
        # Per-query k follows the scenario's ks.
        for stream, k in zip(run.results.values(), euclidean_scenario.ks):
            assert all(result.k == k for result in stream)

    def test_update_stream_applies_churn_as_epochs(self, euclidean_scenario):
        run = simulate_server(euclidean_scenario)
        churn = euclidean_scenario.churn
        expected_epochs = (euclidean_scenario.timestamps - 1) // churn.interval
        assert run.epochs == expected_epochs
        assert run.update_counts["inserts"] == expected_epochs * churn.inserts
        assert run.update_counts["moves"] > 0
        assert run.aggregate.timestamps > 0

    def test_no_churn_means_no_epochs(self):
        scenario = euclidean_server_scenario(
            queries=2, object_count=80, k=3, steps=8, churn="none", extent=1_000.0, seed=7
        )
        run = simulate_server(scenario, check_answers=True)
        assert run.is_correct
        assert run.epochs == 0
        assert run.update_counts == {"inserts": 0, "deletes": 0, "moves": 0}

    def test_road_scenario_runs_correctly(self, road_scenario):
        run = simulate_server(road_scenario, check_answers=True)
        assert run.is_correct
        assert run.epochs > 0
        assert len(run.results) == road_scenario.query_count

    def test_population_never_starves_registered_queries(self):
        # Aggressive deletion churn against a small population: the driver
        # must clamp deletes to the population floor instead of tripping
        # the engine's population guard.
        scenario = euclidean_server_scenario(
            queries=2,
            object_count=12,
            k=4,
            steps=20,
            churn=ChurnSpec(interval=1, inserts=0, deletes=4, moves=0),
            extent=1_000.0,
            seed=11,
        )
        run = simulate_server(scenario, check_answers=True)
        assert run.is_correct


class TestEveryFrontDoor:
    @pytest.mark.parametrize("transport", ["tcp"])
    @pytest.mark.parametrize("metric", ["euclidean", "road"])
    def test_answers_are_checked_on_every_transport(
        self, euclidean_scenario, road_scenario, metric, transport
    ):
        scenario = euclidean_scenario if metric == "euclidean" else road_scenario
        run = simulate_server(scenario, transport=transport, check_answers=True)
        assert run.is_correct
        assert run.epochs > 0
        assert sum(len(stream) for stream in run.results.values()) == (
            scenario.query_count * (scenario.timestamps - 1)
        )

    def test_a_swapped_knn_member_is_caught(self, monkeypatch):
        scenario = euclidean_server_scenario(
            queries=2, object_count=80, k=3, steps=6, churn="none", extent=1_000.0, seed=7
        )
        honest_update = Session.update

        def swap_nearest_for_farthest(session, position):
            response = honest_update(session, position)
            farthest = max(
                range(len(scenario.objects)),
                key=lambda index: position.distance_to(scenario.objects[index]),
            )
            knn = (farthest, *response.knn[1:])
            return dataclasses.replace(
                response, result=dataclasses.replace(response.result, knn=knn)
            )

        monkeypatch.setattr(Session, "update", swap_nearest_for_farthest)
        run = simulate_server(scenario, check_answers=True)
        assert len(run.mismatches) == scenario.query_count * (scenario.timestamps - 1)

    def test_process_shards_are_not_a_front_door(self, euclidean_scenario):
        with pytest.raises(ConfigurationError, match="'local', 'tcp' or 'unix'"):
            simulate_server(euclidean_scenario, transport="process")


class TestTheServiceItIsGiven:
    def test_a_given_service_replays_the_run_it_would_open(self, euclidean_scenario):
        opened = simulate_server(euclidean_scenario, check_answers=True)
        service = _service(euclidean_scenario)
        given = simulate_server(euclidean_scenario, service, check_answers=True)
        assert given.is_correct
        assert given.results == opened.results
        assert given.communication.as_dict() == opened.communication.as_dict()
        assert given.epochs == service.epoch == opened.epochs

    def test_a_service_with_sessions_is_refused(self, euclidean_scenario):
        service = _service(euclidean_scenario)
        service.open_session(euclidean_scenario.trajectories[0][0], k=3)
        with pytest.raises(ConfigurationError, match="fresh service"):
            simulate_server(euclidean_scenario, service)

    def test_a_service_past_epoch_zero_is_refused(self, euclidean_scenario):
        service = _service(euclidean_scenario)
        service.delete(0)
        assert service.session_count == 0
        with pytest.raises(ConfigurationError, match="fresh service"):
            simulate_server(euclidean_scenario, service)

    def test_transport_none_is_refused(self, euclidean_scenario):
        with pytest.raises(ConfigurationError, match="'local', 'tcp' or 'unix'"):
            simulate_server(euclidean_scenario, transport=None)

    @pytest.mark.parametrize("transport", ["local", "tcp", "unix"])
    def test_the_run_leaves_its_sessions_open(self, road_scenario, transport):
        """No goodbye lands on the bill after the run is read out."""
        service = _service(road_scenario)
        run = simulate_server(road_scenario, service, transport=transport)
        assert service.session_count == road_scenario.query_count
        assert service.communication.as_dict() == run.communication.as_dict()

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_a_durable_run_recovers_with_its_sessions(
        self, tmp_path, euclidean_scenario, transport
    ):
        from repro.durability import open_durable_service, recover_service

        wal_dir = str(tmp_path / "state")
        scenario = euclidean_scenario
        service = open_durable_service(
            wal_dir, scenario.metric, scenario.objects, scenario.network
        )
        run = simulate_server(scenario, service, check_answers=True, transport=transport)
        service.close_wal()
        assert run.is_correct
        recovered = recover_service(wal_dir)
        try:
            assert recovered.epoch == run.epochs
            assert recovered.session_count == scenario.query_count
            assert recovered.communication.messages == run.communication.messages
        finally:
            recovered.close_wal()
