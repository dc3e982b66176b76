"""The restart-and-replay oracle: recovery is bit-identical, always.

A service killed at an arbitrary (seeded) step and recovered from its
snapshot + WAL suffix must continue with bit-identical kNN answers *and*
identical communication counters to a twin that never crashed — for both
metrics, both invalidation modes, and over the real socket server.
"""

import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from durability_drivers import (
    ScenarioDriver,
    build_scenario,
    counters_of,
    reference_run,
)
from repro.durability import (
    DurableKNNService,
    has_durable_state,
    inventory,
    recover_service,
)
from repro.errors import DurabilityError, SnapshotError
from repro.geometry.point import Point
from repro.service import open_service


class TestRestartAndReplayOracle:
    @pytest.mark.parametrize("metric", ["euclidean", "road"])
    @pytest.mark.parametrize("invalidation", ["delta", "flag"])
    @pytest.mark.parametrize("crash_step", [2, 6])
    def test_recovered_run_is_bit_identical(
        self, tmp_path, metric, invalidation, crash_step
    ):
        reference_driver, reference_service = reference_run(metric, invalidation)

        scenario = build_scenario(metric)
        wal_dir = str(tmp_path / "state")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network, invalidation).engine,
            wal_dir
        )
        driver = ScenarioDriver(scenario)
        driver.open_sessions(service)
        driver.run(service, 1, crash_step)

        # Crash: nothing is closed gracefully — the sessions stay open in
        # the log, like a SIGKILLed server.  Only the file handle goes.
        service.close_wal()
        del service

        recovered = recover_service(wal_dir)
        driver.rebind(recovered)
        driver.run(recovered, crash_step, scenario.timestamps)

        assert driver.answers == reference_driver.answers
        assert driver.counts == reference_driver.counts
        assert counters_of(recovered) == counters_of(reference_service)
        assert recovered.epoch == reference_service.epoch
        assert recovered.object_count == reference_service.object_count

    @pytest.mark.parametrize("metric", ["euclidean", "road"])
    @pytest.mark.parametrize("invalidation", ["delta", "flag"])
    def test_crash_between_a_batch_and_its_step_is_bit_identical(
        self, tmp_path, metric, invalidation
    ):
        """The batch is logged and applied, no session has moved yet: the
        recovered service holds the new epoch and serves the step as if
        nothing happened."""
        reference_driver, reference_service = reference_run(metric, invalidation)

        scenario = build_scenario(metric)
        driver = ScenarioDriver(scenario)
        crash_step = next(
            step
            for step in range(2, scenario.timestamps)
            if driver.stream[step] is not None
        )
        wal_dir = str(tmp_path / "state")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network, invalidation).engine,
            wal_dir
        )
        driver.open_sessions(service)
        driver.run(service, 1, crash_step)
        driver.apply_batch(service, crash_step)
        epoch = service.epoch

        service.close_wal()
        del service

        recovered = recover_service(wal_dir)
        assert recovered.epoch == epoch
        driver.rebind(recovered)
        driver.advance(recovered, crash_step)
        driver.run(recovered, crash_step + 1, scenario.timestamps)

        assert driver.answers == reference_driver.answers
        assert driver.counts == reference_driver.counts
        assert counters_of(recovered) == counters_of(reference_service)
        assert recovered.epoch == reference_service.epoch
        assert recovered.object_count == reference_service.object_count

    def test_cold_rebuild_from_initial_snapshot_matches(self, tmp_path):
        """Full-log replay from the seq-0 snapshot lands in the same state."""
        reference_driver, reference_service = reference_run("euclidean", "delta")

        scenario = build_scenario("euclidean")
        wal_dir = str(tmp_path / "state")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network, "delta").engine,
            wal_dir,
            snapshot_every=20,  # several checkpoints land mid-run
        )
        driver = ScenarioDriver(scenario)
        driver.open_sessions(service)
        driver.run(service, 1, scenario.timestamps)
        service.close_wal()

        cold = recover_service(wal_dir, use_latest_snapshot=False)
        assert counters_of(cold) == counters_of(reference_service)
        warm = recover_service(wal_dir)
        assert counters_of(warm) == counters_of(reference_service)
        assert {s.query_id for s in cold.sessions()} == {
            s.query_id for s in warm.sessions()
        }

    @pytest.mark.parametrize("metric", ["euclidean", "road"])
    def test_warm_recovery_replays_a_suffix_only(self, tmp_path, metric):
        """Checkpoints shorten the log that warm recovery replays, and the
        suffix alone lands in the uncrashed twin's state."""
        reference_driver, reference_service = reference_run(metric, "delta")

        scenario = build_scenario(metric)
        wal_dir = str(tmp_path / "state")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network, "delta").engine,
            wal_dir,
            snapshot_every=20,
        )
        driver = ScenarioDriver(scenario)
        driver.open_sessions(service)
        driver.run(service, 1, scenario.timestamps)
        service.close_wal()

        report = inventory(wal_dir)
        assert report["healthy"]
        assert len(report["snapshots"]) >= 2  # the seq-0 one and a checkpoint
        assert 0 < report["replay_records"] < report["wal"]["records"]
        warm = recover_service(wal_dir)
        assert counters_of(warm) == counters_of(reference_service)
        assert warm.epoch == reference_service.epoch
        assert warm.object_count == reference_service.object_count

    def test_recovery_mid_epoch_between_sessions(self, tmp_path):
        """Crashing between two sessions' updates of the same step is fine:
        each logged update replays, each unlogged one never happened."""
        scenario = build_scenario("euclidean")
        wal_dir = str(tmp_path / "state")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network, "delta").engine,
            wal_dir
        )
        driver = ScenarioDriver(scenario)
        driver.open_sessions(service)
        # Advance only the first two sessions of step 1 by hand.
        partial = [
            session.update(trajectory[1])
            for session, trajectory in list(
                zip(driver.sessions, scenario.trajectories)
            )[:2]
        ]
        service.close_wal()
        recovered = recover_service(wal_dir)
        by_id = {s.query_id: s for s in recovered.sessions()}
        assert set(by_id) == {s.query_id for s in driver.sessions}
        # Re-delivering an already-applied position is a 0-cost echo.
        for session, trajectory, earlier in zip(
            driver.sessions, scenario.trajectories, partial
        ):
            again = by_id[session.query_id].update(trajectory[1])
            assert again.knn == earlier.knn
            assert again.round_trips == 0


class TestDurableServiceGuards:
    def test_refuses_a_populated_directory(self, tmp_path):
        wal_dir = str(tmp_path / "state")
        scenario = build_scenario("euclidean")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network).engine, wal_dir
        )
        service.close_wal()
        assert has_durable_state(wal_dir)
        with pytest.raises(DurabilityError):
            DurableKNNService(
                open_service(scenario.metric, scenario.objects, scenario.network).engine, wal_dir
            )

    def test_refuses_an_engine_with_queries(self, tmp_path):
        from repro.service import KNNService

        scenario = build_scenario("euclidean")
        engine = open_service(scenario.metric, scenario.objects, scenario.network).engine
        plain = KNNService(engine)
        plain.open_session(scenario.trajectories[0][0], k=3)
        with pytest.raises(DurabilityError):
            DurableKNNService(engine, str(tmp_path / "state"))

    @pytest.mark.parametrize("option", [("validation_mode", "exact"), ("foo", "1")])
    def test_replaying_an_open_that_carries_options_is_a_typed_error(self, tmp_path, option):
        """Open frames keep an ``options`` field, and older road logs filled
        it with ``validation_mode``.  The engine takes no options, so replay
        refuses such a record by name instead of crashing in the engine."""
        from repro.transport.codec import OpenSession, SessionOpened

        wal_dir = str(tmp_path / "state")
        scenario = build_scenario("road")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network).engine, wal_dir
        )
        start = scenario.trajectories[0][0]
        service.wal.append(OpenSession(position=start, k=3, rho=1.6, options=(option,)))
        service.wal.append(SessionOpened(query_id=0))
        service.close_wal()
        with pytest.raises(DurabilityError, match=option[0]):
            recover_service(wal_dir)

    def test_recovering_an_empty_directory_is_a_typed_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            recover_service(str(tmp_path / "nothing-here"))

    def test_inventory_reports_health(self, tmp_path):
        wal_dir = str(tmp_path / "state")
        scenario = build_scenario("euclidean")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network).engine, wal_dir
        )
        driver = ScenarioDriver(scenario)
        driver.open_sessions(service)
        driver.run(service, 1, 4)
        service.close_wal()
        report = inventory(wal_dir)
        assert report["healthy"]
        assert report["latest_valid_snapshot_seq"] == 0
        assert report["replay_records"] == report["wal"]["records"] > 0


SERVER_SCRIPT = """
import sys
from repro.durability import DurableKNNService, has_durable_state, recover_service
from repro.service import KNNService
from repro.transport import KNNServer
from repro.workloads.datasets import uniform_points
from repro.core.server import MovingKNNServer

wal_dir, port = sys.argv[1], int(sys.argv[2])
if has_durable_state(wal_dir):
    service = recover_service(wal_dir, wire_billing=True)
else:
    engine = MovingKNNServer(uniform_points(80, extent=1000.0, seed=5))
    service = DurableKNNService(engine, wal_dir, wire_billing=True)
server = KNNServer(service, port=port, adopt_sessions=True).start()
print("READY", flush=True)
import time
time.sleep(60)
"""


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _spawn_server(wal_dir, port):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [env.get("PYTHONPATH"), os.path.join(os.getcwd(), "src")])
    )
    process = subprocess.Popen(
        [sys.executable, "-c", SERVER_SCRIPT, wal_dir, str(port)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = process.stdout.readline()
    if "READY" not in line:
        rest = process.stdout.read()
        process.kill()
        raise AssertionError(f"server failed to start: {line}{rest}")
    return process


class TestSocketServerCrashRestart:
    def test_sigkill_restart_reattach(self, tmp_path):
        """The full outage drill over TCP: crash, recover, re-attach."""
        from repro.transport import connect

        wal_dir = str(tmp_path / "state")
        port = _free_port()
        server = _spawn_server(wal_dir, port)
        positions = [Point(100.0 + 40.0 * step, 500.0) for step in range(8)]
        try:
            remote = connect(f"127.0.0.1:{port}")
            session = remote.open_session(positions[0], k=4)
            query_id = session.query_id
            before = [session.update(position) for position in positions[1:4]]

            os.kill(server.pid, signal.SIGKILL)
            server.wait()
            try:
                remote.close()
            except Exception:
                pass

            report = inventory(wal_dir)
            assert report["healthy"]

            server = _spawn_server(wal_dir, port)
            remote = connect(f"127.0.0.1:{port}")
            # A probe that connects and disconnects first must not destroy
            # the orphaned session (the health-check-eats-the-state bug).
            socket.create_connection(("127.0.0.1", port), timeout=2.0).close()
            time.sleep(0.05)
            session = remote.attach_session(query_id, k=4)
            after = [session.update(position) for position in positions[4:]]

            # The continuation equals a never-crashed in-process run.
            from repro.core.server import MovingKNNServer
            from repro.service import KNNService
            from repro.workloads.datasets import uniform_points

            twin = KNNService(
                MovingKNNServer(uniform_points(80, extent=1000.0, seed=5))
            )
            twin_session = twin.open_session(positions[0], k=4)
            expected = [twin_session.update(position) for position in positions[1:]]
            answers = [
                (response.knn, response.knn_distances)
                for response in before + after
            ]
            assert answers == [
                (response.knn, response.knn_distances) for response in expected
            ]
            remote.close()
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    def test_duplicate_attach_is_refused(self, tmp_path):
        from repro.errors import QueryError
        from repro.transport import connect

        wal_dir = str(tmp_path / "state")
        port = _free_port()
        server = _spawn_server(wal_dir, port)
        try:
            remote = connect(f"127.0.0.1:{port}")
            session = remote.open_session(Point(10.0, 10.0), k=3)
            with pytest.raises(QueryError):
                remote.attach_session(session.query_id, k=3)
            remote.close()
        finally:
            server.kill()
            server.wait()
