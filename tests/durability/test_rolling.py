"""No-downtime drills: rolling restarts, group commit, segment rotation.

The acceptance bar of the rolling-restart work, from the test side:

* **Socket-server rolling restart** — :meth:`KNNServer.drain` parks every
  live session; a successor process recovers the directory, adopts them,
  and clients re-attach mid-stream with nothing lost.
* **Group-commit WAL** — ``fsync="group"`` gives ``"always"``-grade
  acknowledgement semantics (a reply is not sent until the record is on
  stable storage) while batching concurrent commits into shared fsyncs.
* **Segment rotation** — the log rotates into sealed segments under
  traffic, checkpoints reclaim them, and recovery replays the chain
  bit-identically.

Plus the sharp edges: orphan-claim races and retry-jitter determinism.
"""

import os
import random
import socket
import threading
import time

from repro.durability import (
    DurableKNNService,
    inventory,
    list_segments,
    recover_service,
)
from repro.durability.wal import WriteAheadLog, scan_chain
from repro.errors import QueryError
from repro.geometry.point import Point
from repro.service import KNNService, open_service
from repro.service.messages import PositionUpdate
from repro.transport import (
    KNNServer,
    MessageStream,
    RemoteService,
    connect,
)
from repro.transport.codec import (
    OpenSession,
    SessionOpened,
    StatsRequest,
    StatsResponse,
)
from repro.core.stats import CommunicationStats

from durability_drivers import (
    ScenarioDriver,
    build_scenario,
    counters_of,
)


# ----------------------------------------------------------------------
# Rolling restart of the socket server
# ----------------------------------------------------------------------
class TestServerDrainRestart:
    def _tcp_run(self, wal_dir, scenario, drain_at=None):
        """Drive the scenario over TCP; optionally drain+restart mid-way.

        Returns ``(answers, aggregate_dict, per_session_dicts)`` read
        through the final connection — recovery restores the counters, so
        a restarted run reports exactly what an uninterrupted one does.
        """
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network).engine,
            wal_dir,
            wire_billing=True
        )
        server = KNNServer(service).start()
        remote = connect(server.address)
        driver = ScenarioDriver(scenario)
        driver.open_sessions(remote)
        stop = scenario.timestamps
        try:
            if drain_at is None:
                driver.run(remote, 1, stop)
            else:
                driver.run(remote, 1, drain_at)
                session_specs = [
                    (session.query_id, session.k) for session in driver.sessions
                ]
                server.drain()
                # Zero sessions dropped: every live session is parked.
                assert sorted(server.orphans) == sorted(
                    query_id for query_id, _ in session_specs
                )
                try:
                    remote._stream.close()
                except Exception:
                    pass
                # The successor: recover the directory, adopt, re-attach.
                service = recover_service(wal_dir, wire_billing=True)
                server = KNNServer(service, adopt_sessions=True).start()
                remote = connect(server.address)
                driver.sessions = [
                    remote.attach_session(query_id, k=k)
                    for query_id, k in session_specs
                ]
                driver.run(remote, drain_at, stop)
            aggregate = remote.communication().as_dict()
            per_session = {
                query_id: stats.as_dict()
                for query_id, stats in remote.per_session_communication().items()
            }
        finally:
            try:
                remote.close()
            except Exception:
                pass
            server.stop()
            service.close_wal()
        return driver.answers, aggregate, per_session

    def test_mid_stream_drain_restart_is_invisible(self, tmp_path):
        """Drain the TCP server mid-run; the successor picks up the
        sessions and the completed run is bit-identical to one that never
        restarted — answers, aggregate bill and per-session bills."""
        scenario = build_scenario("euclidean")
        continuous = self._tcp_run(str(tmp_path / "ref"), scenario)
        rolled = self._tcp_run(
            str(tmp_path / "rolled"), scenario, drain_at=5
        )
        assert rolled[0] == continuous[0]
        assert rolled[1] == continuous[1]
        assert rolled[2] == continuous[2]

    def test_mid_stream_drain_restart_is_invisible_on_roads(self, tmp_path):
        """The same drill on the road metric: the successor recovers the
        network Voronoi diagram and serves on bit-identically."""
        scenario = build_scenario("road")
        continuous = self._tcp_run(str(tmp_path / "ref"), scenario)
        rolled = self._tcp_run(
            str(tmp_path / "rolled"), scenario, drain_at=4
        )
        assert rolled == continuous

    def test_client_drain_call_parks_every_session(self, tmp_path):
        """RemoteService.drain(): checkpointed ack, sessions parked."""
        service = DurableKNNService(
            open_service("euclidean", build_scenario("euclidean").objects).engine,
            str(tmp_path / "state"),
            wire_billing=True,
        )
        server = KNNServer(service).start()
        try:
            remote = connect(server.address)
            first = remote.open_session(Point(10.0, 10.0), k=3)
            second = remote.open_session(Point(90.0, 90.0), k=3)
            first.update(Point(12.0, 10.0))
            ack = remote.drain()
            assert ack.session_ids == (first.query_id, second.query_id)
            assert ack.wal_seq == service.wal.last_seq
            assert remote.closed
            # The connection parked both sessions instead of closing them.
            deadline = time.monotonic() + 5.0
            while (
                len(server.orphans) < 2 and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert sorted(server.orphans) == [
                first.query_id,
                second.query_id,
            ]
            assert len(service.sessions()) == 2
        finally:
            server.stop()
            service.close_wal()

    def test_drained_server_releases_a_recoverable_log(self, tmp_path):
        """KNNServer.drain() checkpoints: recovery needs no replay."""
        wal_dir = str(tmp_path / "state")
        service = DurableKNNService(
            open_service("euclidean", build_scenario("euclidean").objects).engine, wal_dir,
            wire_billing=True,
        )
        server = KNNServer(service).start()
        remote = connect(server.address)
        session = remote.open_session(Point(10.0, 10.0), k=3)
        answer = session.update(Point(30.0, 10.0))
        server.drain()
        assert server.draining
        report = inventory(wal_dir)
        assert report["healthy"]
        assert report["replay_records"] == 0  # checkpoint covered the log
        recovered = recover_service(wal_dir, wire_billing=True)
        adopted = {s.query_id: s for s in recovered.sessions()}
        assert list(adopted) == [session.query_id]
        # The recovered session is mid-stream: same position, same answer.
        response = adopted[session.query_id].update(Point(30.0, 10.0))
        assert response.result.knn == answer.result.knn
        recovered.close_wal()


# ----------------------------------------------------------------------
# Orphan pool: claim races
# ----------------------------------------------------------------------
class TestOrphanClaimRace:
    def test_exactly_one_connection_claims_a_parked_session(self, tmp_path):
        """Two connections race to adopt the same recovered session: the
        claim is atomic, so exactly one wins and the loser gets the typed
        unknown-session error (not a shared or duplicated session)."""
        service = DurableKNNService(
            open_service("euclidean", build_scenario("euclidean").objects).engine,
            str(tmp_path / "state"),
            wire_billing=True,
        )
        target = service.open_session(Point(50.0, 50.0), k=3)
        server = KNNServer(service, adopt_sessions=True).start()
        try:
            outcomes = []
            barrier = threading.Barrier(2)

            def racer():
                remote = connect(server.address)
                handle = remote.attach_session(target.query_id, k=3)
                barrier.wait()
                try:
                    handle.update(Point(55.0, 50.0))
                    outcomes.append("won")
                except QueryError:
                    outcomes.append("lost")
                finally:
                    try:
                        remote._stream.close()
                    except Exception:
                        pass

            threads = [threading.Thread(target=racer) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert sorted(outcomes) == ["lost", "won"]
        finally:
            server.stop()
            service.close_wal()


# ----------------------------------------------------------------------
# Group-commit WAL
# ----------------------------------------------------------------------
class TestGroupCommit:
    def test_group_matches_always_bit_for_bit(self, tmp_path):
        """Same scenario under fsync='always' and fsync='group': identical
        answers, counters and recovered state — only the fsync count may
        differ.  Group commit changes *when* the disk syncs, never what
        the service says."""
        scenario = build_scenario("euclidean")
        outcomes = {}
        for policy in ("always", "group"):
            wal_dir = str(tmp_path / policy)
            service = DurableKNNService(
                open_service(scenario.metric, scenario.objects, scenario.network).engine,
                wal_dir,
                fsync=policy
            )
            driver = ScenarioDriver(scenario)
            driver.open_sessions(service)
            driver.run(service, 1, scenario.timestamps)
            service.wal.wait_durable(service.wal.last_seq)
            fsyncs = service.wal.fsync_count
            appends = service.wal.append_count
            assert service.wal.synced_seq == service.wal.last_seq
            service.close_wal()
            recovered = recover_service(wal_dir, fsync=policy)
            outcomes[policy] = (
                driver.answers,
                counters_of(recovered),
                fsyncs,
                appends,
            )
            recovered.close_wal()
        always, group = outcomes["always"], outcomes["group"]
        assert group[0] == always[0]
        assert group[1] == always[1]
        assert group[3] == always[3]  # same appends...
        assert group[2] <= always[2]  # ...never more fsyncs

    def test_concurrent_appends_share_fsyncs(self, tmp_path):
        """The headline property: N writers committing concurrently under
        fsync='group' are acknowledged durably with far fewer fsyncs than
        one-per-append — and the log chain stays perfectly intact."""
        path = str(tmp_path / "wal.log")
        log = WriteAheadLog(path, fsync="group")
        writers, per_writer = 8, 25

        def hammer():
            for _ in range(per_writer):
                seq = log.append(PositionUpdate(query_id=1, position=Point(1.0, 2.0)))
                log.wait_durable(seq)

        threads = [threading.Thread(target=hammer) for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = writers * per_writer
        assert log.append_count == total
        assert log.synced_seq == log.last_seq  # every ack was durable
        assert log.fsync_count * 2 <= total  # >=2x fewer fsyncs than always
        log.close()
        scan = scan_chain(path)
        assert len(scan.records) == total

    def test_durability_token_only_exists_under_group(self, tmp_path):
        """The ack-barrier seam: a token (and a real barrier) only under
        fsync='group'; every other policy keeps its original reply path."""
        engine = open_service("euclidean", build_scenario("euclidean").objects).engine
        plain = KNNService(engine)
        assert plain.durability_token() is None
        plain.durability_barrier(None)  # no-op by contract
        for policy, expects_token in (
            ("group", True),
            ("batch", False),
            ("off", False),
        ):
            service = DurableKNNService(
                open_service("euclidean", build_scenario("euclidean").objects).engine,
                str(tmp_path / policy),
                fsync=policy,
            )
            token = service.durability_token()
            if expects_token:
                assert token == service.wal.last_seq
                service.durability_barrier(token)
                assert service.wal.synced_seq >= token
            else:
                assert token is None
                service.durability_barrier(token)
            service.close_wal()


# ----------------------------------------------------------------------
# Satellite: segment rotation + purge under live traffic
# ----------------------------------------------------------------------
class TestSegmentRotationUnderTraffic:
    def test_rotation_purge_and_recovery(self, tmp_path):
        """A rotating, checkpointing log under a full scenario: segments
        seal, checkpoints reclaim them, and the chain still recovers the
        exact final state."""
        scenario = build_scenario("euclidean")
        wal_dir = str(tmp_path / "state")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network).engine,
            wal_dir,
            snapshot_every=40,
            segment_bytes=512,
        )
        driver = ScenarioDriver(scenario)
        driver.open_sessions(service)
        driver.run(service, 1, scenario.timestamps)
        assert service.wal.rotations >= 1
        live_counters = counters_of(service)
        live_epoch = service.epoch
        # An explicit checkpoint purges every sealed segment it covers.
        service.checkpoint()
        assert list_segments(wal_dir) == []
        service.close_wal()
        report = inventory(wal_dir)
        assert report["healthy"]
        assert report["segments"]["count"] == 0
        recovered = recover_service(wal_dir)
        assert recovered.epoch == live_epoch
        assert counters_of(recovered) == live_counters
        recovered.close_wal()

    def test_recovery_replays_across_sealed_segments(self, tmp_path):
        """With checkpoints off, recovery walks snapshot + the whole
        segment chain — rotation must never change what replay sees."""
        scenario = build_scenario("euclidean")
        plain_dir = str(tmp_path / "plain")
        rotated_dir = str(tmp_path / "rotated")
        answers = {}
        for wal_dir, segment_bytes in (
            (plain_dir, None),
            (rotated_dir, 384),
        ):
            service = DurableKNNService(
                open_service(scenario.metric, scenario.objects, scenario.network).engine,
                wal_dir,
                segment_bytes=segment_bytes
            )
            driver = ScenarioDriver(scenario)
            driver.open_sessions(service)
            driver.run(service, 1, scenario.timestamps)
            service.close_wal()
            answers[wal_dir] = (driver.answers, counters_of(service))
        assert answers[rotated_dir] == answers[plain_dir]
        assert len(list_segments(rotated_dir)) >= 1  # it really rotated
        recovered = recover_service(rotated_dir)
        reference = recover_service(plain_dir)
        assert counters_of(recovered) == counters_of(reference)
        recovered.close_wal()
        reference.close_wal()


# ----------------------------------------------------------------------
# Satellite: deterministic retry jitter
# ----------------------------------------------------------------------
def _predict_backoffs(rng, count, base=0.05):
    """The sleep sequence the client's retry loop derives from ``rng``."""
    delays = []
    delay = base
    for _ in range(count):
        delays.append(delay + rng.uniform(0.0, delay))
        delay *= 2
    return delays


def _stub_remote(stats_delays, **kwargs):
    """A RemoteService against an in-test peer that answers stats slowly."""
    theirs, ours = socket.socketpair()

    def serve(sock, delays):
        stream = MessageStream(sock)
        pending = list(delays)
        try:
            while True:
                received = stream.receive()
                if received is None:
                    return
                message, _ = received
                if isinstance(message, OpenSession):
                    stream.send(SessionOpened(query_id=0))
                elif isinstance(message, StatsRequest):
                    delay = pending.pop(0) if pending else 0.0
                    if delay:
                        time.sleep(delay)
                    stream.send(
                        StatsResponse(
                            aggregate=CommunicationStats(), per_session=()
                        )
                    )
        except Exception:
            pass

    threading.Thread(target=serve, args=(ours, stats_delays), daemon=True).start()
    kwargs.setdefault("request_timeout", 0.2)
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff", 0.05)
    return RemoteService(MessageStream(theirs), endpoint="stub", **kwargs)


class TestRetryJitterDeterminism:
    def test_injected_rng_and_sleep_make_backoff_exact(self):
        """The backoff delays are a pure function of the injected RNG —
        recorded by a fake sleeper, predicted by an identical RNG."""
        recorded = []
        remote = _stub_remote(
            stats_delays=[0.45],
            retry_rng=random.Random(123),
            retry_sleep=recorded.append,
        )
        remote.communication()
        # How many attempts time out depends on wall-clock scheduling, but
        # every backoff must be the next draw of the injected RNG with the
        # delay doubling from the configured base.
        assert recorded == _predict_backoffs(random.Random(123), len(recorded))
        assert len(recorded) >= 1
        remote.close()

    def test_same_seed_same_delays(self):
        """Two clients with the same retry_seed back off identically."""
        sequences = []
        for _ in range(2):
            recorded = []
            remote = _stub_remote(
                stats_delays=[0.45],
                retries=3,
                retry_seed=9,
                retry_sleep=recorded.append,
            )
            remote.communication()
            sequences.append(tuple(recorded))
            remote.close()
            assert recorded == _predict_backoffs(random.Random(9), len(recorded))
            assert len(recorded) >= 1
        # Both runs sample prefixes of the same seeded sequence.
        shared = min(len(sequences[0]), len(sequences[1]))
        assert sequences[0][:shared] == sequences[1][:shared]
