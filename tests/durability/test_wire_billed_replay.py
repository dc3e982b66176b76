"""Wire-billed recovery: the recovered bill equals the live one, bytes too.

A :class:`DurableKNNService` hosted behind :class:`KNNServer` with
``wire_billing=True`` bills each request's and reply's bytes into the
engine's counters.  Recovery runs each logged frame through the same
executor the server ran it through, so the recovered aggregate,
per-session and per-kind ``CommunicationStats`` must equal the live ones
field by field — for every billed frame, every query kind, and with
refused requests in the stream.

The crash is a copy of the durability directory taken while the server
still serves: the log is flushed on every append, so the copy is what a
process killed at that instant leaves behind.
"""

import shutil

import pytest

from repro.durability import DurableKNNService, recover_service
from repro.errors import ConfigurationError, QueryError
from repro.geometry.point import Point
from repro.service import UpdateBatch, open_service
from repro.transport import KNNServer, connect
from repro.workloads.datasets import uniform_points


def hosted_service(wal_dir):
    engine = open_service(metric="euclidean", objects=uniform_points(90, seed=23)).engine
    return DurableKNNService(engine, wal_dir, wire_billing=True)


def bills(engine):
    """Every bill the engine keeps, as plain dictionaries."""
    return {
        "aggregate": engine.communication.as_dict(),
        "per_session": {
            query_id: stats.as_dict()
            for query_id, stats in engine.per_query_communication().items()
        },
        "per_kind": {
            kind: stats.as_dict()
            for kind, stats in engine.communication_by_kind().items()
        },
    }


def crash_and_recover(service, wal_dir, tmp_path):
    """Copy the live directory (a crash at this instant) and recover it."""
    service.wal.sync()
    crashed = str(tmp_path / "crashed")
    shutil.copytree(wal_dir, crashed)
    return recover_service(crashed, wire_billing=True)


def canonical(response):
    result = response.result
    return (
        tuple(result.knn),
        tuple(result.knn_distances),
        response.epoch,
        getattr(response, "sites", None),
        getattr(response, "event", None),
        getattr(response, "departed", None),
    )


class TestRefusedRequests:
    def test_refused_requests_leave_the_recovered_bill_equal(self, tmp_path):
        """A refused open and a refused update of another connection's
        session, mid-run, bill nothing on either side, so the recovered
        bill equals the live one and the engine still equals the clients."""
        wal_dir = str(tmp_path / "state")
        service = hosted_service(wal_dir)
        with KNNServer(service) as server:
            with connect(server.address) as owner, connect(server.address) as other:
                session = owner.open_session(Point(100, 100), k=3)
                session.update(Point(200, 150))
                with pytest.raises(ConfigurationError):
                    owner.open_session(Point(300, 300), k=0)
                session.update(Point(250, 300))
                intruder = other.attach_session(session.query_id, k=3)
                with pytest.raises(QueryError, match="not a session"):
                    intruder.update(Point(400, 400))
                session.update(Point(500, 450))
                other.apply(UpdateBatch(inserts=(Point(510.0, 440.0),)))
                session.refresh()

                live = bills(service.engine)
                recovered = crash_and_recover(service, wal_dir, tmp_path)
                assert bills(recovered.engine) == live
                # The refused exchanges are booked as meta on the client.
                assert owner.meta_bytes_sent > 0 and owner.meta_bytes_received > 0
                assert other.meta_bytes_sent > 0 and other.meta_bytes_received > 0
                for remote in (owner, other):
                    assert remote.bytes_sent == remote.predicted_bytes_sent
                    assert remote.bytes_received == remote.predicted_bytes_received
                aggregate = live["aggregate"]
                assert aggregate["uplink_bytes"] == owner.bytes_sent + other.bytes_sent
                assert (
                    aggregate["downlink_bytes"]
                    == owner.bytes_received + other.bytes_received
                )
        recovered.close_wal()
        service.close_wal()


class TestEveryFrameAndKind:
    def test_every_billed_frame_and_kind_recovers_bill_and_answers(self, tmp_path):
        """knn, influential and region sessions; updates, refreshes, one
        UpdateBatch and one close, all over TCP and wire-billed: the
        recovered bills equal the live ones, and the answers stay equal."""
        wal_dir = str(tmp_path / "state")
        service = hosted_service(wal_dir)
        with KNNServer(service) as server:
            with connect(server.address) as remote:
                sessions = [
                    remote.open_query(Point(300, 300), kind="knn", k=4),
                    remote.open_query(Point(600, 200), kind="influential", k=3),
                    remote.open_query(Point(400, 700), kind="region", k=2),
                ]
                goodbye = remote.open_query(Point(800, 800), kind="knn", k=2)
                for step in range(1, 5):
                    for number, session in enumerate(sessions):
                        session.update(Point(300 + 40 * step, 200 + 90 * number))
                    goodbye.update(Point(800 - 30 * step, 800))
                    if step == 2:
                        remote.apply(
                            UpdateBatch(
                                inserts=(Point(350.0, 210.0), Point(620.0, 400.0)),
                                deletes=(5,),
                                moves=((7, Point(330.0, 290.0)),),
                            )
                        )
                for session in sessions:
                    session.refresh()
                goodbye.close()

                live = bills(service.engine)
                assert set(live["per_kind"]) == {"knn", "influential", "region"}
                assert set(live["per_session"]) == {s.query_id for s in sessions}
                recovered = crash_and_recover(service, wal_dir, tmp_path)
                assert bills(recovered.engine) == live
                assert recovered.epoch == service.epoch

                by_id = {session.query_id: session for session in recovered.sessions()}
                assert sorted(by_id) == sorted(s.query_id for s in sessions)
                for step in range(5, 8):
                    for number, session in enumerate(sessions):
                        position = Point(900 - 60 * step, 150 + 110 * number)
                        assert canonical(by_id[session.query_id].update(position)) == (
                            canonical(session.update(position))
                        )
        recovered.close_wal()
        service.close_wal()


class TestPeriodicCheckpoints:
    def test_a_periodic_checkpoint_covers_the_exchange_it_follows(self, tmp_path):
        """A due checkpoint is taken before the next logged request runs,
        once the server has billed every logged exchange's bytes: the
        recovered bill equals the live one."""
        wal_dir = str(tmp_path / "state")
        engine = open_service(metric="euclidean", objects=uniform_points(90, seed=23)).engine
        service = DurableKNNService(engine, wal_dir, wire_billing=True, snapshot_every=3)
        with KNNServer(service) as server:
            with connect(server.address) as client:
                session = client.open_session(Point(100, 100), k=3)
                for step in range(5):
                    session.update(Point(120 + 20 * step, 110))
                recovered = crash_and_recover(service, wal_dir, tmp_path)
                try:
                    assert bills(recovered.engine) == bills(service.engine)
                finally:
                    recovered.close_wal()
