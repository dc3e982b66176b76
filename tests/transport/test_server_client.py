"""Behavioural tests for KNNServer / RemoteService over real sockets."""

import socket
import threading

import pytest

from repro.errors import ConfigurationError, QueryError, RequestTimeout, TransportError
from repro.geometry.point import Point
from repro.service import KNNService, UpdateBatch, open_service
from repro.service.session import Session
from repro.transport import KNNServer, RemoteSession, connect, parse_endpoint
from repro.queries.messages import OpenQuery
from repro.transport.codec import OpenSession, RefreshRequest, SessionOpened, encode
from repro.transport.stream import MessageStream
from repro.workloads.datasets import uniform_points


@pytest.fixture
def service():
    return open_service(metric="euclidean", objects=uniform_points(80, seed=5))


@pytest.fixture
def server(service):
    with KNNServer(service) as running:
        yield running


class TestEndpoints:
    def test_parse_host_port(self):
        assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_parse_unix_prefix_and_bare_path(self):
        assert parse_endpoint("unix:/tmp/x.sock") == "/tmp/x.sock"
        assert parse_endpoint("/tmp/x.sock") == "/tmp/x.sock"

    def test_parse_rejects_garbage(self):
        with pytest.raises(TransportError):
            parse_endpoint("unix:")
        with pytest.raises(TransportError):
            parse_endpoint("127.0.0.1:notaport")

    def test_connect_refuses_without_address(self):
        with pytest.raises(TransportError):
            connect()

    def test_address_requires_started_server(self, service):
        with pytest.raises(TransportError):
            KNNServer(service).address


class TestUnixDomain:
    def test_full_exchange_over_unix_socket(self, service, tmp_path):
        path = str(tmp_path / "insq.sock")
        with KNNServer(service, path=path) as server:
            assert server.address == path
            with connect(server.address) as remote:
                with remote.open_session(Point(100, 100), k=4) as session:
                    response = session.update(Point(150, 150))
                    assert len(response.knn) == 4

    def test_unix_socket_path_is_cleaned_up_and_restartable(self, service, tmp_path):
        import os

        path = str(tmp_path / "insq.sock")
        with KNNServer(service, path=path):
            assert os.path.exists(path)
        assert not os.path.exists(path), "stop() must unlink the socket file"
        # Restarting on the same path works, even over a stale socket file
        # left by a crashed server (simulated by recreating one).
        import socket as socket_module

        stale = socket_module.socket(socket_module.AF_UNIX)
        stale.bind(path)
        stale.close()
        with KNNServer(service, path=path) as second:
            with connect(second.address) as remote:
                assert remote.active_object_indexes()

    def test_unix_socket_refuses_to_clobber_a_regular_file(self, service, tmp_path):
        path = tmp_path / "not-a-socket"
        path.write_text("precious data")
        with pytest.raises(TransportError, match="cannot bind"):
            KNNServer(service, path=str(path)).start()
        assert path.read_text() == "precious data"


class TestAcceptedSockets:
    def accepted(self, server, remote):
        remote.active_object_indexes()  # a round trip: the connection is being served
        (stream,) = server._streams
        return stream._socket

    def test_tcp_connections_are_accepted_with_nagle_off(self, server):
        """A pipelining client sends small frames back to back; with Nagle on
        at the server each reply waits for the previous one's delayed ACK."""
        with connect(server.address) as remote:
            accepted = self.accepted(server, remote)
            assert accepted.family == socket.AF_INET
            assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_unix_domain_connections_are_left_alone(self, service, tmp_path):
        with KNNServer(service, path=str(tmp_path / "insq.sock")) as server:
            with connect(server.address) as remote:
                assert self.accepted(server, remote).family == socket.AF_UNIX


class ScriptedSocket:
    """A socket that replays scripted reads and counts ``settimeout`` calls;
    a ``None`` in the script is a read that times out."""

    def __init__(self, *reads):
        self.reads, self.timeout, self.settimeout_calls = list(reads), None, []

    def gettimeout(self):
        return self.timeout

    def settimeout(self, value):
        self.settimeout_calls.append(value)
        self.timeout = value

    def recv(self, size):
        chunk = self.reads.pop(0)
        if chunk is None:
            raise socket.timeout("timed out")
        return chunk


class TestReceiveTimeout:
    def test_the_socket_is_re_armed_only_when_the_timeout_changes(self):
        frame = encode(RefreshRequest(query_id=4))
        scripted = ScriptedSocket(*[frame] * 6)
        stream = MessageStream(scripted)
        for _ in range(3):
            assert stream.receive(timeout=2.0) == (RefreshRequest(query_id=4), len(frame))
        assert scripted.settimeout_calls == [2.0]
        stream.receive(timeout=0.5)
        stream.receive(timeout=0.5)
        assert scripted.settimeout_calls == [2.0, 0.5]
        stream.receive()  # back to blocking: the socket must hear about it
        assert scripted.settimeout_calls == [2.0, 0.5, None]

    def test_a_blocking_stream_never_touches_the_timeout(self):
        frame = encode(SessionOpened(query_id=1))
        scripted = ScriptedSocket(frame, frame)
        stream = MessageStream(scripted)
        stream.receive()
        stream.receive(timeout=None)
        assert scripted.settimeout_calls == []

    def test_expiry_keeps_the_partial_frame_for_the_next_receive(self):
        frame = encode(RefreshRequest(query_id=9))
        scripted = ScriptedSocket(frame[:6], None, frame[6:])
        stream = MessageStream(scripted)
        with pytest.raises(RequestTimeout):
            stream.receive(timeout=0.25)
        assert stream.receive(timeout=0.25) == (RefreshRequest(query_id=9), len(frame))
        assert scripted.settimeout_calls == [0.25]


class TestRemoteSessions:
    def test_remote_session_is_a_session(self, server):
        with connect(server.address) as remote:
            session = remote.open_session(Point(10, 10), k=3)
            assert isinstance(session, Session)
            assert isinstance(session, RemoteSession)
            assert session.k == 3 and session.rho == 1.6
            session.close()
            assert session.closed

    def test_update_refresh_and_last_response(self, server):
        with connect(server.address) as remote:
            with remote.open_session(Point(10, 10), k=3) as session:
                first = session.update(Point(40, 40))
                assert session.last_response is first
                refreshed = session.refresh()
                assert refreshed.knn == first.knn
                assert refreshed.round_trips == 0  # held answer still valid

    def test_closed_session_refuses_updates(self, server):
        with connect(server.address) as remote:
            session = remote.open_session(Point(10, 10), k=3)
            session.close()
            with pytest.raises(QueryError):
                session.update(Point(20, 20))

    def test_engine_errors_cross_the_wire_typed(self, server):
        with connect(server.address) as remote:
            with pytest.raises(ConfigurationError, match="k=10000"):
                remote.open_session(Point(0, 0), k=10_000)
            # The connection survives a typed error and keeps serving.
            with remote.open_session(Point(0, 0), k=2) as session:
                assert len(session.update(Point(5, 5)).knn) == 2

    def test_stale_query_id_raises_query_error_like_in_process(self, server):
        """A bad session id is a query problem, not a wire problem."""
        with connect(server.address) as remote:
            remote.open_session(Point(0, 0), k=2)
            with pytest.raises(QueryError, match="not a session"):
                remote._deliver(999, Point(1, 1))
            # ...and the connection (and its other sessions) keep working.
            assert remote.sessions()[0].update(Point(2, 2)).knn

    def test_failed_open_still_reconciles_byte_accounting(self, service, server):
        """A refused registration bills nothing on either side (the client
        books it as meta), so engine bytes keep matching the client's
        measurement even on error paths."""
        with connect(server.address) as remote:
            with pytest.raises(ConfigurationError):
                remote.open_session(Point(0, 0), k=10_000)
            with remote.open_session(Point(0, 0), k=3) as session:
                session.update(Point(7, 7))
                comm = service.communication
                assert comm.uplink_bytes == remote.bytes_sent
                assert comm.downlink_bytes == remote.bytes_received

    @pytest.mark.parametrize(
        "frame",
        [
            OpenSession(position=Point(5_000, 5_000), k=3, rho=1.6, options=(("foo", "1"),)),
            OpenQuery(
                kind="influential", position=Point(5_000, 5_000), k=3, options=(("foo", "1"),)
            ),
        ],
        ids=["session", "query"],
    )
    def test_an_open_carrying_options_is_refused_typed(self, service, server, frame):
        """The frames keep an ``options`` field (the wire is frozen) but the
        engine takes none: a non-empty one is refused with a typed error,
        unbilled like any refused registration, and the connection — with
        the session it already serves — goes on serving."""
        with connect(server.address) as remote:
            with remote.open_session(Point(10, 10), k=3) as earlier:
                with pytest.raises(ConfigurationError, match="foo"):
                    remote._request(frame, SessionOpened)
                assert len(earlier.update(Point(40, 40)).knn) == 3
                with remote.open_session(Point(5_000, 5_000), k=3) as later:
                    assert len(later.update(Point(5_050, 5_050)).knn) == 3
                comm = service.communication
                assert comm.uplink_bytes == remote.bytes_sent
                assert comm.downlink_bytes == remote.bytes_received

    def test_remote_stats_property_is_explicitly_unavailable(self, server):
        with connect(server.address) as remote:
            with remote.open_session(Point(10, 10), k=3) as session:
                with pytest.raises(QueryError, match="live on the server"):
                    session.stats

    def test_remote_session_communication_snapshot(self, server):
        with connect(server.address) as remote:
            with remote.open_session(Point(10, 10), k=3) as session:
                session.update(Point(400, 400))
                comm = session.communication
                assert comm.messages >= 2
                assert comm.uplink_bytes > 0 and comm.downlink_bytes > 0


class TestServerSideAccounting:
    def test_identical_message_counters_to_in_process_run(self, server):
        """The wire adds bytes, never messages or objects."""
        reference = open_service(metric="euclidean", objects=uniform_points(80, seed=5))
        with reference.open_session(Point(10, 10), k=3) as local:
            local.update(Point(300, 300))
            local.update(Point(500, 500))
            local_comm = local.communication.snapshot()
        with connect(server.address) as remote:
            with remote.open_session(Point(10, 10), k=3) as session:
                session.update(Point(300, 300))
                session.update(Point(500, 500))
                remote_comm = session.communication
        for field in (
            "uplink_messages",
            "uplink_objects",
            "downlink_messages",
            "downlink_objects",
        ):
            assert getattr(local_comm, field) == getattr(remote_comm, field), field
        assert local_comm.bytes_transmitted == 0
        assert remote_comm.bytes_transmitted > 0

    def test_client_measured_bytes_match_engine_and_prediction(self, service, server):
        with connect(server.address) as remote:
            session = remote.open_session(Point(10, 10), k=3)
            session.update(Point(444, 444))
            remote.apply(UpdateBatch(inserts=(Point(1.0, 1.0),)))
            session.close()
            # Codec prediction is exact for everything the client sent/read.
            assert remote.bytes_sent == remote.predicted_bytes_sent
            assert remote.bytes_received == remote.predicted_bytes_received
            # And the engine billed exactly the billable (non-meta) bytes.
            comm = service.communication
            assert comm.uplink_bytes == remote.bytes_sent
            assert comm.downlink_bytes == remote.bytes_received
            # Meta frames are measured separately and unbilled.
            remote.communication()
            assert remote.meta_bytes_sent > 0 and remote.meta_bytes_received > 0
            assert service.communication.uplink_bytes == comm.uplink_bytes

    def test_a_refused_request_bills_no_other_connections_session(self, service, server):
        """Connection B naming A's session is refused; the exchange is billed
        nowhere, so A's record does not pay for it and the aggregate still
        equals what both clients booked as billed."""
        with connect(server.address) as owner, connect(server.address) as other:
            session = owner.open_session(Point(10, 10), k=3)
            before = service.engine.communication_for(session.query_id).snapshot()
            intruder = other.attach_session(session.query_id, k=3)
            with pytest.raises(QueryError, match="not a session"):
                intruder.update(Point(20, 20))
            with pytest.raises(QueryError, match="not a session"):
                intruder.refresh()
            with pytest.raises(QueryError, match="not a session"):
                intruder.close()
            assert service.engine.communication_for(session.query_id) == before
            comm = service.communication
            assert comm.uplink_bytes == owner.bytes_sent + other.bytes_sent
            assert comm.downlink_bytes == owner.bytes_received + other.bytes_received
            assert len(session.update(Point(30, 30)).knn) == 3

    def test_update_batch_applies_as_one_epoch(self, service, server):
        epoch_before = service.epoch
        with connect(server.address) as remote:
            ack = remote.apply(
                UpdateBatch(inserts=(Point(2.0, 2.0), Point(3.0, 3.0)), deletes=(0,))
            )
            assert ack.epoch == epoch_before + 1
            assert len(ack.new_indexes) == 2
            assert ack.deleted_indexes == (0,)
            assert service.epoch == ack.epoch
            assert remote.active_object_indexes() == tuple(
                service.active_object_indexes()
            )


class TestConnectionLifecycle:
    def test_disconnect_reaps_abandoned_sessions(self, service, server):
        remote = connect(server.address)
        remote.open_session(Point(10, 10), k=3)
        assert service.session_count == 1
        remote._stream.close()  # vanish without saying goodbye
        deadline = threading.Event()
        for _ in range(100):
            if service.session_count == 0:
                break
            deadline.wait(0.05)
        assert service.session_count == 0

    def test_remote_close_is_idempotent_and_closes_sessions(self, service, server):
        remote = connect(server.address)
        session = remote.open_session(Point(10, 10), k=3)
        remote.close()
        remote.close()
        assert session.closed
        assert remote.closed
        with pytest.raises(TransportError):
            remote.apply(UpdateBatch())

    def test_multiple_clients_share_one_engine(self, service, server):
        with connect(server.address) as first, connect(server.address) as second:
            a = first.open_session(Point(10, 10), k=3)
            b = second.open_session(Point(20, 20), k=3)
            assert service.session_count == 2
            assert a.query_id != b.query_id
            assert len(a.update(Point(30, 30)).knn) == 3
            assert len(b.update(Point(40, 40)).knn) == 3

    def test_server_stop_then_restart_cycle(self, service):
        server = KNNServer(service).start()
        address = server.address
        with pytest.raises(TransportError):
            server.start()  # already running
        server.stop()
        server.stop()  # idempotent
        second = KNNServer(service).start()
        try:
            with connect(second.address) as remote:
                assert remote.active_object_indexes()
        finally:
            second.stop()

    def test_road_metric_over_the_wire(self, tmp_path):
        from repro.roadnet.generators import grid_network, place_objects
        from repro.roadnet.location import NetworkLocation

        network = grid_network(6, 6, spacing=50.0)
        objects = place_objects(network, 15, seed=9)
        service = open_service(metric="road", network=network, objects=objects)
        with KNNServer(service) as server:
            with connect(server.address) as remote:
                start = NetworkLocation.at_vertex(network, 0)
                with remote.open_session(start, k=3) as session:
                    response = session.update(NetworkLocation.at_vertex(network, 7))
                    assert len(response.knn) == 3
