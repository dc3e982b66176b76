"""The ``MetricsRequest``/``MetricsSnapshot`` wire frames and endpoints.

Hypothesis drives the codec contracts (round trip, exact ``wire_size``,
robustness to truncation); the endpoint tests check that a live service's
scrape frame carries gauges that reconcile *exactly* with the
communication bill the server itself prints, that scraping is meta
(never billed) and idempotent (safe to retry), and that the standalone
:class:`~repro.transport.server.MetricsListener` answers scrapes — and
only scrapes — over the binary protocol.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TransportError
from repro.geometry.primitives import Point
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import BUCKET_COUNT
from repro.service import open_service
from repro.transport.client import _IDEMPOTENT_TYPES, _META_TYPES, connect
from repro.transport.codec import (
    ErrorMessage,
    MetricsRequest,
    MetricsSnapshot,
    StatsRequest,
    decode,
    encode,
    wire_size,
)
from repro.transport.server import KNNServer, MetricsListener, metrics_snapshot_frame

label_pairs = st.lists(
    st.tuples(
        st.text(alphabet="abcdefghijk_", min_size=1, max_size=8),
        st.text(alphabet="abcdefghijk0123456789_", min_size=1, max_size=8),
    ),
    max_size=3,
    unique_by=lambda pair: pair[0],
)
labels = label_pairs.map(
    lambda pairs: ",".join(f"{k}={v}" for k, v in sorted(pairs))
)
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=24)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
sums = st.floats(allow_nan=False, allow_infinity=False, width=64)

snapshots = st.builds(
    MetricsSnapshot,
    counters=st.lists(st.tuples(names, labels, u64), max_size=6).map(tuple),
    gauges=st.lists(st.tuples(names, labels, sums), max_size=6).map(tuple),
    # What a registry can emit and the decoder accepts: one histogram per
    # (name, labels) key, each over the shared BUCKET_COUNT bounds.
    histograms=st.lists(
        st.tuples(
            names,
            labels,
            st.lists(u64, min_size=BUCKET_COUNT, max_size=BUCKET_COUNT).map(tuple),
            sums,
        ),
        max_size=4,
        unique_by=lambda histogram: histogram[:2],
    ).map(tuple),
)


class TestMetricsFrameCodec:
    @settings(max_examples=150, deadline=None)
    @given(message=snapshots)
    def test_snapshot_round_trip(self, message):
        assert decode(encode(message)) == message

    @settings(max_examples=150, deadline=None)
    @given(message=snapshots)
    def test_snapshot_wire_size_is_exact(self, message):
        assert wire_size(message) == len(encode(message))

    def test_request_round_trip_and_size(self):
        message = MetricsRequest()
        assert decode(encode(message)) == message
        assert wire_size(message) == len(encode(message))

    @settings(max_examples=40, deadline=None)
    @given(message=snapshots, cut=st.integers(min_value=1, max_value=64))
    def test_truncation_raises_transport_error(self, message, cut):
        encoded = encode(message)
        clipped = encoded[: max(0, len(encoded) - cut)]
        if not clipped:
            return
        with pytest.raises(TransportError):
            decode(clipped)

    def test_garbage_body_raises_transport_error(self):
        encoded = bytearray(encode(MetricsSnapshot(counters=(("a", "", 1),))))
        # Claim a million counters in a tiny frame.
        encoded[5:9] = (1_000_000).to_bytes(4, "big")
        with pytest.raises(TransportError):
            decode(bytes(encoded))

    def test_wrong_bucket_count_raises_transport_error(self):
        """A peer built with other bounds has buckets ours cannot read: refuse it."""
        for size in (0, BUCKET_COUNT - 1, BUCKET_COUNT + 1):
            frame = MetricsSnapshot(histograms=(("h", "", (1,) * size, 0.5),))
            with pytest.raises(TransportError, match="buckets"):
                decode(encode(frame))

    def test_duplicate_histogram_key_raises_transport_error(self):
        counts = (0,) * BUCKET_COUNT
        frame = MetricsSnapshot(
            histograms=(("h", "a=b", counts, 0.0), ("h", "a=b", counts, 1.0))
        )
        with pytest.raises(TransportError, match="duplicate"):
            decode(encode(frame))

    def test_scrape_frames_are_meta_and_idempotent(self):
        # Meta: a scrape must never perturb the communication bill it
        # reads.  Idempotent: the client may blindly resend it on timeout.
        assert MetricsRequest in _META_TYPES
        assert MetricsSnapshot in _META_TYPES
        assert MetricsRequest in _IDEMPOTENT_TYPES


@pytest.fixture
def euclidean_service():
    points = [
        Point(float(x) * 10.0, float(y) * 10.0) for x in range(6) for y in range(6)
    ]
    return open_service(metric="euclidean", objects=points)


class TestSnapshotFrame:
    def test_comm_gauges_reconcile_with_the_live_bill(self, euclidean_service):
        obs_metrics.enable()
        service = euclidean_service
        with service.open_session(Point(1.0, 2.0), k=3) as session:
            session.update(Point(3.0, 4.0))
            frame = metrics_snapshot_frame(service)
            comm = service.communication.snapshot()
            by_kind = {
                kind: stats.snapshot()
                for kind, stats in service.engine.communication_by_kind().items()
            }
        gauges = {
            (name, label): value for name, label, value in frame.gauges
        }
        assert gauges[("insq_comm_uplink_messages", "")] == comm.uplink_messages
        assert gauges[("insq_comm_downlink_objects", "")] == comm.downlink_objects
        assert gauges[("insq_engine_epoch", "")] == service.epoch
        assert gauges[("insq_sessions_open", "")] == 1.0
        for kind, stats in by_kind.items():
            assert (
                gauges[("insq_comm_uplink_messages", f"kind={kind}")]
                == stats.uplink_messages
            )

    def test_scraping_does_not_bill(self, euclidean_service):
        service = euclidean_service
        with KNNServer(service).start() as server:
            with connect(server.address) as remote:
                before = service.communication.snapshot()
                first = remote.metrics_snapshot()
                second = remote.metrics_snapshot()
                after = service.communication.snapshot()
        assert isinstance(first, MetricsSnapshot)
        assert isinstance(second, MetricsSnapshot)
        # Two scrapes crossed the wire, zero messages were billed.
        assert after.uplink_messages == before.uplink_messages
        assert after.downlink_messages == before.downlink_messages
        assert after.uplink_bytes == before.uplink_bytes


class TestMetricsListener:
    def test_listener_answers_scrapes(self, euclidean_service):
        provider = lambda: metrics_snapshot_frame(euclidean_service)
        with MetricsListener(provider) as listener:
            with connect(listener.address) as remote:
                snapshot = remote.metrics_snapshot()
        assert isinstance(snapshot, MetricsSnapshot)
        assert any(name == "insq_engine_epoch" for name, _, _ in snapshot.gauges)

    def test_listener_rejects_non_scrape_frames(self, euclidean_service):
        import socket

        from repro.transport.codec import FrameReader

        provider = lambda: metrics_snapshot_frame(euclidean_service)
        with MetricsListener(provider) as listener:
            with socket.create_connection(listener.address) as sock:
                sock.sendall(encode(StatsRequest()))
                reader = FrameReader()
                response = None
                while response is None:
                    chunk = sock.recv(65536)
                    assert chunk, "listener closed without replying"
                    for message, _ in reader.feed(chunk):
                        response = message
        assert isinstance(response, ErrorMessage)
