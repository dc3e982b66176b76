"""Property-based tests for the binary wire codec (hypothesis).

The codec's three contracts, each tested over randomized messages:

* **round trip** — ``decode(encode(m)) == m`` for every message kind,
  both metrics' position/target shapes included;
* **exact size prediction** — ``len(encode(m)) == wire_size(m)``, the
  reconciliation contract the client's byte counters build on;
* **robust framing** — a :class:`FrameReader` fed arbitrary split points
  reproduces the message stream exactly (partial and concatenated frames),
  and malformed input raises the typed
  :class:`~repro.errors.TransportError`, never a bare ``struct.error``.
"""

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError, ReproError, TransportError
from repro.core.objects import QueryResult, UpdateAction
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.geometry.point import Point
from repro.obs.metrics import BUCKET_COUNT
from repro.roadnet.location import NetworkLocation
from repro.queries.influential import InfluentialResult
from repro.queries.messages import InfluentialResponse, OpenQuery, RegionEvent
from repro.queries.region import RegionResult
from repro.service.messages import KNNResponse, PositionUpdate, UpdateBatch
from repro.transport.codec import (
    AggregateStatsRequest,
    AggregateStatsResponse,
    BatchApplied,
    CloseSession,
    DrainAck,
    DrainRequest,
    ErrorMessage,
    FrameReader,
    LENGTH_PREFIX_BYTES,
    MetricsSnapshot,
    ObjectsRequest,
    ObjectsResponse,
    OpenSession,
    RefreshRequest,
    SessionClosed,
    SessionOpened,
    StatsRequest,
    StatsResponse,
    decode,
    encode,
    wire_size,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
coordinates = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coordinates, coordinates)
road_locations = st.builds(
    NetworkLocation,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
positions = st.one_of(points, road_locations)
object_indexes = st.integers(min_value=0, max_value=2**32 - 1)
targets = st.one_of(points, object_indexes)

query_results = st.builds(
    QueryResult,
    timestamp=st.integers(min_value=0, max_value=2**31 - 1),
    knn=st.lists(object_indexes, max_size=16).map(tuple),
    knn_distances=st.lists(
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False), max_size=16
    ).map(tuple),
    guard_objects=st.frozensets(object_indexes, max_size=24),
    action=st.sampled_from(list(UpdateAction)),
    was_valid=st.booleans(),
).map(
    # knn and knn_distances must have equal length to round-trip (the
    # wire ships one count for both, like every real QueryResult).
    lambda r: QueryResult(
        timestamp=r.timestamp,
        knn=r.knn[: min(len(r.knn), len(r.knn_distances))],
        knn_distances=r.knn_distances[: min(len(r.knn), len(r.knn_distances))],
        guard_objects=r.guard_objects,
        action=r.action,
        was_valid=r.was_valid,
    )
)

knn_responses = st.builds(
    KNNResponse,
    query_id=st.integers(min_value=0, max_value=2**31 - 1),
    result=query_results,
    objects_shipped=st.integers(min_value=0, max_value=2**32 - 1),
    round_trips=st.integers(min_value=0, max_value=2**32 - 1),
    epoch=st.integers(min_value=0, max_value=2**32 - 1),
)

influential_results = st.tuples(
    query_results, st.lists(object_indexes, max_size=12).map(tuple)
).map(
    lambda pair: InfluentialResult(
        timestamp=pair[0].timestamp,
        knn=pair[0].knn,
        knn_distances=pair[0].knn_distances,
        guard_objects=pair[0].guard_objects,
        action=pair[0].action,
        was_valid=pair[0].was_valid,
        sites=pair[1],
    )
)

region_results = st.tuples(
    query_results,
    st.sampled_from(["stay", "enter"]),
    st.lists(object_indexes, max_size=12).map(tuple),
).map(
    lambda triple: RegionResult(
        timestamp=triple[0].timestamp,
        knn=triple[0].knn,
        knn_distances=triple[0].knn_distances,
        guard_objects=triple[0].guard_objects,
        action=triple[0].action,
        was_valid=triple[0].was_valid,
        event=triple[1],
        departed=triple[2],
    )
)

influential_responses = st.builds(
    InfluentialResponse,
    query_id=st.integers(min_value=0, max_value=2**31 - 1),
    result=influential_results,
    objects_shipped=st.integers(min_value=0, max_value=2**32 - 1),
    round_trips=st.integers(min_value=0, max_value=2**32 - 1),
    epoch=st.integers(min_value=0, max_value=2**32 - 1),
)

region_events = st.builds(
    RegionEvent,
    query_id=st.integers(min_value=0, max_value=2**31 - 1),
    result=region_results,
    objects_shipped=st.integers(min_value=0, max_value=2**32 - 1),
    round_trips=st.integers(min_value=0, max_value=2**32 - 1),
    epoch=st.integers(min_value=0, max_value=2**32 - 1),
)

position_updates = st.builds(
    PositionUpdate,
    query_id=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
    position=positions,
)

update_batches = st.builds(
    UpdateBatch,
    inserts=st.lists(targets, max_size=8).map(tuple),
    deletes=st.lists(object_indexes, max_size=8).map(tuple),
    moves=st.lists(st.tuples(object_indexes, targets), max_size=8).map(tuple),
)

option_strings = st.text(max_size=20)
comm_stats = st.builds(
    CommunicationStats,
    uplink_messages=st.integers(min_value=0, max_value=2**63 - 1),
    uplink_objects=st.integers(min_value=0, max_value=2**63 - 1),
    downlink_messages=st.integers(min_value=0, max_value=2**63 - 1),
    downlink_objects=st.integers(min_value=0, max_value=2**63 - 1),
    uplink_bytes=st.integers(min_value=0, max_value=2**63 - 1),
    downlink_bytes=st.integers(min_value=0, max_value=2**63 - 1),
)

control_messages = st.one_of(
    st.builds(
        OpenSession,
        position=positions,
        k=st.integers(min_value=1, max_value=1000),
        rho=st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
        options=st.lists(
            st.tuples(option_strings, option_strings), max_size=3
        ).map(tuple),
    ),
    st.builds(SessionOpened, query_id=st.integers(min_value=0, max_value=2**31 - 1)),
    st.builds(CloseSession, query_id=st.integers(min_value=0, max_value=2**31 - 1)),
    st.builds(SessionClosed, query_id=st.integers(min_value=0, max_value=2**31 - 1)),
    st.builds(RefreshRequest, query_id=st.integers(min_value=0, max_value=2**31 - 1)),
    st.builds(
        BatchApplied,
        epoch=st.integers(min_value=0, max_value=2**32 - 1),
        new_indexes=st.lists(object_indexes, max_size=8).map(tuple),
        deleted_indexes=st.lists(object_indexes, max_size=8).map(tuple),
    ),
    st.builds(
        ErrorMessage,
        kind=st.sampled_from(["query", "configuration", "transport", "error"]),
        message=st.text(max_size=200),
    ),
    st.builds(StatsRequest, per_session=st.booleans()),
    st.builds(
        StatsResponse,
        aggregate=comm_stats,
        per_session=st.lists(
            st.tuples(st.integers(min_value=0, max_value=2**31 - 1), comm_stats),
            max_size=4,
        ).map(tuple),
    ),
    st.just(ObjectsRequest()),
    st.builds(
        ObjectsResponse,
        epoch=st.integers(min_value=0, max_value=2**32 - 1),
        indexes=st.lists(object_indexes, max_size=32).map(tuple),
    ),
    st.just(AggregateStatsRequest()),
    st.just(DrainRequest()),
    st.builds(
        DrainAck,
        wal_seq=st.integers(min_value=0, max_value=2**63 - 1),
        session_ids=st.lists(
            st.integers(min_value=0, max_value=2**31 - 1), max_size=8
        ).map(tuple),
    ),
    st.builds(
        AggregateStatsResponse,
        stats=st.builds(
            ProcessorStats,
            timestamps=st.integers(min_value=0, max_value=2**32 - 1),
            full_recomputations=st.integers(min_value=0, max_value=2**32 - 1),
            transmitted_objects=st.integers(min_value=0, max_value=2**32 - 1),
            construction_seconds=st.floats(
                min_value=0.0, max_value=1e6, allow_nan=False
            ),
        ),
    ),
)

open_queries = st.builds(
    OpenQuery,
    kind=st.sampled_from(["knn", "influential", "region", "future-kind"]),
    position=positions,
    k=st.integers(min_value=1, max_value=1000),
    rho=st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
    options=st.lists(st.tuples(option_strings, option_strings), max_size=3).map(tuple),
)

all_messages = st.one_of(
    position_updates,
    knn_responses,
    influential_responses,
    region_events,
    open_queries,
    update_batches,
    control_messages,
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(message=all_messages)
    def test_decode_encode_is_identity(self, message):
        assert decode(encode(message)) == message

    @settings(max_examples=200, deadline=None)
    @given(message=all_messages)
    def test_wire_size_is_exact(self, message):
        assert len(encode(message)) == wire_size(message)

    def test_hot_message_is_compact(self):
        """The headline frame stays small: no pickle, no tag soup."""
        update = PositionUpdate(query_id=3, position=Point(1234.5, 678.9))
        assert wire_size(update) == 26  # 4 len + 1 type + 4 id + 1 tag + 16 coords

    def test_widened_responses_round_trip_to_their_own_classes(self):
        """Same shared fields, three distinct frame types — the decoder
        must resurrect the exact response class, not the base KNNResponse."""
        base = QueryResult(3, (1, 2), (0.5, 1.5), frozenset((9,)), UpdateAction.NONE, True)
        influential = InfluentialResponse(
            query_id=1,
            result=InfluentialResult(
                timestamp=3, knn=(1, 2), knn_distances=(0.5, 1.5),
                guard_objects=frozenset((9,)), action=UpdateAction.NONE,
                was_valid=True, sites=(4, 8),
            ),
            objects_shipped=2, round_trips=1, epoch=7,
        )
        region = RegionEvent(
            query_id=1,
            result=RegionResult(
                timestamp=3, knn=(1, 2), knn_distances=(0.5, 1.5),
                guard_objects=frozenset((9,)), action=UpdateAction.NONE,
                was_valid=True, event="enter", departed=(6,),
            ),
            objects_shipped=2, round_trips=1, epoch=7,
        )
        knn = KNNResponse(query_id=1, result=base, objects_shipped=2, round_trips=1, epoch=7)
        for message in (influential, region, knn):
            back = decode(encode(message))
            assert type(back) is type(message)
            assert back == message
        # class-strict equality: identical shared fields never collide
        assert decode(encode(influential)) != knn
        assert decode(encode(region)) != knn
        assert decode(encode(influential)).sites == (4, 8)
        assert decode(encode(region)).event == "enter"
        assert decode(encode(region)).departed == (6,)

    def test_every_shape_round_trips(self):
        """A compiled codec keeps one plan per shape, so sweep the shapes:
        every (k, guards) in 0…300 x {0, 1, 7, 300} with both position arms
        riding along — first upwards, then downwards, which takes the plan
        cache past its cap, through a restart and back over shapes it has
        held before (``test_codec_fuzz.py`` watches the cache itself)."""
        shapes = [(k, guards) for k in range(301) for guards in (0, 1, 7, 300)]
        positions = (Point(1.5, -2.5), NetworkLocation(7, 0.25))
        for k, guards in shapes + shapes[::-1]:
            result = QueryResult(
                timestamp=k,
                knn=tuple(range(k)),
                knn_distances=tuple(0.5 * i for i in range(k)),
                guard_objects=frozenset(range(1000, 1000 + guards)),
                action=UpdateAction.INCREMENTAL,
                was_valid=False,
            )
            response = KNNResponse(
                query_id=k, result=result, objects_shipped=guards, round_trips=1, epoch=3
            )
            update = PositionUpdate(query_id=k or None, position=positions[k % 2])
            for message in (response, update):
                frame = encode(message)
                assert decode(frame) == message
                assert len(frame) == wire_size(message)

    @pytest.mark.parametrize("stats_cls", [CommunicationStats, ProcessorStats])
    def test_stats_frames_carry_every_dataclass_field(self, stats_cls):
        """The stats layouts are derived from ``dataclasses.fields``: every
        field, holding a distinct value of its declared type, crosses the
        wire — int as u64, float as f64, in declaration order."""
        fields = dataclasses.fields(stats_cls)
        stats = stats_cls(
            **{
                f.name: (2.5 if f.type in (float, "float") else 2**40) + index
                for index, f in enumerate(fields)
            }
        )
        if stats_cls is CommunicationStats:
            message = StatsResponse(aggregate=stats, per_session=((3, stats),))
        else:
            message = AggregateStatsResponse(stats=stats)
        frame = encode(message)
        assert decode(frame) == message
        assert wire_size(message) == len(frame)
        packed = struct.pack(
            "!" + "".join("d" if f.type in (float, "float") else "Q" for f in fields),
            *dataclasses.astuple(stats),
        )
        assert frame[5 : 5 + len(packed)] == packed

    def test_error_message_round_trips_to_exception(self):
        error = ErrorMessage.from_exception(QueryError("k too large"))
        raised = decode(encode(error)).to_exception()
        assert isinstance(raised, QueryError)
        assert "k too large" in str(raised)

    def test_unknown_error_kind_falls_back_to_base_class(self):
        assert isinstance(ErrorMessage("nonsense", "x").to_exception(), ReproError)


class TestFraming:
    @settings(max_examples=60, deadline=None)
    @given(
        messages=st.lists(all_messages, min_size=1, max_size=6),
        chunk_size=st.integers(min_value=1, max_value=64),
    )
    def test_split_and_concatenated_frames_survive(self, messages, chunk_size):
        blob = b"".join(encode(m) for m in messages)
        reader = FrameReader()
        decoded = []
        for start in range(0, len(blob), chunk_size):
            for message, nbytes in reader.feed(blob[start : start + chunk_size]):
                decoded.append((message, nbytes))
        assert [m for m, _ in decoded] == messages
        assert [n for _, n in decoded] == [wire_size(m) for m in messages]
        assert reader.pending_bytes == 0

    def test_every_split_of_three_frames_reads_like_the_whole(self):
        """Cut a three-frame stream at every pair of offsets — chunks that are
        exactly one frame (decoded where they lie), that end inside a length
        prefix, that carry one frame and a half — and the reader yields what
        it yields when fed the stream whole, with the same bytes pending."""
        messages = [
            PositionUpdate(query_id=1, position=Point(3.0, 4.0)),
            SessionOpened(query_id=1),
            ErrorMessage(kind="query", message="päivää"),
        ]
        frames = [encode(message) for message in messages]
        stream = b"".join(frames)
        whole = FrameReader().feed(stream)
        assert whole == [(m, len(f)) for m, f in zip(messages, frames)]
        for first in range(len(stream) + 1):
            for second in range(first, len(stream) + 1):
                reader, decoded = FrameReader(), []
                for chunk in (stream[:first], stream[first:second], stream[second:]):
                    decoded += reader.feed(chunk)
                assert decoded == whole, (first, second)
                assert reader.pending_bytes == 0
        # A stream that stops short keeps the same remainder pending either way.
        for cut in range(len(stream)):
            reader = FrameReader()
            decoded = reader.feed(stream[:cut])
            boundaries = [0, len(frames[0]), len(frames[0]) + len(frames[1])]
            complete = max(edge for edge in boundaries if edge <= cut)
            assert decoded == whole[: boundaries.index(complete)]
            assert reader.pending_bytes == cut - complete

    def test_oversized_frame_raises_where_it_lies_too(self):
        frame = encode(PositionUpdate(query_id=1, position=Point(3.0, 4.0)))
        with pytest.raises(TransportError, match="exceeds the limit"):
            FrameReader(max_frame_bytes=len(frame) - 5).feed(frame)  # exactly one frame
        assert FrameReader(max_frame_bytes=len(frame) - 4).feed(frame)

    def test_single_feed_of_everything_at_once(self):
        messages = [
            PositionUpdate(query_id=1, position=Point(0.0, 0.0)),
            SessionOpened(query_id=1),
            ObjectsRequest(),
        ]
        reader = FrameReader()
        decoded = [m for m, _ in reader.feed(b"".join(encode(m) for m in messages))]
        assert decoded == messages


class TestMalformedInput:
    def test_truncated_prefix(self):
        with pytest.raises(TransportError):
            decode(b"\x00\x00")

    def test_truncated_body(self):
        frame = encode(SessionOpened(query_id=5))
        with pytest.raises(TransportError):
            decode(frame[:-1])

    def test_trailing_garbage(self):
        frame = encode(SessionOpened(query_id=5))
        with pytest.raises(TransportError):
            decode(frame + b"\x00")

    def test_unknown_frame_type(self):
        body = b"\xee\x00\x00\x00\x05"
        with pytest.raises(TransportError, match="unknown frame type"):
            decode(struct.pack("!I", len(body)) + body)

    def test_unknown_position_tag(self):
        frame = bytearray(encode(PositionUpdate(query_id=1, position=Point(0, 0))))
        frame[4 + 1 + 4] = 0x7F  # the position tag byte
        with pytest.raises(TransportError, match="position tag"):
            decode(bytes(frame))

    def test_declared_length_beyond_limit(self):
        with pytest.raises(TransportError, match="exceeds the limit"):
            FrameReader().feed(struct.pack("!I", 2**31) + b"x")

    def test_body_shorter_than_fields_demand(self):
        # A KNNResponse frame claiming 1000 neighbours but carrying none.
        body = bytearray(encode(KNNResponse(
            query_id=1,
            result=QueryResult(0, (), (), frozenset(), UpdateAction.NONE, True),
            objects_shipped=0, round_trips=0, epoch=0,
        ))[4:])
        body[1 + 4 + 12 + 4 + 2 : 1 + 4 + 12 + 4 + 2 + 4] = struct.pack("!I", 1000)
        with pytest.raises(TransportError):
            decode(struct.pack("!I", len(body)) + bytes(body))

    @pytest.mark.parametrize(
        "frame",
        [
            # The last bytes written for the retired delta frames 0x13 / 0x14.
            bytes.fromhex(
                "000000b013000000050000000402000000020000009600000097000000010000"
                "0007000000040000000300000007000000960000009700000002003ff8000000"
                "000000400400000000000000c008000000000000401000000000000000000003"
                "0000009600000003000000030000000900000097000000030000000000000097"
                "0000000100000096000000010000000700000000000000000000000000000000"
                "0000000000000000000000000000000000000000"
            ),
            bytes.fromhex(
                "0000004613000000010000000000000000000000000000000000000000000000"
                "0000000000000000000000000000000000000000000000000000000000000000"
                "00000000000000000000"
            ),
            bytes.fromhex("000000051400000008"),
        ],
        ids=["index_delta.euclidean", "index_delta.empty", "delta_ack"],
    )
    def test_retired_frame_types_stay_unknown(self, frame):
        with pytest.raises(TransportError, match="unknown frame type"):
            decode(frame)

    @pytest.mark.parametrize(
        "message, count_at",
        [
            # (frame, body offset of a u32 array count), type byte at 0
            (UpdateBatch(inserts=(Point(1.0, 2.0),)), 1),
            (UpdateBatch(deletes=(4,)), 1 + 4),
            (UpdateBatch(moves=((4, 9),)), 1 + 8),
            (BatchApplied(epoch=1, new_indexes=(7,)), 1 + 4),
            (BatchApplied(epoch=1, deleted_indexes=(7,)), 1 + 4 + 4),
            (ObjectsResponse(epoch=1, indexes=(3, 5)), 1 + 4),
            (DrainAck(wal_seq=9, session_ids=(2,)), 1 + 8),
            (
                StatsResponse(
                    aggregate=CommunicationStats(),
                    per_session=((0, CommunicationStats()),),
                ),
                1 + 6 * 8,
            ),
            (MetricsSnapshot(gauges=(("g", "", 1.0),)), 1 + 4),
            (MetricsSnapshot(histograms=(("h", "", (0,) * BUCKET_COUNT, 0.0),)), 1 + 8),
        ],
        ids=lambda value: type(value).__name__ if not isinstance(value, int) else str(value),
    )
    def test_count_overrun(self, message, count_at):
        """A count that promises more elements than the body holds."""
        body = bytearray(encode(message)[4:])
        for claimed in (len(body), 1000, 2**32 - 1):
            body[count_at : count_at + 4] = struct.pack("!I", claimed)
            with pytest.raises(TransportError):
                decode(struct.pack("!I", len(body)) + bytes(body))

    def test_unknown_region_event_code(self):
        event = RegionEvent(
            query_id=1,
            result=RegionResult(
                timestamp=0, knn=(), knn_distances=(), guard_objects=frozenset(),
                action=UpdateAction.NONE, was_valid=True, event="stay", departed=(),
            ),
            objects_shipped=0, round_trips=0, epoch=0,
        )
        frame = bytearray(encode(event))
        # Layout tail: ... u8 event code + u32 departed count (empty list).
        frame[-5] = 0x7F
        with pytest.raises(TransportError, match="region event"):
            decode(bytes(frame))

    def test_unknown_region_event_string_fails_to_encode(self):
        event = RegionEvent(
            query_id=1,
            result=RegionResult(
                timestamp=0, knn=(), knn_distances=(), guard_objects=frozenset(),
                action=UpdateAction.NONE, was_valid=True, event="exit-stage-left",
            ),
            objects_shipped=0, round_trips=0, epoch=0,
        )
        with pytest.raises(TransportError, match="region event"):
            encode(event)

    def test_influential_sites_count_overrun(self):
        response = InfluentialResponse(
            query_id=1,
            result=InfluentialResult(
                timestamp=0, knn=(), knn_distances=(), guard_objects=frozenset(),
                action=UpdateAction.NONE, was_valid=True, sites=(5,),
            ),
            objects_shipped=0, round_trips=0, epoch=0,
        )
        body = bytearray(encode(response)[4:])
        # Tail: u32 site count + one u32 site — claim 1000 sites instead.
        body[-8:-4] = struct.pack("!I", 1000)
        with pytest.raises(TransportError):
            decode(struct.pack("!I", len(body)) + bytes(body))

    def test_truncated_open_query(self):
        frame = encode(
            OpenQuery(kind="region", position=Point(1.0, 2.0), k=3, rho=1.6)
        )
        for cut in (1, 5, len(frame) // 2):
            with pytest.raises(TransportError):
                decode(frame[:-cut])

    def test_out_of_range_field_raises_transport_error_on_encode(self):
        with pytest.raises(TransportError, match="out of range"):
            encode(SessionOpened(query_id=2**40))
        with pytest.raises(TransportError, match="out of range"):
            encode(BatchApplied(epoch=2**40))

    def test_unencodable_types_raise_transport_error(self):
        with pytest.raises(TransportError):
            encode(object())
        with pytest.raises(TransportError):
            encode(PositionUpdate(query_id=1, position="not a position"))
        with pytest.raises(TransportError):
            wire_size(object())
