"""Hostile bytes at the codec boundary: typed errors, bounded memory.

Whatever arrives from a socket or a log either decodes or raises
:class:`~repro.errors.TransportError` — never ``struct.error``,
``IndexError``, ``MemoryError`` or ``OverflowError`` — and a forged count
is rejected against the bytes that are really there *before* anything is
allocated for it.  Random bytes (hypothesis, derandomised under the
``tier1`` profile) cover the framing; systematic damage to every golden
frame covers each field of each frame type.
"""

import struct
import tracemalloc

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.objects import QueryResult, UpdateAction
from repro.errors import TransportError
from repro.service.messages import KNNResponse
from repro.transport import codec
from repro.transport.codec import FrameReader, LENGTH_PREFIX_BYTES, decode, encode

from test_golden_corpus import FRAMES

GOLDEN = [frame for _, frame, _ in FRAMES]
PREFIX = LENGTH_PREFIX_BYTES


def framed(body: bytes) -> bytes:
    return struct.pack("!I", len(body)) + body


def decodes_or_raises_typed(frame: bytes) -> None:
    try:
        message = decode(frame)
    except TransportError:
        return
    # Whatever did decode is a real message: it encodes again.
    encode(message)


# Mostly well-framed bodies behind a known type byte, so the fuzz spends
# its budget inside the field readers instead of failing the length check.
hostile_frames = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=96).map(framed),
    st.tuples(st.integers(min_value=0x01, max_value=0x19), st.binary(max_size=160)).map(
        lambda pair: framed(bytes([pair[0]]) + pair[1])
    ),
)


class TestArbitraryBytes:
    @settings(max_examples=600, deadline=None)
    @given(frame=hostile_frames)
    def test_decode_raises_only_transport_error(self, frame):
        decodes_or_raises_typed(frame)

    @settings(max_examples=300, deadline=None)
    @given(
        stream=st.lists(hostile_frames, min_size=1, max_size=4).map(b"".join),
        cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=6),
    )
    def test_frame_reader_raises_only_transport_error(self, stream, cuts):
        reader = FrameReader()
        edges = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
        try:
            for start, end in zip(edges, edges[1:]):
                reader.feed(stream[start:end])
        except TransportError:
            pass  # the stream is dead past a corrupt frame, and says so


class TestDamagedGoldenFrames:
    def test_truncation_at_every_offset(self):
        for frame in GOLDEN:
            body = frame[PREFIX:]
            for cut in range(len(frame)):
                decodes_or_raises_typed(frame[:cut])  # the prefix now lies
            for cut in range(len(body)):
                decodes_or_raises_typed(framed(body[:cut]))  # the prefix agrees

    def test_every_single_byte_flipped(self):
        for frame in GOLDEN:
            for offset in range(len(frame)):
                damaged = bytearray(frame)
                damaged[offset] ^= 0xFF
                decodes_or_raises_typed(bytes(damaged))

    def test_forged_counts_are_rejected_before_allocation(self):
        """Every 1-, 2- and 4-byte window of every body — so every array
        count, whatever its width — overwritten with all-ones: a count of
        4 294 967 295 must cost an error message, not memory."""
        tracemalloc.start()
        try:
            for frame in GOLDEN:
                for width in (1, 2, 4):
                    for offset in range(PREFIX + 1, len(frame) - width + 1):
                        damaged = bytearray(frame)
                        damaged[offset : offset + width] = b"\xff" * width
                        tracemalloc.reset_peak()
                        before, _ = tracemalloc.get_traced_memory()
                        decodes_or_raises_typed(bytes(damaged))
                        _, peak = tracemalloc.get_traced_memory()
                        assert peak - before < 1 << 20, (frame.hex(), offset, width)
        finally:
            tracemalloc.stop()


def knn_response(knn, distances, guards=(5, 6)):
    result = QueryResult(3, knn, distances, frozenset(guards), UpdateAction.NONE, True)
    return KNNResponse(query_id=1, result=result, objects_shipped=0, round_trips=0, epoch=2)


class TestPlanCache:
    """Plans are kept per shape, so shapes must be earned: only a count that
    fits the bytes behind it may reach the cache."""

    def test_forged_shapes_never_reach_the_plan_cache(self):
        """10 000 distinct forged (k, guards) heads — each count in turn far
        beyond the body — cost an error each: no plan, no memory."""
        frame = encode(knn_response((1, 2), (0.5, 1.5)))
        decode(frame)  # the honest shape is cached now
        k_at = PREFIX + 1 + 16 + 4 + 1 + 1
        guards_at = k_at + 4 + 2 * (4 + 8)
        held = dict(codec._PLANS)
        assert 0 < len(held) <= codec.PLAN_CACHE_CAP
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for forged in range(10_000):
                damaged = bytearray(frame)
                at = k_at if forged % 2 else guards_at
                damaged[at : at + 4] = struct.pack("!I", 3 + forged)
                with pytest.raises(TransportError):
                    decode(bytes(damaged))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert codec._PLANS == held
        assert peak - before < 1 << 20

    def test_honest_shapes_fill_the_cache_to_its_cap_and_no_further(self):
        """More distinct shapes than the cap holds: the cache starts over
        instead of growing, and shapes it dropped simply compile again."""
        restarts, held = 0, len(codec._PLANS)
        for size in [*range(codec.PLAN_CACHE_CAP), *range(codec.PLAN_CACHE_CAP, -1, -1)]:
            message = knn_response(tuple(range(size)), tuple(map(float, range(size))))
            assert decode(encode(message)) == message
            assert len(codec._PLANS) <= codec.PLAN_CACHE_CAP
            restarts += len(codec._PLANS) < held
            held = len(codec._PLANS)
        assert restarts >= 2  # two plans per size, each way: the cap was crossed twice over

    def test_arrays_that_disagree_on_their_shared_count_do_not_encode(self):
        with pytest.raises(TransportError):
            encode(knn_response((1, 2, 3), (0.5, 1.5)))
        with pytest.raises(TransportError):
            encode(knn_response((1,), (0.5, 1.5)))
