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

from repro.errors import TransportError
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
