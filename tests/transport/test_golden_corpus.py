"""The wire format is frozen: every codec must reproduce the golden bytes.

``tests/transport/golden/`` holds encoded samples of all 23 frame types
and one small durability directory, both written by the hand-written codec
that preceded the declarative frame table (see ``golden/generate.py``).
A codec change that alters any byte here breaks old WALs and old peers.
``shapes.json`` (see ``golden/generate_shapes.py``) adds frames at the
shapes a compiled codec keys its plans on — lengths 0, 1, 255, 256 and 300,
both arms of every union — written by the interpreting codec of commit
``cc512e6`` before the frame table was compiled (PR 20).
"""

import json
import math
import os
import shutil
import struct

import pytest

from repro.durability import recover_service, scan_chain
from repro.errors import TransportError
from repro.durability.recovery import wal_path
from repro.geometry.point import Point
from repro.transport.codec import LENGTH_PREFIX_BYTES, decode, encode, wire_size

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_frames(corpus="frames.json"):
    """One corpus as ``(name, frame bytes, recorded repr)`` triples."""
    with open(os.path.join(GOLDEN, corpus)) as handle:
        return [
            (record["name"], bytes.fromhex(record["hex"]), record["repr"])
            for record in json.load(handle)
        ]


FRAMES = golden_frames()
SHAPES = golden_frames("shapes.json")


def test_corpus_covers_every_frame_type():
    # 0x13 / 0x14 (the retired process pool's delta frames) stay unused.
    assert {frame[4] for _, frame, _ in FRAMES} == set(range(0x01, 0x1A)) - {0x13, 0x14}


def test_shape_corpus_reaches_both_sides_of_a_one_byte_count():
    lengths = {len(frame) for name, frame, _ in SHAPES if name.startswith("knn_response")}
    assert len(lengths) == 12  # k in {0, 1, 255, 256} x guards in {0, 1, 300}: all distinct
    assert max(lengths) == 4 + 1 + 26 + 256 * 12 + 4 + 300 * 4


@pytest.mark.parametrize(
    "frame, recorded",
    [frame[1:] for frame in FRAMES + SHAPES],
    ids=[frame[0] for frame in FRAMES + SHAPES],
)
def test_golden_frame_is_reproduced_exactly(frame, recorded):
    message = decode(frame)
    assert repr(message) == recorded
    assert encode(message) == frame
    assert wire_size(message) == len(frame)


@pytest.mark.parametrize(
    "frame",
    [frame[1] for frame in FRAMES + SHAPES],
    ids=[frame[0] for frame in FRAMES + SHAPES],
)
def test_golden_frame_cut_or_padded_is_a_typed_error(frame):
    """Every frame type's decode plan checks its own bounds.

    A frame cut short (prefix left claiming the full body), a body cut
    short and re-prefixed (so only the field plan can notice), and a body
    with one byte appended all raise the typed error, never a bare
    ``struct.error`` or a silently shorter message.
    """
    body = frame[LENGTH_PREFIX_BYTES:]
    for cut in range(len(frame)):
        with pytest.raises(TransportError):
            decode(frame[:cut])
    for cut in range(len(body)):
        with pytest.raises(TransportError):
            decode(struct.pack("!I", cut) + body[:cut])
    with pytest.raises(TransportError):
        decode(struct.pack("!I", len(body) + 1) + body + b"\x00")


def test_golden_wal_directory_scans_and_recovers(tmp_path):
    with open(os.path.join(GOLDEN, "wal.json")) as handle:
        recorded = json.load(handle)
    assert sorted(os.listdir(os.path.join(GOLDEN, "wal"))) == recorded["files"]
    # Recovery reopens the log for appending, so it works on a copy.
    wal_dir = str(tmp_path / "wal")
    shutil.copytree(os.path.join(GOLDEN, "wal"), wal_dir)
    scan = scan_chain(wal_path(wal_dir))
    assert scan.torn_bytes == 0
    assert [[r.seq, repr(r.message)] for r in scan.records] == recorded["records"]
    recovered = recover_service(wal_dir)
    try:
        assert recovered.epoch == recorded["epoch"]
        assert recovered.object_count == recorded["object_count"]
        assert sorted(s.query_id for s in recovered.sessions()) == recorded["sessions"]
        # The recovered sessions keep serving: whatever state the old log
        # restored, the next answer is the brute-force one.
        tree = recovered.engine.vortree
        for session, query in zip(recovered.sessions(), (Point(30.0, 14.0), Point(8.0, 3.0))):
            response = session.update(query)
            truth = sorted(
                math.hypot(query.x - tree.point(i).x, query.y - tree.point(i).y)
                for i in tree.active_indexes()
            )
            assert list(response.knn_distances) == truth[: session.k]
    finally:
        recovered.close_wal()
