"""Regenerate the golden wire corpus: ``frames.json`` and ``wal/``.

The committed output was produced by the codec as it stood *before* the
declarative frame table replaced the hand-written per-frame functions (PR
14), and ``tests/transport/test_golden_corpus.py`` holds every later codec
to those bytes.  Run this only to *add* samples for a new frame type or
field — never to paper over a diff in existing samples, which is a wire
format break (old WALs and old peers stop decoding)::

    PYTHONPATH=src python tests/transport/golden/generate.py

``frames.json`` is a list of ``{"name", "hex", "repr"}`` records — the
encoded frame and ``repr(decode(frame))``.  ``wal/`` is the durability
directory of a short Euclidean run with churn (initial snapshot, one
sealed segment, the active file); ``wal.json`` records its ``(seq,
repr(message))`` listing and the recovered service's epoch, population
and open sessions.

Snapshots are not wire format: a build reads only the snapshots it writes.
So when the snapshot format changes, ``wal/snapshot-000000000000.snap``
alone is re-recorded (the pre-traffic state over the same 30 objects),
and the log beside it stays the older build's, which every later build
replays on top::

    PYTHONPATH=src:tests/transport/golden python -c \
        "import generate; generate.write_base_snapshot()"
"""

import json
import os
import shutil
import tempfile

from repro.core.objects import QueryResult, UpdateAction
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.durability import recover_service, scan_chain
from repro.durability.recovery import open_durable_service, wal_path
from repro.geometry.point import Point
from repro.obs.metrics import BUCKET_COUNT
from repro.queries.influential import InfluentialResult
from repro.queries.messages import InfluentialResponse, OpenQuery, RegionEvent
from repro.queries.region import RegionResult
from repro.roadnet.location import NetworkLocation
from repro.service.messages import KNNResponse, PositionUpdate, UpdateBatch
from repro.transport import codec
from repro.transport.codec import (
    AggregateStatsRequest,
    AggregateStatsResponse,
    BatchApplied,
    CloseSession,
    DrainAck,
    DrainRequest,
    ErrorMessage,
    MetricsRequest,
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
)

HERE = os.path.dirname(os.path.abspath(__file__))


def _result(action=UpdateAction.NONE, was_valid=True, filled=True):
    if not filled:
        return dict(
            timestamp=0, knn=(), knn_distances=(), guard_objects=frozenset(),
            action=action, was_valid=was_valid,
        )
    return dict(
        timestamp=17, knn=(4, 9, 2), knn_distances=(0.5, 1.25, 3.0625),
        guard_objects=frozenset((31, 7, 12, 5)), action=action, was_valid=was_valid,
    )


def _envelope(cls, result):
    return cls(query_id=3, result=result, objects_shipped=11, round_trips=2, epoch=6)


def _comm(base):
    return CommunicationStats(*(base + step for step in range(6)))


def samples():
    """``(name, message)`` pairs: every frame type, every union arm."""
    point, road = Point(1234.5, -678.25), NetworkLocation(41, 17.75)
    yield "position_update.point", PositionUpdate(query_id=3, position=point)
    yield "position_update.road", PositionUpdate(query_id=2**31 - 1, position=road)
    yield "position_update.unregistered", PositionUpdate(query_id=None, position=point)
    for action in UpdateAction:
        yield f"knn_response.{action.value}", _envelope(
            KNNResponse, QueryResult(**_result(action, action is UpdateAction.NONE))
        )
    yield "knn_response.empty", _envelope(KNNResponse, QueryResult(**_result(filled=False)))
    yield "update_batch.empty", UpdateBatch()
    yield "update_batch.points", UpdateBatch(
        inserts=(Point(9.0, 9.5), Point(-1.0, 0.0)), deletes=(4, 8), moves=((6, Point(2.5, 2.5)),)
    )
    yield "update_batch.vertices", UpdateBatch(
        inserts=(12, 0), deletes=(2**32 - 1,), moves=((3, 14), (5, 15))
    )
    yield "update_batch.mixed", UpdateBatch(inserts=(Point(0.0, 0.0), 7), moves=((1, 2), (2, point)))
    yield "open_session.point", OpenSession(position=point, k=8, rho=1.6)
    yield "open_session.road_options", OpenSession(
        position=road, k=3, rho=2.0,
        options=(("validation_mode", "restricted"), ("naïve", "ключ→值")),
    )
    yield "session_opened", SessionOpened(query_id=0)
    yield "close_session", CloseSession(query_id=41)
    yield "session_closed", SessionClosed(query_id=41)
    yield "refresh_request", RefreshRequest(query_id=7)
    yield "batch_applied.empty", BatchApplied(epoch=0)
    yield "batch_applied.filled", BatchApplied(
        epoch=2**32 - 1, new_indexes=(150, 151), deleted_indexes=(3,)
    )
    for kind in codec._ERROR_KINDS:
        yield f"error.{kind}", ErrorMessage(kind=kind, message=f"{kind} failed: k=9 > n=4 — päivää")
    yield "error.empty", ErrorMessage(kind="", message="")
    yield "stats_request.aggregate", StatsRequest(per_session=False)
    yield "stats_request.per_session", StatsRequest(per_session=True)
    yield "stats_response.aggregate", StatsResponse(aggregate=_comm(100))
    yield "stats_response.per_session", StatsResponse(
        aggregate=_comm(2**40), per_session=((0, _comm(10)), (5, _comm(20)))
    )
    yield "objects_request", ObjectsRequest()
    yield "objects_response.empty", ObjectsResponse(epoch=0)
    yield "objects_response.filled", ObjectsResponse(epoch=9, indexes=(5, 3, 8, 0, 2**32 - 1))
    yield "aggregate_stats_request", AggregateStatsRequest()
    yield "aggregate_stats_response", AggregateStatsResponse(
        stats=ProcessorStats(
            *range(1, 12), construction_seconds=0.5, validation_seconds=1.5,
            maintenance_seconds=3.5,
        )
    )
    yield "drain_request", DrainRequest()
    yield "drain_ack.empty", DrainAck(wal_seq=0)
    yield "drain_ack.filled", DrainAck(wal_seq=2**40 + 7, session_ids=(0, 3, 9))
    yield "open_query.region", OpenQuery(kind="region", position=point, k=3)
    yield "open_query.options", OpenQuery(
        kind="influential", position=road, k=5, rho=1.25, options=(("mode", "büro"),)
    )
    yield "influential_response.filled", _envelope(
        InfluentialResponse,
        InfluentialResult(**_result(UpdateAction.FULL_RECOMPUTE, False), sites=(1, 6, 30)),
    )
    yield "influential_response.empty", _envelope(
        InfluentialResponse, InfluentialResult(**_result(filled=False))
    )
    yield "region_event.stay", _envelope(RegionEvent, RegionResult(**_result(), event="stay"))
    yield "region_event.enter", _envelope(
        RegionEvent,
        RegionResult(**_result(UpdateAction.INCREMENTAL, False), event="enter", departed=(8, 2)),
    )
    yield "metrics_request", MetricsRequest()
    yield "metrics_snapshot.empty", MetricsSnapshot()
    yield "metrics_snapshot.filled", MetricsSnapshot(
        counters=(("insq_requests_total", "frame=KNNResponse", 2**40), ("c", "", 0)),
        gauges=(("insq_engine_epoch", "", 6.0), ("insq_comm_uplink_bytes", "kind=région", -0.5)),
        histograms=(
            ("insq_codec_seconds", "frame=PositionUpdate,op=encode", tuple(range(BUCKET_COUNT)), 0.125),
            ("insq_codec_seconds", "frame=PositionUpdate,op=decode", (0,) * BUCKET_COUNT, 0.0),
        ),
    )


def write_frames():
    records = []
    for name, message in samples():
        frame = encode(message)
        assert decode(frame) == message, name
        records.append({"name": name, "hex": frame.hex(), "repr": repr(decode(frame))})
    with open(os.path.join(HERE, "frames.json"), "w") as handle:
        json.dump(records, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    return len(records)


#: The population of the run in ``wal/``.
OBJECTS = [Point(10.0 * (i % 6) + 0.25 * i, 7.0 * (i // 6) + 0.5 * (i % 5)) for i in range(30)]

#: The snapshot every recovery of ``wal/`` starts from.
BASE_SNAPSHOT = "snapshot-000000000000.snap"


def write_wal():
    """A short durable Euclidean run with churn; rotates exactly once."""
    wal_dir = os.path.join(HERE, "wal")
    shutil.rmtree(wal_dir, ignore_errors=True)
    service = open_durable_service(wal_dir, objects=OBJECTS, segment_bytes=640)
    first = service.open_session(Point(12.0, 9.0), k=3, rho=1.6)
    second = service.open_session(Point(40.0, 20.0), k=2, rho=2.0)
    third = service.open_query(Point(25.0, 15.0), kind="influential", k=2)
    for step in range(1, 7):
        first.update(Point(12.0 + 4.0 * step, 9.0 + 1.5 * step))
        second.update(Point(40.0 - 3.0 * step, 20.0 - 2.0 * step))
        third.update(Point(25.0 + step, 15.0))
        if step % 2 == 0:
            service.apply(
                UpdateBatch(
                    inserts=(Point(3.0 * step, 30.0 - step),),
                    deletes=(step,),
                    moves=((10 + step, Point(20.0 + step, 11.0)),),
                )
            )
    second.refresh()
    third.close()
    service.close_wal()  # a crash: the other two sessions stay open in the log

    names = sorted(os.listdir(wal_dir))
    assert sum(name.endswith(".seg") for name in names) == 1, names
    assert "wal.log" in names and sum(name.endswith(".snap") for name in names) == 1, names
    listing = [[record.seq, repr(record.message)] for record in scan_chain(wal_path(wal_dir)).records]
    scratch = wal_dir + ".recovering"
    shutil.copytree(wal_dir, scratch)
    try:
        recovered = recover_service(scratch)
        summary = {
            "files": names,
            "records": listing,
            "epoch": recovered.epoch,
            "object_count": recovered.object_count,
            "sessions": sorted(session.query_id for session in recovered.sessions()),
        }
        recovered.close_wal()
    finally:
        shutil.rmtree(scratch)
    with open(os.path.join(HERE, "wal.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    return names, len(listing)


def write_base_snapshot():
    """Re-record ``wal/``'s seq-0 snapshot with this build; touch nothing else."""
    scratch = tempfile.mkdtemp()
    try:
        wal_dir = os.path.join(scratch, "wal")
        open_durable_service(wal_dir, objects=OBJECTS, segment_bytes=640).close_wal()
        shutil.copyfile(os.path.join(wal_dir, BASE_SNAPSHOT), os.path.join(HERE, "wal", BASE_SNAPSHOT))
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    print(f"frames.json: {write_frames()} samples")
    print("wal/: %s, %d records" % write_wal())
