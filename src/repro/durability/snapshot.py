"""Checksummed, atomically-written engine snapshots.

A snapshot captures one :class:`~repro.core.engine.ServingEngine`'s *full*
serving state — shared index, registered query processors (prefetched
sets, guard sets, validity), epoch counter and
:class:`~repro.core.stats.CommunicationStats` — so that recovery restores
not just the data but the exact processor state: future answers *and*
future communication counters continue bit-identically (the restart-and-
replay oracle of ``tests/durability/``).

Container format::

    [8-byte magic] [u64 wal_seq] [u64 payload length] [32-byte sha256] [payload]

The payload is a pickle of the snapshot object (the recovery layer stores
the engine alone); ``wal_seq`` names the last write-ahead-log record the
state includes, so replay resumes exactly after it.  The digest covers
``wal_seq``, the length and the payload; any mismatch — bit rot, a torn
write that somehow survived the atomic rename — raises the typed
:class:`~repro.errors.SnapshotError`, and :func:`load_latest_snapshot`
falls back to the previous valid snapshot.

A build reads only the snapshots it writes: a file with an older magic is
refused whole, and the loader resolves no global outside
:data:`SNAPSHOT_CLASSES`.

Write protocol: serialize to ``<name>.tmp`` in the same directory, flush,
fsync, ``os.replace`` onto the final name, then fsync the directory — a
crash at any point leaves either the old snapshot set or the old set plus
one complete new snapshot, never a half-written visible file.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import types
from typing import Any, List, Tuple

from repro.errors import SnapshotError

__all__ = [
    "list_snapshots",
    "load_latest_snapshot",
    "read_snapshot",
    "write_snapshot",
]

#: File magic: identifies (and versions) the container layout.  Builds
#: that wrote ``INSQSNP1`` pickled a dict around the engine and may name
#: classes this build no longer has; their files are refused, not read.
SNAPSHOT_MAGIC = b"INSQSNP2"

_HEADER = struct.Struct("!QQ")  # wal_seq, payload length
_DIGEST_BYTES = 32

_PREFIX = "snapshot-"
_SUFFIX = ".snap"

#: Every global a snapshot may name: the classes a served engine of either
#: metric references with sessions of every query kind open, the paper's
#: baselines included, plus ``random.Random``.  The writer refuses any other
#: (a kind registered from outside this table cannot checkpoint); the reader
#: refuses any other name before it is looked up, so loading runs no code
#: but these classes' constructors and state restores.  A crafted state for
#: one of them, under a valid digest, is not refused here.
SNAPSHOT_CLASSES = frozenset(
    (module, name)
    for module, names in (
        ("random", ("Random",)),
        ("repro.baselines.policies", ("NaiveProcessor", "NaiveRoadProcessor")),
        ("repro.baselines.policies", ("VStarProcessor", "VStarRoadProcessor")),
        ("repro.core.engine", ("RegisteredQuery",)),
        ("repro.core.ins_euclidean", ("INSProcessor",)),
        ("repro.core.ins_road", ("INSRoadProcessor",)),
        ("repro.core.objects", ("QueryResult", "UpdateAction")),
        ("repro.core.road_server", ("MovingRoadKNNServer",)),
        ("repro.core.server", ("MovingKNNServer",)),
        ("repro.core.stats", ("CommunicationStats", "ProcessorStats")),
        ("repro.geometry.delaunay", ("DelaunayTriangulation",)),
        ("repro.geometry.order_k", ("OrderKCell",)),
        ("repro.geometry.point", ("Point",)),
        ("repro.geometry.polygon", ("ConvexPolygon",)),
        ("repro.geometry.primitives", ("BoundingBox",)),
        ("repro.index.vortree", ("VoRTree",)),
        ("repro.queries.influential", ("InfluentialResult", "InfluentialSitesProcessor")),
        ("repro.queries.region", ("OrderKRegionProcessor", "RegionResult")),
        ("repro.roadnet.graph", ("Edge", "RoadNetwork")),
        ("repro.roadnet.location", ("NetworkLocation",)),
        ("repro.roadnet.network_voronoi", ("EdgeOwnership", "NetworkVoronoiDiagram")),
        ("repro.roadnet.shortest_path", ("SearchStats",)),
    )
    for name in names
)


def _snapshot_name(wal_seq: int) -> str:
    return f"{_PREFIX}{wal_seq:012d}{_SUFFIX}"


class _Pickler(pickle.Pickler):
    """Refuses a class or function (what a pickle stores by name) outside the
    table as it is reached: no file is written that the reader refuses."""

    def reducer_override(self, obj: Any) -> Any:
        if isinstance(obj, (type, types.FunctionType, types.BuiltinFunctionType)):
            name = (obj.__module__, obj.__qualname__)
            if name not in SNAPSHOT_CLASSES:
                raise SnapshotError("cannot snapshot %s.%s: no snapshot class" % name)
        return NotImplemented


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in SNAPSHOT_CLASSES:
            raise SnapshotError(f"snapshot names {module}.{name}, which is no snapshot class")
        return super().find_class(module, name)


def write_snapshot(directory: str, payload: Any, wal_seq: int) -> str:
    """Atomically write one snapshot; returns the final file path.

    Args:
        directory: the durability directory (created if missing).
        payload: a picklable snapshot object.
        wal_seq: the last WAL sequence number the state includes (0 for
            the initial, pre-log state).

    Raises:
        SnapshotError: the payload names a class or function outside
            :data:`SNAPSHOT_CLASSES`; nothing is written.
    """
    buffer = io.BytesIO()
    _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    data = buffer.getvalue()
    os.makedirs(directory, exist_ok=True)
    header = _HEADER.pack(wal_seq, len(data))
    digest = hashlib.sha256(header + data).digest()
    final_path = os.path.join(directory, _snapshot_name(wal_seq))
    tmp_path = final_path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC)
        handle.write(header)
        handle.write(digest)
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, final_path)
    # The rename itself must survive a crash: fsync the directory entry.
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
    return final_path


def read_snapshot(path: str) -> Tuple[int, Any]:
    """Read and validate one snapshot; returns ``(wal_seq, payload)``.

    Raises:
        SnapshotError: another format (a file an older build wrote), a
            truncated container, length mismatch, checksum failure, or a
            payload that names a global outside :data:`SNAPSHOT_CLASSES`.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    magic = data[: len(SNAPSHOT_MAGIC)]
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(
            f"{path}: format {magic!r} is not {SNAPSHOT_MAGIC!r}: an older build's snapshot, or none"
        )
    header_end = len(SNAPSHOT_MAGIC) + _HEADER.size + _DIGEST_BYTES
    if len(data) < header_end:
        raise SnapshotError(f"{path}: truncated snapshot header")
    header = data[len(SNAPSHOT_MAGIC) : len(SNAPSHOT_MAGIC) + _HEADER.size]
    wal_seq, length = _HEADER.unpack(header)
    digest = data[len(SNAPSHOT_MAGIC) + _HEADER.size : header_end]
    payload = data[header_end:]
    if len(payload) != length:
        raise SnapshotError(
            f"{path}: snapshot declares {length} payload bytes but carries "
            f"{len(payload)}"
        )
    if hashlib.sha256(header + payload).digest() != digest:
        raise SnapshotError(f"{path}: snapshot checksum mismatch")
    try:
        return wal_seq, _Unpickler(io.BytesIO(payload)).load()
    except Exception as error:  # a valid checksum over an unloadable pickle
        raise SnapshotError(f"{path}: snapshot payload failed to load: {error}")


def list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """``(wal_seq, path)`` for every snapshot file, newest last.

    Lists by filename only — validation happens when a snapshot is read.
    """
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        if not (name.startswith(_PREFIX) and name.endswith(_SUFFIX)):
            continue
        seq_text = name[len(_PREFIX) : -len(_SUFFIX)]
        try:
            seq = int(seq_text)
        except ValueError:
            continue
        found.append((seq, os.path.join(directory, name)))
    return sorted(found)


def load_latest_snapshot(directory: str) -> Tuple[int, Any, str]:
    """Load the newest *valid* snapshot: ``(wal_seq, payload, path)``.

    A corrupt newest snapshot (failed checksum, torn tmp leftovers are
    never visible, but bit rot happens) is skipped and the previous valid
    one is used — the WAL suffix replayed on top simply grows.

    Raises:
        SnapshotError: when the directory holds no valid snapshot at all.
    """
    candidates = list_snapshots(directory)
    if not candidates:
        raise SnapshotError(f"{directory}: no snapshots found")
    last_error: SnapshotError = SnapshotError(
        f"{directory}: no valid snapshot found"
    )
    for wal_seq, path in reversed(candidates):
        try:
            read_seq, payload = read_snapshot(path)
            return read_seq, payload, path
        except SnapshotError as error:
            last_error = error
    raise SnapshotError(
        f"{directory}: every snapshot failed validation "
        f"(latest failure: {last_error})"
    )
