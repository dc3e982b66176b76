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

The payload is a pickle of an arbitrary snapshot object (the recovery
layer stores the engine plus lightweight session descriptors); ``wal_seq``
names the last write-ahead-log record the state includes, so replay
resumes exactly after it.  The digest covers the payload; any mismatch —
bit rot, a torn write that somehow survived the atomic rename — raises
the typed :class:`~repro.errors.SnapshotError`, and
:func:`load_latest_snapshot` falls back to the previous valid snapshot.

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
import sys
from typing import Any, List, Tuple

from repro.errors import SnapshotError

__all__ = [
    "list_snapshots",
    "load_latest_snapshot",
    "read_snapshot",
    "write_snapshot",
]

#: File magic: identifies (and versions) the container layout.
SNAPSHOT_MAGIC = b"INSQSNP1"

_HEADER = struct.Struct("!QQ")  # wal_seq, payload length
_DIGEST_BYTES = 32

#: Engine state graphs (Delaunay adjacency, shortest-path trees) can be
#: recursive to O(n) depth; pickling them needs more headroom than the
#: default interpreter limit.
_RECURSION_LIMIT = 100_000

_PREFIX = "snapshot-"
_SUFFIX = ".snap"


def _snapshot_name(wal_seq: int) -> str:
    return f"{_PREFIX}{wal_seq:012d}{_SUFFIX}"


def _pickle(payload: Any) -> bytes:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _RECURSION_LIMIT))
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    finally:
        sys.setrecursionlimit(limit)


class _Retired:
    """An object of a module this package no longer has, loaded as nothing."""

    def __setstate__(self, state: Any) -> None:
        pass


_RETIRED_DIAGRAM = ("repro.geometry.voronoi", "VoronoiDiagram")


class _Unpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        # Snapshots written while the VoR-tree kept an R-tree beside its
        # lists, or a diagram class between it and its dual, name those
        # classes; VoRTree.__setstate__ drops the attributes that held them.
        if module == "repro.index.rtree" or (module, name) == _RETIRED_DIAGRAM:
            return _Retired
        return super().find_class(module, name)


def _unpickle(data: bytes) -> Any:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, _RECURSION_LIMIT))
    try:
        return _Unpickler(io.BytesIO(data)).load()
    finally:
        sys.setrecursionlimit(limit)


def write_snapshot(directory: str, payload: Any, wal_seq: int) -> str:
    """Atomically write one snapshot; returns the final file path.

    Args:
        directory: the durability directory (created if missing).
        payload: any picklable snapshot object.
        wal_seq: the last WAL sequence number the state includes (0 for
            the initial, pre-log state).
    """
    os.makedirs(directory, exist_ok=True)
    data = _pickle(payload)
    digest = hashlib.sha256(data).digest()
    final_path = os.path.join(directory, _snapshot_name(wal_seq))
    tmp_path = final_path + ".tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC)
        handle.write(_HEADER.pack(wal_seq, len(data)))
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
        SnapshotError: bad magic, truncated container, length mismatch or
            checksum failure.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    header_end = len(SNAPSHOT_MAGIC) + _HEADER.size + _DIGEST_BYTES
    if len(data) < header_end:
        raise SnapshotError(f"{path}: truncated snapshot header")
    if data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: bad snapshot magic")
    wal_seq, length = _HEADER.unpack_from(data, len(SNAPSHOT_MAGIC))
    digest = data[len(SNAPSHOT_MAGIC) + _HEADER.size : header_end]
    payload = data[header_end:]
    if len(payload) != length:
        raise SnapshotError(
            f"{path}: snapshot declares {length} payload bytes but carries "
            f"{len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise SnapshotError(f"{path}: snapshot checksum mismatch")
    try:
        return wal_seq, _unpickle(payload)
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
