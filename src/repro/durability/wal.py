"""The write-ahead update log: every served operation, on disk, in order.

One :class:`WriteAheadLog` file records the full successful request stream
of a :class:`~repro.durability.recovery.DurableKNNService` — session
opens/closes, position updates, refreshes and :class:`~repro.service.
messages.UpdateBatch` epochs — as codec-encoded frames (the exact wire
representation of :mod:`repro.transport.codec`, so the log format *is* the
protocol).  Replaying the log against a snapshot reproduces the engine
bit-identically; see :mod:`repro.durability.recovery` for the contract.

Record framing, after an 8-byte file magic::

    [u32 payload length] [u64 sequence number] [u32 CRC32] [payload]

The CRC covers the sequence number and the payload, and sequence numbers
are strictly consecutive, so the reader can tell the two failure shapes
apart:

* a **torn tail** — the file ends before a record completes (the expected
  shape after a crash mid-append, at *any* byte offset) — is repaired by
  truncating to the last complete record;
* a **corrupt record** — intact framing but mangled content (CRC or
  sequence mismatch, or an impossible declared length) — raises the typed
  :class:`~repro.errors.WALCorruptError`; corruption in the middle of a
  log is not survivable by truncation and must fail loudly.

Durability contract: every append is flushed to the OS (``file.flush``)
before the call returns, so a killed *process* never loses an appended
record.  Whether the append also survives a machine crash is the fsync
policy: ``"always"`` fsyncs every append, ``"group"`` batches the appends
of a bounded latency window into one fsync (callers block in
:meth:`WriteAheadLog.wait_durable` until their record is covered, so the
acknowledged prefix is exactly as durable as ``"always"`` at amortized
cost), ``"batch"`` fsyncs only on :meth:`WriteAheadLog.sync` and close,
``"off"`` never fsyncs.

Segment rotation: with ``segment_bytes`` set, a filled active log is
*sealed* — renamed to ``wal-<first seq>-<last seq>.seg`` beside it — and a
fresh active file continues the sequence.  Sealed segments are immutable;
once a snapshot covers a segment's last record it can be deleted
(:func:`purge_segments`), so the log stops growing without bound.  The
active file is always ``wal.log`` and a never-rotated log's on-disk bytes
are unchanged from earlier releases.
"""

from __future__ import annotations

import io
import os
import re
import struct
import threading
import time
import zlib
from typing import Any, List, Optional, Tuple

from repro.core.objects import immutable
from repro.errors import ConfigurationError, TransportError, WALCorruptError
from repro.obs.metrics import (
    counter as _obs_counter,
    histogram as _obs_histogram,
    start_timer,
)
from repro.transport.codec import MAX_FRAME_BYTES, decode, encode

# Durability-path latency instruments.  ``insq_wal_fsyncs_total`` mirrors
# the per-log ``fsync_count`` attribute (the durability tests' source of
# truth) at the same increment site; the group-occupancy histogram counts
# how many appended records each group commit's fsync covered.
_WAL_APPEND_SECONDS = _obs_histogram("insq_wal_append_seconds")
_WAL_FSYNC_SECONDS = _obs_histogram("insq_wal_fsync_seconds")
_WAL_GROUP_OCCUPANCY = _obs_histogram("insq_wal_group_batch_occupancy")
_WAL_FSYNCS_TOTAL = _obs_counter("insq_wal_fsyncs_total")

__all__ = [
    "WALRecord",
    "WALScan",
    "WriteAheadLog",
    "list_segments",
    "purge_segments",
    "replay_wal",
    "scan_chain",
    "scan_wal",
    "segment_name",
]

#: File magic: identifies (and versions) the record framing below.
WAL_MAGIC = b"INSQWAL1"

_HEADER = struct.Struct("!IQI")  # payload length, sequence, crc32
_SEQ = struct.Struct("!Q")

#: Sanity bound on one record's payload (a codec frame can't exceed its
#: own limit, so a larger declared length can only be corruption).
_MAX_PAYLOAD = MAX_FRAME_BYTES

FSYNC_POLICIES = ("always", "group", "batch", "off")

#: The group-commit window: how long the syncer waits after waking so
#: concurrent appends can pile into the same fsync.
GROUP_WINDOW_SECONDS = 0.002

#: Sealed-segment naming: first and last contained sequence number.
_SEGMENT_RE = re.compile(r"^wal-(\d{12})-(\d{12})\.seg$")


def segment_name(first_seq: int, last_seq: int) -> str:
    """The filename a sealed segment spanning ``[first_seq, last_seq]``."""
    return f"wal-{first_seq:012d}-{last_seq:012d}.seg"


def list_segments(directory: str) -> List[Tuple[int, int, str]]:
    """Sealed segments in ``directory`` as ``(first_seq, last_seq, path)``,
    ordered by sequence."""
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _SEGMENT_RE.match(name)
        if match:
            found.append(
                (
                    int(match.group(1)),
                    int(match.group(2)),
                    os.path.join(directory, name),
                )
            )
    found.sort()
    return found


def purge_segments(directory: str, up_to_seq: int) -> Tuple[int, int]:
    """Delete sealed segments wholly covered by ``up_to_seq``.

    A segment is reclaimable once a durable snapshot's ``wal_seq`` reaches
    its last record — replay will never need it again.  The active file is
    never touched.  Returns ``(segments_deleted, bytes_reclaimed)``.
    """
    deleted = reclaimed = 0
    for _, last_seq, path in list_segments(directory):
        if last_seq <= up_to_seq:
            reclaimed += os.path.getsize(path)
            os.unlink(path)
            deleted += 1
    if deleted:
        _fsync_directory(directory)
    return deleted, reclaimed


def _fsync_directory(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@immutable
class WALRecord:
    """One decoded log record.

    Attributes:
        seq: the record's sequence number (consecutive from 1).
        message: the decoded protocol message.
        offset: byte offset of the record's header in the file.
        size: bytes of the logged frame (the header's payload length) —
            what the message cost on the wire, without encoding it again.
    """

    seq: int
    message: Any
    offset: int
    size: int


@immutable
class WALScan:
    """The outcome of scanning one log file.

    Attributes:
        records: every complete, CRC-valid record, in order.
        valid_bytes: file offset up to which the log is intact (magic plus
            complete records) — the truncation point that repairs a torn
            tail.
        torn_bytes: bytes past ``valid_bytes`` (0 for a cleanly closed
            log).
        start_seq: the sequence number the file's first record carries (or
            would carry, for an empty file) — 1 unless the file is a
            post-rotation active segment.
        next_seq: the sequence number the next append must carry.
    """

    records: Tuple[WALRecord, ...]
    valid_bytes: int
    torn_bytes: int
    start_seq: int = 1

    @property
    def next_seq(self) -> int:
        return self.records[-1].seq + 1 if self.records else self.start_seq


def _crc(seq: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(_SEQ.pack(seq)))


def scan_wal(path: str, expect_start: Optional[int] = None) -> WALScan:
    """Read a log file, separating intact records from the torn tail.

    Args:
        path: the log file to scan.
        expect_start: the sequence number the first record must carry.
            ``None`` (the default) accepts whatever the file starts with —
            1 for a never-rotated log, the continuation point for a
            post-rotation active segment — and only enforces that the
            records are strictly consecutive.

    Raises:
        WALCorruptError: when the magic is wrong or a *complete* record
            fails its CRC/sequence check (corruption, not truncation) —
            including a declared payload length beyond the codec's frame
            limit, which no legitimate writer can produce — or passes it
            but carries a payload the codec cannot decode.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(WAL_MAGIC):
        if data and not WAL_MAGIC.startswith(data):
            raise WALCorruptError(f"{path}: bad WAL magic")
        # A file cut inside the magic is a torn (empty) log.
        return WALScan(
            records=(),
            valid_bytes=0,
            torn_bytes=len(data),
            start_seq=expect_start or 1,
        )
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WALCorruptError(f"{path}: bad WAL magic")
    records: List[WALRecord] = []
    offset = len(WAL_MAGIC)
    expected_seq = expect_start
    while True:
        if offset + _HEADER.size > len(data):
            break  # torn inside a header
        length, seq, crc = _HEADER.unpack_from(data, offset)
        if length > _MAX_PAYLOAD:
            raise WALCorruptError(
                f"{path}: record at offset {offset} declares an impossible "
                f"payload of {length} bytes"
            )
        end = offset + _HEADER.size + length
        if end > len(data):
            break  # torn inside a payload
        payload = data[offset + _HEADER.size : end]
        if _crc(seq, payload) != crc:
            raise WALCorruptError(
                f"{path}: CRC mismatch in record at offset {offset} "
                f"(seq {seq})"
            )
        if expected_seq is None:
            if seq < 1:
                raise WALCorruptError(
                    f"{path}: record at offset {offset} carries seq {seq}"
                )
            expected_seq = seq
        if seq != expected_seq:
            raise WALCorruptError(
                f"{path}: record at offset {offset} carries seq {seq}, "
                f"expected {expected_seq}"
            )
        try:
            message = decode(payload)
        except TransportError as error:  # intact, but e.g. from a newer build
            raise WALCorruptError(
                f"{path}: record at offset {offset} (seq {seq}) does not decode: {error}"
            )
        records.append(WALRecord(seq=seq, message=message, offset=offset, size=length))
        expected_seq += 1
        offset = end
    return WALScan(
        records=tuple(records),
        valid_bytes=offset,
        torn_bytes=len(data) - offset,
        start_seq=records[0].seq if records else (expect_start or 1),
    )


def scan_chain(path: str) -> WALScan:
    """Scan a log *chain*: every sealed segment beside ``path``, then the
    active file, validated as one strictly-consecutive sequence.

    Sealed segments were fsynced before their rename, so a torn tail
    inside one — unlike in the active file — is corruption, not a crash
    shape.  The chain may start past sequence 1 (earlier segments purged
    behind a snapshot); :attr:`WALScan.start_seq` reports where it begins.
    """
    directory = os.path.dirname(path) or "."
    records: List[WALRecord] = []
    expected: Optional[int] = None
    for first_seq, last_seq, segment in list_segments(directory):
        if expected is not None and first_seq != expected:
            raise WALCorruptError(
                f"{segment}: segment chain gap — starts at seq {first_seq}, "
                f"expected {expected}"
            )
        scan = scan_wal(segment, expect_start=first_seq)
        if scan.torn_bytes:
            raise WALCorruptError(
                f"{segment}: sealed segment has a torn tail "
                f"({scan.torn_bytes} bytes)"
            )
        if not scan.records or scan.records[-1].seq != last_seq:
            raise WALCorruptError(
                f"{segment}: sealed segment ends at seq "
                f"{scan.records[-1].seq if scan.records else 'nothing'}, "
                f"name promises {last_seq}"
            )
        records.extend(scan.records)
        expected = last_seq + 1
    active_valid = active_torn = 0
    if os.path.exists(path):
        scan = scan_wal(path, expect_start=expected)
        records.extend(scan.records)
        active_valid, active_torn = scan.valid_bytes, scan.torn_bytes
    return WALScan(
        records=tuple(records),
        valid_bytes=active_valid,
        torn_bytes=active_torn,
        start_seq=records[0].seq if records else (expected or 1),
    )


def replay_wal(path: str, after_seq: int = 0) -> List[WALRecord]:
    """The records to replay: everything intact with ``seq > after_seq``,
    across the whole segment chain.

    The torn tail (if any) is silently skipped — those appends never
    acknowledged, so by the log-after-execute contract the operations they
    would describe count as never having happened.
    """
    scan = scan_chain(path)
    return [record for record in scan.records if record.seq > after_seq]


class WriteAheadLog:
    """Append-only log of codec-encoded protocol messages.

    Opening an *existing* log repairs it first: the file is scanned, a
    torn tail (from a crash mid-append) is truncated away, and appending
    resumes at the next sequence number — so a recovered service reuses
    the same file.  Opening a corrupt log (CRC failure in an intact
    record) raises instead; corruption is not survivable by truncation.

    Args:
        path: the log file (created, with its parent directory, if
            missing).
        fsync: ``"always"`` (fsync every append), ``"group"`` (a
            background syncer batches a bounded window of appends into one
            fsync; pair with :meth:`wait_durable` before acknowledging),
            ``"batch"`` (fsync on :meth:`sync` and :meth:`close` only) or
            ``"off"``.  Every policy still flushes each append to the OS,
            so records survive a killed process; the policy only decides
            what survives a machine crash.
        segment_bytes: seal and rotate the active file once it reaches
            this many bytes (``None`` disables rotation).
        start_seq: sequence number a *new or emptied* active file starts
            at; derived from the sealed segments beside ``path`` when not
            given.  A file that already holds records dictates its own
            continuation regardless.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "batch",
        segment_bytes: Optional[int] = None,
        start_seq: Optional[int] = None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self._path = str(path)
        self._fsync = fsync
        self._segment_bytes = segment_bytes
        self._closed = False
        self.append_count = 0
        self.fsync_count = 0
        self.rotations = 0
        self._lock = threading.Lock()
        parent = os.path.dirname(self._path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if start_seq is None:
            # Sealed segments pin where the active file must continue.
            # With none (never rotated, or every segment purged by a
            # checkpoint), the active file's own first record is the
            # authority — scan_wal infers it below.
            sealed = list_segments(os.path.dirname(self._path) or ".")
            start_seq = sealed[-1][1] + 1 if sealed else None
        if os.path.exists(self._path):
            scan = scan_wal(self._path)  # raises on corruption
            if scan.records:
                if start_seq is not None and scan.records[0].seq != start_seq:
                    raise WALCorruptError(
                        f"{self._path}: active log starts at seq "
                        f"{scan.records[0].seq}, the segment chain expects "
                        f"{start_seq}"
                    )
                start_seq = scan.records[0].seq
            elif start_seq is None:
                start_seq = scan.start_seq
            if scan.torn_bytes:
                with open(self._path, "r+b") as handle:
                    handle.truncate(scan.valid_bytes)
            self._next_seq = scan.records[-1].seq + 1 if scan.records else start_seq
            self._active_start_seq = start_seq
            self._handle: io.BufferedWriter = open(self._path, "ab")
            if scan.valid_bytes == 0:
                # The crash tore the file inside the magic itself; the
                # truncation above emptied it, so re-seed the magic.
                self._handle.write(WAL_MAGIC)
                self._handle.flush()
                self._do_fsync()
        else:
            if start_seq is None:
                start_seq = 1
            self._next_seq = start_seq
            self._active_start_seq = start_seq
            self._handle = open(self._path, "ab")
            self._handle.write(WAL_MAGIC)
            self._handle.flush()
            self._do_fsync()
        self._synced_seq = self._next_seq - 1
        self._sync_error: Optional[BaseException] = None
        self._group_cond = threading.Condition(self._lock)
        self._syncer: Optional[threading.Thread] = None
        if self._fsync == "group":
            self._syncer = threading.Thread(
                target=self._group_sync_loop, name="wal-group-sync", daemon=True
            )
            self._syncer.start()

    def _do_fsync(self) -> None:
        started = start_timer()
        os.fsync(self._handle.fileno())
        _WAL_FSYNC_SECONDS.observe_since(started)
        self.fsync_count += 1
        _WAL_FSYNCS_TOTAL.inc()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """The log file path."""
        return self._path

    @property
    def next_seq(self) -> int:
        """Sequence number the next :meth:`append` will carry."""
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended record (0 when empty)."""
        return self._next_seq - 1

    @property
    def fsync_policy(self) -> str:
        """The configured fsync policy."""
        return self._fsync

    @property
    def synced_seq(self) -> int:
        """Highest sequence number known to be on stable storage (only
        meaningful under the ``"always"`` and ``"group"`` policies)."""
        return self._synced_seq

    @property
    def closed(self) -> bool:
        return self._closed

    def segments(self) -> List[Tuple[int, int, str]]:
        """The sealed segments beside the active file, in order."""
        return list_segments(os.path.dirname(self._path) or ".")

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"WriteAheadLog({self._path!r}, fsync={self._fsync!r}, "
            f"last_seq={self.last_seq}, {state})"
        )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, message: Any) -> int:
        """Encode and append one protocol message; returns its seq number.

        The record is flushed to the OS before this returns (killed
        processes lose nothing); it is additionally fsynced under the
        ``"always"`` policy.  Under ``"group"`` the background syncer is
        woken instead — call :meth:`wait_durable` with the returned seq
        before acknowledging the operation it logs.
        """
        started = start_timer()
        payload = encode(message)
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    "cannot append to a closed WriteAheadLog"
                )
            seq = self._next_seq
            self._handle.write(_HEADER.pack(len(payload), seq, _crc(seq, payload)) + payload)
            self._handle.flush()
            self.append_count += 1
            self._next_seq = seq + 1
            if self._fsync == "always":
                self._do_fsync()
                self._synced_seq = seq
            if (
                self._segment_bytes is not None
                and self._handle.tell() >= self._segment_bytes
            ):
                self._rotate_locked()
            if self._fsync == "group":
                self._group_cond.notify_all()
        _WAL_APPEND_SECONDS.observe_since(started)
        return seq

    def wait_durable(self, seq: Optional[int] = None) -> None:
        """Block until record ``seq`` (default: the last append) is on
        stable storage — the acknowledgement barrier.

        ``"always"`` returns immediately (the append already fsynced);
        ``"group"`` waits for the covering group commit — many waiters
        share one fsync; ``"batch"`` issues a barrier fsync; ``"off"``
        is a no-op, because that policy promises nothing.
        """
        if seq is None:
            seq = self._next_seq - 1
        if self._fsync in ("always", "off"):
            return
        if self._fsync == "batch":
            self.sync()
            return
        with self._group_cond:
            while self._synced_seq < seq and not self._closed:
                if self._sync_error is not None:
                    raise self._sync_error
                self._group_cond.wait()
            if self._sync_error is not None:
                raise self._sync_error

    def _group_sync_loop(self) -> None:
        while True:
            with self._group_cond:
                while not self._closed and self._synced_seq >= self._next_seq - 1:
                    self._group_cond.wait()
                if self._closed:
                    return
            # The latency window: appends landing now share the fsync.
            time.sleep(GROUP_WINDOW_SECONDS)
            with self._group_cond:
                if self._closed:
                    return
                target = self._next_seq - 1
                if target <= self._synced_seq:
                    continue
                # How many appends this group commit's single fsync covers.
                _WAL_GROUP_OCCUPANCY.observe(float(target - self._synced_seq))
                try:
                    self._handle.flush()
                    self._do_fsync()
                except BaseException as error:  # pragma: no cover - disk loss
                    self._sync_error = error
                    self._group_cond.notify_all()
                    return
                self._synced_seq = target
                self._group_cond.notify_all()

    # ------------------------------------------------------------------
    # Segment rotation
    # ------------------------------------------------------------------
    def _rotate_locked(self) -> None:
        """Seal the active file and start a fresh one (lock held)."""
        first, last = self._active_start_seq, self._next_seq - 1
        if last < first:
            return  # nothing to seal
        self._handle.flush()
        if self._fsync != "off":
            self._do_fsync()
        self._handle.close()
        directory = os.path.dirname(self._path) or "."
        os.rename(self._path, os.path.join(directory, segment_name(first, last)))
        self._handle = open(self._path, "ab")
        self._handle.write(WAL_MAGIC)
        self._handle.flush()
        if self._fsync != "off":
            self._do_fsync()
            _fsync_directory(directory)
            self._synced_seq = max(self._synced_seq, last)
            if self._fsync == "group":
                self._group_cond.notify_all()
        self._active_start_seq = self._next_seq
        self.rotations += 1

    def sync(self) -> None:
        """Force appended records to stable storage (a barrier fsync)."""
        if self._closed:
            return
        with self._lock:
            if self._closed:
                return
            self._handle.flush()
            if self._fsync != "off":
                self._do_fsync()
                self._synced_seq = self._next_seq - 1
                if self._fsync == "group":
                    self._group_cond.notify_all()

    def close(self) -> None:
        """Sync (per policy) and close the file (idempotent)."""
        if self._closed:
            return
        self.sync()
        syncer = self._syncer
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._fsync == "group":
                self._group_cond.notify_all()
        if syncer is not None and syncer is not threading.current_thread():
            syncer.join(timeout=5.0)
        self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
