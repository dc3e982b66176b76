"""Crash recovery: snapshot + write-ahead-log replay for a served engine.

:class:`DurableKNNService` is a drop-in :class:`~repro.service.service.
KNNService` that persists every successful operation crossing the service
seam — session opens/closes, position updates, refreshes,
:class:`~repro.service.messages.UpdateBatch` epochs — to a
:class:`~repro.durability.wal.WriteAheadLog`, and periodically writes a
checksummed :mod:`~repro.durability.snapshot` of the full engine state.
:func:`recover_service` rebuilds the service from the newest valid
snapshot plus the WAL suffix.

The durability contract, precisely:

* **What is logged.**  Operations are logged *after* they execute and
  *before* their response is acknowledged, as the codec frames of
  :mod:`repro.transport.codec` (the log format is the wire format).  A
  failing operation (population guard, bad ``k``) mutates nothing and
  logs nothing; a crash between execute and log loses an operation whose
  response the client never received — indistinguishable, to every
  observer, from crashing just before it.
* **When fsync happens.**  Every append is flushed to the OS before the
  response goes out, so a killed *process* loses nothing; the
  ``fsync`` policy (``"always"``/``"group"``/``"batch"``/``"off"``;
  ``"batch"`` by default, here and in ``insq serve --fsync``) decides what
  additionally survives a machine crash (see :mod:`repro.durability.wal`).
* **What recovery guarantees.**  A recovered service is *bit-identical*
  to the pre-crash one: same answers (ids and distances), same
  :class:`~repro.core.stats.CommunicationStats` counters per session and
  in aggregate, same epoch, same future query-id assignments.  Snapshots
  capture exact processor state (prefetched sets, guard sets, validity),
  and replaying the logged request stream on top reproduces everything
  after — the ``tests/durability/`` suite holds this as its oracle.
* **What the bill holds.**  Messages and objects are counted by the
  engine, so replay recounts them.  Wire bytes (``wire_billing``) are
  billed by :func:`~repro.transport.server.execute_frame`, which both the
  server and replay run every request through.  A refused request is
  billed by neither: it is not in the log, so no replay could bill it
  again, and the client books it as unbilled traffic.
* **Sessions.**  A graceful close (an explicit
  :meth:`~repro.service.session.Session.close`, or a transport connection
  saying goodbye) is logged and therefore permanent; sessions open at the
  moment of a crash are recovered, with fresh
  :class:`~repro.service.session.Session` handles ready for adoption by
  a restarted server (``KNNServer(..., adopt_sessions=True)``).
* **One log, one engine.**  Every logged record is a frame a client sent
  across the service seam; replay re-runs each one against the single
  engine the snapshot restored, and refuses any other frame type.

A new durability directory starts with an *initial snapshot* (``wal_seq``
0) of the pre-traffic state, so recovery always has a base even when no
periodic checkpoint ever ran.  Recovery reads the newest snapshot that
validates, so the *cold* path — replaying the whole log from that initial
snapshot — is what runs when every later snapshot is gone or corrupt, and
only while the log still holds every record since seq 0 (checkpoints
purge sealed segments behind them).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.errors import DurabilityError, ReproError, SnapshotError, WALCorruptError
from repro.obs.metrics import histogram as _obs_histogram, start_timer
from repro.service.messages import KNNResponse, UpdateBatch
from repro.service.service import KNNService, open_service
from repro.service.session import Session
from repro.transport.codec import (
    CloseSession,
    OpenQuery,
    OpenSession,
    PositionUpdate,
    RefreshRequest,
    SessionOpened,
)
from repro.transport.server import execute_frame
from repro.durability.snapshot import (
    list_snapshots,
    load_latest_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.durability.wal import (
    WALRecord,
    WriteAheadLog,
    list_segments,
    purge_segments,
    replay_wal,
    scan_chain,
    scan_wal,
)

#: Snapshot + purge wall time per checkpoint (sync included: a
#: checkpoint's cost is everything between "decide to snapshot" and
#: "the log behind it is dead weight removed").
_CHECKPOINT_SECONDS = _obs_histogram("insq_checkpoint_seconds")

__all__ = [
    "DurableKNNService",
    "has_durable_state",
    "inventory",
    "open_durable_service",
    "recover_service",
    "wal_path",
]

#: The single log file inside a durability directory.
WAL_FILENAME = "wal.log"

_SNAPSHOT_VERSION = 1


def wal_path(wal_dir: str) -> str:
    """The write-ahead-log path inside a durability directory."""
    return os.path.join(wal_dir, WAL_FILENAME)


def has_durable_state(wal_dir: str) -> bool:
    """True when ``wal_dir`` already holds snapshots or a log to recover."""
    return (
        bool(list_snapshots(wal_dir))
        or os.path.exists(wal_path(wal_dir))
        or bool(list_segments(str(wal_dir)))
    )


class DurableKNNService(KNNService):
    """A :class:`KNNService` that survives the crash of its process.

    Construct over a *fresh* engine and an *empty* durability directory
    (an initial snapshot of the pre-traffic state is written immediately);
    use :func:`recover_service` to resurrect one from an existing
    directory.  Both go through this constructor: a fresh service is one
    recovered from its initial snapshot and an empty log.  The class is
    transparent to everything above the service seam — sessions,
    ``serve_connection``, ``RemoteSession`` — because all traffic already
    flows through the methods overridden here.

    Args:
        engine: the backing engine (must have no registered queries yet);
            ``None`` loads the engine and its sessions from the newest
            valid snapshot in ``wal_dir`` instead (see
            :func:`recover_service`).
        wal_dir: the durability directory (created if missing; must not
            already hold durable state unless ``engine`` is ``None``).
        fsync: the log's fsync policy (see
            :class:`~repro.durability.wal.WriteAheadLog`).
        snapshot_every: write a checkpoint snapshot after this many log
            appends (``None`` disables periodic checkpoints; the initial
            snapshot and explicit :meth:`checkpoint` calls still happen).
        segment_bytes: rotate the log into sealed segments at this size;
            each checkpoint then purges the segments its snapshot covers,
            so the on-disk log stays bounded (``None`` keeps the single
            ever-growing file).
        wire_billing: set True when the service is hosted behind
            ``serve_connection``, which bills wire bytes into the engine's
            counters.  Replay then bills each logged exchange as the server
            did, through the same :func:`~repro.transport.server.
            execute_frame`: the logged frame's length is the request's
            bytes, and the regenerated reply's
            :func:`~repro.transport.codec.wire_size` the reply's.  So even
            the *byte* counters recover bit-identically.
    """

    def __init__(
        self,
        engine,
        wal_dir: str,
        fsync: str = "batch",
        snapshot_every: Optional[int] = None,
        segment_bytes: Optional[int] = None,
        wire_billing: bool = False,
    ):
        wal_dir = str(wal_dir)
        fresh = engine is not None
        snapshot_seq, sessions = 0, ()
        if not fresh:
            snapshot_seq, payload, _ = load_latest_snapshot(wal_dir)
            if not isinstance(payload, dict) or payload.get("version") != _SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"{wal_dir}: unsupported snapshot payload (version "
                    f"{payload.get('version') if isinstance(payload, dict) else '?'})"
                )
            engine, sessions = payload["engine"], payload["sessions"]
        super().__init__(engine)
        self._wal_dir = wal_dir
        self._replaying = False
        self._snapshot_every = snapshot_every
        self._appends_since_snapshot = 0
        self._wire_billing = wire_billing
        if fresh:
            if engine.query_count:
                raise DurabilityError(
                    f"cannot make an engine with {engine.query_count} registered "
                    "queries durable: its sessions would be unrecoverable"
                )
            if has_durable_state(wal_dir):
                raise DurabilityError(
                    f"{wal_dir} already holds durable state; use recover_service()"
                )
            os.makedirs(wal_dir, exist_ok=True)
            # The base of every recovery: the pre-traffic state at wal_seq 0.
            self._write_snapshot(wal_seq=0)
        for entry in sessions:
            # Pre-queries-era snapshots store (query_id, k, rho) triples.
            query_id, k, rho = entry[:3]
            kind = entry[3] if len(entry) > 3 else "knn"
            self._sessions[query_id] = Session(self, query_id, k=k, rho=rho, kind=kind)
        log_file = wal_path(wal_dir)
        # raises WALCorruptError on corruption (of the chain or the active)
        records = replay_wal(log_file, after_seq=snapshot_seq)
        if records and records[0].seq > snapshot_seq + 1:
            raise DurabilityError(
                f"{wal_dir}: log starts at seq {records[0].seq} but the "
                f"chosen snapshot covers only up to {snapshot_seq} — the "
                "records between were purged behind a later checkpoint"
            )
        # Opening the writer repairs the torn tail; replay happens with the
        # log already open but logging suppressed (self._replaying).
        self._wal = WriteAheadLog(log_file, fsync=fsync, segment_bytes=segment_bytes)
        self._replay(records)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def wal_dir(self) -> str:
        """The durability directory."""
        return self._wal_dir

    @property
    def wal(self) -> WriteAheadLog:
        """The underlying write-ahead log."""
        return self._wal

    @property
    def recovering(self) -> bool:
        """True while WAL records are being replayed into this service."""
        return self._replaying

    def __repr__(self) -> str:
        return (
            f"DurableKNNService(metric={self.metric!r}, "
            f"objects={self.object_count}, sessions={self.session_count}, "
            f"epoch={self.epoch}, wal_dir={self._wal_dir!r})"
        )

    # ------------------------------------------------------------------
    # Logging (after execute, before acknowledge)
    # ------------------------------------------------------------------
    def _log(self, *messages: Any) -> None:
        if self._replaying:
            return
        for message in messages:
            self._wal.append(message)
        self._appends_since_snapshot += len(messages)

    def _checkpoint_if_due(self) -> None:
        """Take a due periodic checkpoint before the next logged request
        runs: by then the server has billed every logged exchange."""
        if self._snapshot_every is not None and (
            self._appends_since_snapshot >= self._snapshot_every
        ):
            self.checkpoint()

    def open_session(self, position: Any, k: int, rho: float = 1.6) -> Session:
        self._checkpoint_if_due()
        session = super().open_session(position, k=k, rho=rho)
        # The open/ack pair makes query-id assignment auditable: replay
        # asserts the deterministic engine hands out the logged id again.
        self._log(
            OpenSession(position=position, k=k, rho=rho),
            SessionOpened(query_id=session.query_id),
        )
        return session

    def open_query(
        self, position: Any, kind: str = "knn", *, k: int, rho: float = 1.6
    ) -> Session:
        if kind == "knn":
            # Routes through open_session, which logs the classic
            # OpenSession/SessionOpened pair — the log stays byte-identical
            # to a pre-queries-era kNN workload.
            return super().open_query(position, kind=kind, k=k, rho=rho)
        self._checkpoint_if_due()
        session = super().open_query(position, kind=kind, k=k, rho=rho)
        self._log(
            OpenQuery(kind=kind, position=position, k=k, rho=rho),
            SessionOpened(query_id=session.query_id),
        )
        return session

    def _deliver(self, query_id: int, position: Any) -> KNNResponse:
        self._checkpoint_if_due()
        response = super()._deliver(query_id, position)
        self._log(PositionUpdate(query_id=query_id, position=position))
        return response

    def _refresh(self, query_id: int) -> KNNResponse:
        self._checkpoint_if_due()
        response = super()._refresh(query_id)
        self._log(RefreshRequest(query_id=query_id))
        return response

    def _discard(self, session: Session) -> None:
        self._checkpoint_if_due()
        super()._discard(session)
        self._log(CloseSession(query_id=session.query_id))

    def apply(self, batch: UpdateBatch):
        self._checkpoint_if_due()
        result = super().apply(batch)
        self._log(batch)
        return result

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _write_snapshot(self, wal_seq: int) -> str:
        payload = {
            "version": _SNAPSHOT_VERSION,
            "metric": self.metric,
            "engine": self.engine,
            "sessions": [
                (session.query_id, session.k, session.rho, session.kind)
                for session in self._sessions.values()
            ],
        }
        return write_snapshot(self._wal_dir, payload, wal_seq)

    def checkpoint(self) -> str:
        """Write a snapshot of the current state; returns its path.

        The log is synced first, so the snapshot's ``wal_seq`` names a
        durable prefix; replay after recovery resumes exactly behind it.
        Sealed log segments the new snapshot covers are purged — recovery
        will never read behind its snapshot, so they are dead weight.
        """
        started = start_timer()
        self._wal.sync()
        snapshot_seq = self._wal.last_seq
        path = self._write_snapshot(snapshot_seq)
        purge_segments(self._wal_dir, snapshot_seq)
        self._appends_since_snapshot = 0
        _CHECKPOINT_SECONDS.observe_since(started)
        return path

    # ------------------------------------------------------------------
    # Acknowledgement barrier (used by serve_connection)
    # ------------------------------------------------------------------
    def durability_token(self) -> Optional[int]:
        """The log position an acknowledgement must wait on.

        Only the ``"group"`` policy needs a barrier: ``"always"`` is
        already durable when the append returns, and ``"batch"``/``"off"``
        deliberately trade the guarantee away.  Returning ``None`` for
        them keeps their acknowledgement path exactly as before.
        """
        if self._wal.fsync_policy == "group":
            return self._wal.last_seq
        return None

    def durability_barrier(self, token: Optional[int]) -> None:
        if token is not None:
            self._wal.wait_durable(token)

    # ------------------------------------------------------------------
    # Replay (used by recover_service)
    # ------------------------------------------------------------------
    def _replay(self, records: List[WALRecord]) -> None:
        """Apply a WAL suffix to this service.

        Each record runs through :func:`~repro.transport.server.
        execute_frame`, the function ``serve_connection`` runs it through
        live, billed by the logged frame's own length (``record.size``)
        when wire billing is on.  What only replay knows stays here: an
        open is paired with its logged ack and must get the same query id
        again, and a record the service refuses contradicts the log.
        """
        self._replaying = True
        try:
            index = 0
            while index < len(records):
                record = records[index]
                message = record.message
                index += 1
                session = ack = None
                if isinstance(message, SessionOpened):
                    # Its OpenSession/OpenQuery half predates the snapshot;
                    # the registration is already in the restored state.
                    continue
                if isinstance(message, (OpenSession, OpenQuery)):
                    if index == len(records):
                        # The ack never made the log: the client never saw
                        # this session, so it never happened.  (The engine
                        # registration it described died with the crash.)
                        break
                    ack = records[index].message
                    index += 1
                    if not isinstance(ack, SessionOpened):
                        raise DurabilityError(
                            f"WAL record {record.seq}: {type(message).__name__} "
                            f"not followed by its SessionOpened ack"
                        )
                elif isinstance(message, (PositionUpdate, RefreshRequest, CloseSession)):
                    session = self._sessions.get(message.query_id)
                    if session is None:
                        raise DurabilityError(
                            f"WAL record {record.seq}: {type(message).__name__} "
                            f"for unknown query {message.query_id}"
                        )
                try:
                    reply, _ = execute_frame(
                        self, message, session, record.size if self._wire_billing else None
                    )
                except ReproError as error:
                    raise DurabilityError(f"WAL record {record.seq}: {error}") from error
                if ack is not None and reply.query_id != ack.query_id:
                    raise DurabilityError(
                        f"replay diverged: engine assigned query id "
                        f"{reply.query_id}, log recorded {ack.query_id}"
                    )
        finally:
            self._replaying = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close_wal(self) -> None:
        """Sync (per policy) and close the log file (idempotent).

        Sessions are left untouched — this releases the file handle, it
        does not say goodbye on anyone's behalf.
        """
        self._wal.close()

    def close(self) -> None:
        """Close every open session (logged as goodbyes), then the log."""
        super().close()
        self.close_wal()


def open_durable_service(
    wal_dir: str,
    metric: str = "euclidean",
    objects=None,
    network=None,
    fsync: str = "batch",
    snapshot_every: Optional[int] = None,
    segment_bytes: Optional[int] = None,
) -> DurableKNNService:
    """Open a fresh durable service — :func:`~repro.service.service.
    open_service` plus a durability directory.

    ``wal_dir`` must not already hold durable state (that is what
    :func:`recover_service` is for).
    """
    service = open_service(metric=metric, objects=objects, network=network)
    return DurableKNNService(
        service.engine,
        wal_dir,
        fsync=fsync,
        snapshot_every=snapshot_every,
        segment_bytes=segment_bytes,
    )


def recover_service(
    wal_dir: str,
    fsync: str = "batch",
    snapshot_every: Optional[int] = None,
    segment_bytes: Optional[int] = None,
    wire_billing: bool = False,
) -> DurableKNNService:
    """Rebuild a :class:`DurableKNNService` from its durability directory.

    Loads the newest valid snapshot (falling back past corrupt ones),
    repairs the log's torn tail, replays the suffix, and reopens the log
    for appending — the recovered service continues bit-identically where
    the crashed one stopped acknowledging.

    Args:
        wal_dir: the durability directory to recover from.
        fsync: fsync policy for the reopened log.
        snapshot_every: periodic-checkpoint setting for the new instance.
        segment_bytes: rotation setting for the reopened log.
        wire_billing: True when the crashed service was hosted behind
            ``serve_connection`` — replay then re-bills the wire bytes of
            every replayed exchange (see :class:`DurableKNNService`).

    Raises:
        SnapshotError: no valid snapshot exists.
        WALCorruptError: the log is corrupt (CRC failure in an intact
            record — a torn tail is repaired, not raised).
        DurabilityError: the log contradicts the snapshot during replay.
    """
    return DurableKNNService(
        None,
        wal_dir,
        fsync=fsync,
        snapshot_every=snapshot_every,
        segment_bytes=segment_bytes,
        wire_billing=wire_billing,
    )


def inventory(wal_dir: str) -> Dict[str, Any]:
    """A machine-readable health report of one durability directory.

    Validates every snapshot's checksum and the log's CRC chain without
    building an engine; the ``insq recover`` subcommand prints this.
    """
    snapshots = []
    latest_valid: Optional[int] = None
    for wal_seq, path in list_snapshots(wal_dir):
        entry: Dict[str, Any] = {
            "wal_seq": wal_seq,
            "path": path,
            "bytes": os.path.getsize(path),
        }
        try:
            read_snapshot(path)
            entry["valid"] = True
            latest_valid = wal_seq
        except SnapshotError as error:
            entry["valid"] = False
            entry["error"] = str(error)
        snapshots.append(entry)

    log_file = wal_path(wal_dir)
    wal_report: Dict[str, Any] = {"path": log_file, "exists": os.path.exists(log_file)}
    chain_records = ()
    chain_corrupt = False
    if wal_report["exists"]:
        wal_report["bytes"] = os.path.getsize(log_file)
        try:
            scan = scan_wal(log_file)
            wal_report.update(
                records=len(scan.records),
                last_seq=scan.records[-1].seq if scan.records else 0,
                valid_bytes=scan.valid_bytes,
                torn_bytes=scan.torn_bytes,
                corrupt=False,
            )
        except WALCorruptError as error:
            wal_report.update(corrupt=True, error=str(error))

    sealed = list_segments(str(wal_dir))
    segment_report: Dict[str, Any] = {
        "count": len(sealed),
        "bytes": sum(os.path.getsize(path) for _, _, path in sealed),
        "first_seq": sealed[0][0] if sealed else None,
        "last_seq": sealed[-1][1] if sealed else None,
    }
    reclaimable = [
        (last_seq, path)
        for _, last_seq, path in sealed
        if latest_valid is not None and last_seq <= latest_valid
    ]
    segment_report["reclaimable_segments"] = len(reclaimable)
    segment_report["reclaimable_bytes"] = sum(
        os.path.getsize(path) for _, path in reclaimable
    )

    if not wal_report.get("corrupt", False):
        try:
            chain_records = scan_chain(log_file).records
        except WALCorruptError as error:
            chain_corrupt = True
            segment_report["error"] = str(error)

    replay_records: Optional[int] = None
    corrupt = wal_report.get("corrupt", False) or chain_corrupt
    if latest_valid is not None and not corrupt:
        replay_records = sum(
            1 for record in chain_records if record.seq > latest_valid
        )
    return {
        "directory": str(wal_dir),
        "snapshots": snapshots,
        "latest_valid_snapshot_seq": latest_valid,
        "wal": wal_report,
        "segments": segment_report,
        "replay_records": replay_records,
        "healthy": latest_valid is not None and not corrupt,
    }
