"""Multi-process sharding: one engine shard per worker process.

Within one CPython process the GIL serialises the pure-Python serving
work, so threads cannot scale it.  :class:`ProcessShardedDispatcher` shards
across real processes instead — deterministic ``i mod workers`` pinning and
a barrier per dispatch: each worker process builds its own replica
of the engine from a picklable :class:`ServiceSpec` and serves it over a
socketpair using the *exact* wire protocol of
:func:`~repro.transport.server.serve_connection` — the parent is just a
client holding one :class:`~repro.transport.client.RemoteService` per
worker.

Determinism is by construction, not by luck:

* sessions are pinned by the existing rule — the ``i``-th session opened
  lands on worker ``i % workers``, and each worker registers its sessions
  in global open order, so every engine shard sees a deterministic
  registration sequence;
* update batches are *broadcast*: every shard applies the same epochs in
  the same order, so the replicas never diverge (``apply`` cross-checks
  the shards' post-batch epochs and insert allocations and fails loudly
  if they ever disagree);

With ``replication="recompute"`` (the default, PR5's behaviour) every
shard re-runs each batch's index maintenance — W shards pay W× the
geometry.  ``replication="delta"`` elects shard 0 the *maintenance
leader*: only the leader applies the batch; it exports the resulting
repair delta as an :class:`~repro.transport.codec.IndexDelta` frame, and
the parent fans that frame out to the read replicas, which patch their
index copies directly (no repair floods, no Voronoi geometry) and commit
the same epoch with the same changed-set and payload.  Answers, epochs
and message/object counters stay bit-identical between the two modes —
the recompute mode is the oracle of the delta-equivalence tests — while
the replicas' maintenance cost drops to a dictionary patch;
* a session's answers depend only on the shared index (replicated) and
  its own processor state (pinned) — so the answer streams are
  bit-identical across worker counts, and identical to the in-process
  engine.

Communication accounting: each shard bills exactly what it exchanged, so
summing the shards over-counts only the broadcast — every worker billed
the same update batch once.  :meth:`ProcessShardedDispatcher.communication`
deduplicates that (a deployment sends one batch to *the service*, however
many shards fan it out internally), keeping the message/object counters
identical to a single-engine run at every worker count.  Byte counters are
deliberately left raw: the broadcast bytes really crossed ``workers``
process boundaries, and hiding that would be a dishonest wire bill.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import socket
import threading
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigurationError,
    ConnectionLost,
    ReproError,
    TransportError,
)
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.obs.clock import clock as _obs_clock
from repro.obs.metrics import (
    REGISTRY,
    counter as _obs_counter,
    histogram as _obs_histogram,
    merge_snapshots,
)
from repro.obs.trace import TRACER
from repro.service.messages import KNNResponse, PositionUpdate, UpdateBatch
from repro.service.service import KNNService, open_service
from repro.transport.client import RemoteService, RemoteSession
from repro.transport.codec import (
    BatchApplied,
    DeltaAck,
    IndexDelta,
    MetricsSnapshot,
    ObjectsRequest,
    ObjectsResponse,
)
from repro.transport.server import serve_connection
from repro.transport.stream import MessageStream

__all__ = ["ProcessShardedDispatcher", "ServiceSpec"]

# Pool-level fault/restart accounting, re-homed onto the registry: the
# dispatcher attributes (respawns, kills_injected, drains,
# handoff_seconds) stay the source of truth for the fault harness; these
# mirror the same increments so a scrape sees them too.
_POOL_RESPAWNS = _obs_counter("insq_shard_respawns_total")
_POOL_KILLS = _obs_counter("insq_shard_kills_total")
_POOL_DRAINS = _obs_counter("insq_shard_drains_total")
_HANDOFF_SECONDS = _obs_histogram("insq_handoff_seconds")


def _locked(method):
    """Serialise a dispatcher method on the pool lock.

    The pipelined dispatch writes raw frames on the worker socketpairs
    (bypassing each client's per-request lock), so a metrics scrape from
    another thread must never interleave with it; every method that
    touches a remote takes this lock.  Reentrant because fault-plan
    drains run inside :meth:`ProcessShardedDispatcher.apply`.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper

#: Grace period per escalation stage of :meth:`ProcessShardedDispatcher.close`
#: (EOF-wait, then SIGTERM-wait; SIGKILL follows).  A module constant so the
#: shutdown tests can shrink it instead of waiting out real wedged-worker
#: timeouts.
SHUTDOWN_GRACE_SECONDS = 5.0


@dataclass(frozen=True)
class ServiceSpec:
    """A picklable recipe for building one :class:`KNNService` replica.

    Worker processes rebuild the engine from this spec, so everything in
    it must describe the *initial* state only — the parent then replays
    the same session registrations and update epochs into every shard.
    """

    metric: str
    objects: Tuple[Any, ...]
    network: Any = None
    invalidation: str = "delta"

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))

    @classmethod
    def from_scenario(cls, scenario, invalidation: str = "delta") -> "ServiceSpec":
        """Build the spec for any workload scenario (either metric)."""
        metric = getattr(scenario, "metric", None)
        if metric == "road" or (metric is None and hasattr(scenario, "network")):
            return cls(
                metric="road",
                objects=tuple(scenario.object_vertices),
                network=scenario.network,
                invalidation=invalidation,
            )
        return cls(metric="euclidean", objects=tuple(scenario.points), invalidation=invalidation)

    def build(self) -> KNNService:
        """Construct a fresh service replica from the recipe."""
        return open_service(
            metric=self.metric,
            objects=list(self.objects),
            network=self.network,
            invalidation=self.invalidation,
        )

    def batch_payload(self, batch: UpdateBatch) -> int:
        """Object records the engine bills for ``batch`` on this metric.

        Mirrors :meth:`~repro.service.messages.UpdateBatch.payload_size`
        semantics: the road side applies moves natively (one record each),
        the Euclidean side decomposes each move into delete + reinsert
        (two records) before the engine sees it.
        """
        records = len(batch.inserts) + len(batch.deletes) + len(batch.moves)
        if self.metric == "euclidean":
            records += len(batch.moves)
        return records


def _worker_main(
    spec: ServiceSpec,
    sock: socket.socket,
    close_sockets: Tuple[socket.socket, ...] = (),
    wal_dir: Optional[str] = None,
    wal_fsync: str = "off",
    wal_segment_bytes: Optional[int] = None,
    role: str = "single",
) -> None:
    """Worker process entry: build (or recover) the shard, serve the socketpair.

    ``close_sockets`` are the parent-side descriptors this fork inherited
    but must not hold: a child keeping a copy of another worker's (or its
    own) parent socket would keep that connection half-open after the
    parent lets go — file-descriptor hygiene that keeps worker death and
    shutdown observable as EOF instead of a hang.

    With ``wal_dir`` set, the shard is durable: a fresh directory wraps
    the replica in a :class:`~repro.durability.recovery.DurableKNNService`;
    a directory with existing state means this worker is a *respawn* — it
    recovers (snapshot + WAL replay), and the recovered sessions are
    adopted by the new connection so the parent's handles keep working.

    ``role`` is the shard's maintenance-replication role (``"single"``,
    ``"leader"`` or ``"replica"`` — see :func:`~repro.transport.server.
    serve_connection`); a respawn keeps the role its slot had, so a
    recovered leader exports deltas again and a recovered replica keeps
    accepting them.
    """
    for other in close_sockets:
        try:
            other.close()
        except OSError:
            pass
    # The fork inherited the parent's accumulated instruments; zero them
    # so this shard's registry holds exactly this shard's observations
    # (the parent merges the shards' snapshots back together).
    REGISTRY.reset()
    TRACER.reset()
    sessions = None
    if wal_dir is not None:
        from repro.durability.recovery import (
            DurableKNNService,
            has_durable_state,
            recover_service,
        )

        if has_durable_state(wal_dir):
            service: KNNService = recover_service(
                wal_dir,
                fsync=wal_fsync,
                segment_bytes=wal_segment_bytes,
                wire_billing=True,
            )
            sessions = {s.query_id: s for s in service.sessions()}
        else:
            service = DurableKNNService(
                spec.build().engine,
                wal_dir,
                fsync=wal_fsync,
                segment_bytes=wal_segment_bytes,
                wire_billing=True,
            )
    else:
        service = spec.build()
    stream = MessageStream(sock)
    try:
        serve_connection(
            service, stream, sessions=sessions, replication_role=role
        )
    finally:
        stream.close()


class ProcessShardedDispatcher:
    """Advance pinned sessions across worker *processes* between epochs.

    The drop-in escalation of the thread-pool dispatcher: same
    deterministic pinning, same barrier semantics, but each shard is a
    real process with its own engine replica and its own GIL.  Within one
    :meth:`advance`, requests are pipelined — every worker's batch of
    position updates is written before any response is read, so the
    shards compute concurrently and the call is still a barrier.

    Fault tolerance: with ``wal_dir`` set, every shard runs a durable
    service (``wal_dir/shard-<i>``), and a worker that dies — detected as
    :class:`~repro.errors.ConnectionLost` on its socketpair, or killed on
    schedule by a :class:`~repro.testing.faults.FaultPlan` — is respawned;
    the replacement recovers from its snapshot + log, the parent rebinds
    the pinned session handles, re-sends whatever the dead worker never
    acknowledged (position updates are idempotent at the same position;
    a missed broadcast batch is detected by epoch and re-sent), and the
    run continues bit-identically.  Without ``wal_dir`` a dead worker is
    unrecoverable and surfaces as a typed :class:`ConnectionLost`.

    Args:
        spec: the engine recipe every worker builds.
        workers: shard (process) count, at least 1.
        wal_dir: durability directory; each shard logs under
            ``wal_dir/shard-<i>``.  ``None`` disables durability.
        wal_fsync: the shards' WAL fsync policy (``"off"`` by default:
            surviving worker kills needs no fsync, only machine crashes
            do).
        wal_segment_bytes: rotate each shard's WAL into sealed segments
            at roughly this size (``None`` keeps one growing file).
        faults: a :class:`~repro.testing.faults.FaultPlan` of scheduled
            worker kills and shard drains, applied by :meth:`apply` at
            the matching epochs (requires ``wal_dir``).
        replication: how update-batch index maintenance reaches the
            shards.  ``"recompute"`` (the default) broadcasts every batch
            and each replica re-runs the maintenance; ``"delta"`` sends
            the batch to the maintenance leader (shard 0) only and fans
            the leader's exported repair delta out to the read replicas
            instead (bit-identical state and counters, one geometry run
            per epoch instead of ``workers``).  With one worker the modes
            coincide and no delta is exported.

    Use as a context manager (or call :meth:`close`) so the worker
    processes are reaped promptly.
    """

    def __init__(
        self,
        spec: ServiceSpec,
        workers: int = 1,
        wal_dir: Optional[str] = None,
        wal_fsync: str = "off",
        wal_segment_bytes: Optional[int] = None,
        faults=None,
        replication: str = "recompute",
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {workers}")
        if replication not in ("recompute", "delta"):
            raise ConfigurationError(
                f"replication must be 'recompute' or 'delta', got {replication!r}"
            )
        if faults is not None and wal_dir is None:
            raise ConfigurationError(
                "fault injection needs wal_dir: a killed worker can only "
                "rejoin by replaying its log"
            )
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            raise ConfigurationError(
                "ProcessShardedDispatcher needs the 'fork' start method "
                "(socketpair file descriptors must survive into the worker)"
            )
        self._spec = spec
        self._workers = workers
        self._context = context
        # Serialises every remote-touching method (see _locked): dispatch
        # bypasses the per-client request lock, so a concurrent scrape
        # would otherwise interleave frames on a worker socketpair.
        self._lock = threading.RLock()
        self._wal_dir = wal_dir
        self._wal_fsync = wal_fsync
        self._wal_segment_bytes = wal_segment_bytes
        self._faults = faults
        self._replication = replication
        self._closed = False
        self._sessions: List[RemoteSession] = []
        self._worker_of: Dict[int, int] = {}
        self._remotes: List[RemoteService] = []
        self._processes: List[multiprocessing.Process] = []
        self._parent_socks: List[socket.socket] = []
        self._batches_applied = 0
        self._batch_records_billed = 0
        self._epoch = 0
        self._last_batch: Optional[UpdateBatch] = None
        self._last_delta: Optional[IndexDelta] = None
        self.respawns = 0
        self.kills_injected = 0
        self.drains = 0
        self.handoff_seconds: List[float] = []
        try:
            for worker_index in range(workers):
                self._spawn(worker_index)
        except Exception:
            self.close()
            raise

    def _shard_wal_dir(self, worker_index: int) -> Optional[str]:
        if self._wal_dir is None:
            return None
        return os.path.join(self._wal_dir, f"shard-{worker_index}")

    def _role_of(self, worker_index: int) -> str:
        """The maintenance-replication role of one shard slot.

        Delta replication needs a leader *and* at least one replica; with
        one worker the modes coincide, so no delta is exported.
        """
        if self._replication != "delta" or self._workers == 1:
            return "single"
        return "leader" if worker_index == 0 else "replica"

    def _spawn(self, worker_index: int) -> RemoteService:
        """Start worker ``worker_index`` and connect to it.

        Appends to the worker tables on first spawn, replaces the slot on
        a respawn.  The child is told to close every parent-side socket it
        inherits (the other workers' and its own), so connection state
        stays observable from the parent.
        """
        parent_sock, child_sock = socket.socketpair()
        close_in_child = tuple(
            sock
            for index, sock in enumerate(self._parent_socks)
            if index != worker_index
        ) + (parent_sock,)
        process = self._context.Process(
            target=_worker_main,
            args=(
                self._spec,
                child_sock,
                close_in_child,
                self._shard_wal_dir(worker_index),
                self._wal_fsync,
                self._wal_segment_bytes,
                self._role_of(worker_index),
            ),
            name=f"knn-shard-{worker_index}",
            daemon=True,
        )
        process.start()
        child_sock.close()
        remote = RemoteService(
            MessageStream(parent_sock), endpoint=f"shard-{worker_index}"
        )
        if worker_index < len(self._processes):
            self._processes[worker_index] = process
            self._parent_socks[worker_index] = parent_sock
            self._remotes[worker_index] = remote
        else:
            self._processes.append(process)
            self._parent_socks.append(parent_sock)
            self._remotes.append(remote)
        return remote

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """The shard (worker process) count."""
        return self._workers

    @property
    def closed(self) -> bool:
        """True once the pool has been shut down."""
        return self._closed

    @property
    def metric(self) -> str:
        """The replicated engines' metric."""
        return self._spec.metric

    @property
    def replication(self) -> str:
        """The maintenance-replication mode (``"recompute"``/``"delta"``)."""
        return self._replication

    @property
    def epoch(self) -> int:
        """Data epochs applied through this dispatcher."""
        return self._epoch

    def sessions(self) -> List[RemoteSession]:
        """Open sessions in global open order (the pinning order)."""
        return [session for session in self._sessions if not session.closed]

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ProcessShardedDispatcher(metric={self._spec.metric!r}, "
            f"workers={self._workers}, sessions={len(self.sessions())}, {state})"
        )

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the dispatcher has been closed")

    # ------------------------------------------------------------------
    # Worker death: kill (injected), respawn, reconcile
    # ------------------------------------------------------------------
    def _kill_worker(self, worker_index: int) -> None:
        """SIGKILL one worker (fault injection) and reap it."""
        process = self._processes[worker_index]
        if process.pid is not None and process.is_alive():
            try:
                os.kill(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        process.join(timeout=10.0)
        self.kills_injected += 1
        _POOL_KILLS.inc()

    def _recover_worker(self, worker_index: int) -> RemoteService:
        """Respawn a dead worker, or raise the typed error if we can't.

        Without ``wal_dir`` there is nothing to replay — the shard's
        processor state died with the process — so the death surfaces as
        :class:`~repro.errors.ConnectionLost` naming the worker and its
        exit code.
        """
        process = self._processes[worker_index]
        process.join(timeout=10.0)
        if self._wal_dir is None:
            raise ConnectionLost(
                f"shard worker {worker_index} died (exit code "
                f"{process.exitcode}); without wal_dir its state is "
                "unrecoverable"
            )
        old_remote = self._remotes[worker_index]
        try:
            old_remote._stream.close()
        except ReproError:
            pass
        remote = self._handoff(worker_index, old_remote)
        self.respawns += 1
        _POOL_RESPAWNS.inc()
        return remote

    def _handoff(self, worker_index: int, old_remote: RemoteService) -> RemoteService:
        """Spawn worker ``worker_index``'s replacement and hand it the
        old connection's identity.

        The replacement replayed its log: same engine state, same query
        ids.  Carry the byte ledger over (those bytes were really
        exchanged with this shard) and rebind the pinned handles.
        """
        remote = self._spawn(worker_index)
        for attribute in (
            "bytes_sent",
            "bytes_received",
            "predicted_bytes_sent",
            "predicted_bytes_received",
            "meta_bytes_sent",
            "meta_bytes_received",
            "timeouts",
            "resends",
            "duplicate_frames",
            "duplicate_bytes",
        ):
            setattr(remote, attribute, getattr(old_remote, attribute))
        for session in self._sessions:
            if not session.closed and self._worker_of[id(session)] == worker_index:
                session._service = remote
                remote._sessions[session.query_id] = session
        return remote

    # ------------------------------------------------------------------
    # Graceful restart: drain-and-handoff under traffic
    # ------------------------------------------------------------------
    @_locked
    def drain_worker(self, worker_index: int) -> RemoteService:
        """Gracefully restart one shard while the others keep serving.

        The drain is cooperative where a kill is violent: the worker is
        asked to checkpoint its durable state and *park* its open
        sessions (they stay open in the log — no goodbyes), and it
        acknowledges before the connection closes.  The parent then reaps
        the process, spawns a replacement that recovers the checkpoint
        and adopts the parked sessions, carries the byte ledger over, and
        reconciles the replacement to the current epoch.  Every pinned
        session handle keeps working across the swap, and no other shard
        is touched — this is the building block a rolling restart walks
        across the pool.

        The wall-clock from drain request to reconciled replacement is
        appended to :attr:`handoff_seconds`.
        """
        self._ensure_open()
        if self._wal_dir is None:
            raise ConfigurationError(
                "draining needs wal_dir: the replacement worker rejoins by "
                "recovering the shard's checkpoint and log"
            )
        if not 0 <= worker_index < self._workers:
            raise ConfigurationError(
                f"worker index must be in [0, {self._workers}), "
                f"got {worker_index}"
            )
        started = _obs_clock()
        old_remote = self._remotes[worker_index]
        old_remote.drain()
        process = self._processes[worker_index]
        process.join(timeout=10.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=10.0)
        remote = self._handoff(worker_index, old_remote)
        self._reconcile_epoch(worker_index, self._epoch)
        self.drains += 1
        _POOL_DRAINS.inc()
        elapsed = _obs_clock() - started
        self.handoff_seconds.append(elapsed)
        _HANDOFF_SECONDS.observe(elapsed)
        return remote

    def _reconcile_epoch(
        self, worker_index: int, target_epoch: int
    ) -> Optional[BatchApplied]:
        """Bring a respawned worker to ``target_epoch``.

        A worker killed *before* it logged the epoch's traffic recovers
        one epoch behind; what it missed is re-sent — the update batch
        for a recomputing shard (or the leader, which then re-exports the
        epoch's repair delta), the retained :class:`IndexDelta` for a
        read replica (it never ran the geometry and must not start now).
        One killed *after* logging recovers already at the target —
        nothing to do.  Anything else means the replica can no longer be
        reconstructed and fails loudly.
        """
        remote = self._remotes[worker_index]
        state = remote._request(ObjectsRequest(), ObjectsResponse)
        if state.epoch == target_epoch:
            return None
        role = self._role_of(worker_index)
        if state.epoch == target_epoch - 1:
            if role == "replica":
                if (
                    self._last_delta is not None
                    and self._last_delta.epoch == target_epoch
                ):
                    remote._send(self._last_delta)
                    ack = remote._receive()
                    if not isinstance(ack, DeltaAck):
                        raise TransportError(
                            f"expected DeltaAck, got {type(ack).__name__}"
                        )
                    if ack.epoch != target_epoch:
                        raise TransportError(
                            f"respawned shard {worker_index} acknowledged "
                            f"epoch {ack.epoch}, expected {target_epoch}"
                        )
                    return None
            elif self._last_batch is not None:
                remote._send(self._last_batch)
                if role == "leader":
                    # The re-applied batch re-exports the epoch's delta;
                    # retain it so replica reconciliation can use it.
                    frame = remote._receive()
                    if not isinstance(frame, IndexDelta):
                        raise TransportError(
                            f"expected IndexDelta, got {type(frame).__name__}"
                        )
                    self._last_delta = frame
                ack = remote._receive()
                if not isinstance(ack, BatchApplied):
                    raise TransportError(
                        f"expected BatchApplied, got {type(ack).__name__}"
                    )
                if ack.epoch != target_epoch:
                    raise TransportError(
                        f"respawned shard {worker_index} acknowledged epoch "
                        f"{ack.epoch}, expected {target_epoch}"
                    )
                return ack
        raise TransportError(
            f"respawned shard {worker_index} recovered to epoch "
            f"{state.epoch}; cannot reach epoch {target_epoch}"
        )

    # ------------------------------------------------------------------
    # Session lifecycle (pinned by the i-mod-workers rule)
    # ------------------------------------------------------------------
    @_locked
    def open_session(self, position: Any, k: int, rho: float = 1.6) -> RemoteSession:
        """Open the next session on its pinned shard.

        The ``i``-th call lands on worker ``i % workers`` — a
        deterministic rule, so a workload replayed at any worker count
        pins identically.  The returned
        session carries a ``global_id`` (its open-order index) alongside
        the shard-local ``query_id``.
        """
        self._ensure_open()
        global_id = len(self._sessions)
        worker_index = global_id % self._workers
        session = self._remotes[worker_index].open_session(position, k=k, rho=rho)
        session.global_id = global_id
        self._sessions.append(session)
        self._worker_of[id(session)] = worker_index
        return session

    @_locked
    def open_query(
        self, position: Any, kind: str = "knn", *, k: int, rho: float = 1.6
    ) -> RemoteSession:
        """Open the next continuous query (any kind) on its pinned shard.

        Pinning is kind-blind: the ``i``-th open (session or query) lands
        on worker ``i % workers``, so mixed-kind workloads replay onto the
        same shards at any worker count.
        """
        self._ensure_open()
        global_id = len(self._sessions)
        worker_index = global_id % self._workers
        session = self._remotes[worker_index].open_query(position, kind=kind, k=k, rho=rho)
        session.global_id = global_id
        self._sessions.append(session)
        self._worker_of[id(session)] = worker_index
        return session

    # ------------------------------------------------------------------
    # Pipelined dispatch
    # ------------------------------------------------------------------
    @_locked
    def advance(
        self, assignments: Sequence[Tuple[RemoteSession, Any]]
    ) -> List[KNNResponse]:
        """Advance each session to its position; responses in input order.

        All requests are written before any response is read, so the
        shards serve their pinned subsets concurrently; the call returns
        (a barrier) once every response is in.  A shard-side failure is
        re-raised after the streams are drained back to protocol order.
        """
        self._ensure_open()
        assignment_list = list(assignments)
        per_worker: List[List[int]] = [[] for _ in range(self._workers)]
        seen = set()
        for position_index, (session, _) in enumerate(assignment_list):
            if id(session) in seen:
                raise ConfigurationError(
                    f"session {session.query_id} appears twice in one dispatch"
                )
            seen.add(id(session))
            worker_index = self._worker_of.get(id(session))
            if worker_index is None:
                raise ConfigurationError(
                    "session was not opened through this dispatcher"
                )
            per_worker[worker_index].append(position_index)
        # Write phase: every shard gets its whole request batch up front.
        # A send into a dead worker's socket may fail immediately or may
        # land in the kernel buffer and die there — either way the read
        # phase below catches it as ConnectionLost and recovers.
        send_dead = set()
        for worker_index, indexes in enumerate(per_worker):
            remote = self._remotes[worker_index]
            try:
                for position_index in indexes:
                    session, position = assignment_list[position_index]
                    remote._send(
                        PositionUpdate(query_id=session.query_id, position=position)
                    )
            except TransportError:
                send_dead.add(worker_index)
        # Read phase: drain each shard in its own FIFO order.
        responses: List[Optional[KNNResponse]] = [None] * len(assignment_list)
        first_error: Optional[ReproError] = None
        for worker_index, indexes in enumerate(per_worker):
            remote = self._remotes[worker_index]
            unread = list(indexes)
            if worker_index not in send_dead:
                while unread:
                    try:
                        message = remote._receive()
                    except ConnectionLost:
                        break  # dead mid-batch: recover below
                    except ReproError as error:
                        if first_error is None:
                            first_error = error
                        unread.pop(0)
                        continue
                    responses[unread.pop(0)] = message
                if not unread:
                    continue
            # The worker died with `unread` updates unacknowledged.  The
            # acknowledged prefix is in its log (replayed on recovery);
            # the rest may or may not have been applied before the crash —
            # but re-updating a session at the position it already holds
            # is free (zero round trips) and returns the identical answer,
            # so resending the whole suffix is safe either way.
            remote = self._recover_worker(worker_index)
            self._reconcile_epoch(worker_index, self._epoch)
            for position_index in unread:
                session, position = assignment_list[position_index]
                remote._send(
                    PositionUpdate(query_id=session.query_id, position=position)
                )
            for position_index in unread:
                try:
                    message = remote._receive()
                except ReproError as error:
                    if first_error is None:
                        first_error = error
                    continue
                responses[position_index] = message
        if first_error is not None:
            raise first_error
        for position_index, response in enumerate(responses):
            session, _ = assignment_list[position_index]
            session._last_response = response
        return responses

    # ------------------------------------------------------------------
    # The broadcast update stream
    # ------------------------------------------------------------------
    @_locked
    def apply(self, batch: UpdateBatch) -> BatchApplied:
        """Broadcast one :class:`UpdateBatch` to every shard as one epoch.

        Every engine replica applies the same batch; the acknowledgements
        are cross-checked (epoch and insert allocation must agree — a
        disagreement means the replicas diverged, which is a bug worth
        failing loudly for).  Raises the shards' common error when the
        batch is rejected everywhere (e.g. the population guard).

        This is also where a :class:`~repro.testing.faults.FaultPlan`
        fires: ``"before_batch"`` kills the victim before the broadcast
        reaches it (the respawn recovers one epoch behind and the batch is
        re-sent), ``"after_batch"`` kills it after its acknowledgement
        (the respawn replays the logged batch and needs nothing).  Either
        way the epoch completes on every shard before this returns.
        Scheduled :class:`~repro.testing.faults.ShardDrain` events fire
        last, once the epoch is fully applied — a drain is a graceful
        restart, so it always sees a consistent checkpointable state.

        With ``replication="delta"`` (and more than one worker) the batch
        is not broadcast: see :meth:`_apply_delta`.
        """
        self._ensure_open()
        if self._replication == "delta" and self._workers > 1:
            return self._apply_delta(batch)
        target_epoch = self._epoch + 1
        if self._faults is not None:
            for victim in self._faults.kills_for(target_epoch, "before_batch"):
                self._kill_worker(victim)
        self._last_batch = batch
        dead = set()
        for worker_index, remote in enumerate(self._remotes):
            try:
                remote._send(batch)
            except TransportError:
                dead.add(worker_index)
        acks: List[Optional[BatchApplied]] = [None] * len(self._remotes)
        errors: List[Optional[ReproError]] = [None] * len(self._remotes)
        for worker_index, remote in enumerate(self._remotes):
            if worker_index in dead:
                continue
            try:
                message = remote._receive()
                if not isinstance(message, BatchApplied):
                    raise TransportError(
                        f"expected BatchApplied, got {type(message).__name__}"
                    )
                acks[worker_index] = message
            except ConnectionLost:
                dead.add(worker_index)
            except ReproError as error:
                errors[worker_index] = error
        if self._faults is not None:
            # The after-batch victims acknowledged above; killing them now
            # makes "the batch is in the log" deterministic, not a race.
            for victim in self._faults.kills_for(target_epoch, "after_batch"):
                self._kill_worker(victim)
                dead.add(victim)
        for worker_index in sorted(dead):
            self._recover_worker(worker_index)
            ack = self._reconcile_epoch(worker_index, target_epoch)
            if ack is not None:
                acks[worker_index] = ack
        failed = [error for error in errors if error is not None]
        if failed:
            if len(failed) != len(self._remotes):
                raise TransportError(
                    "engine shards diverged: the update batch failed on "
                    f"{len(failed)} of {len(self._remotes)} workers "
                    f"(first failure: {failed[0]})"
                )
            raise failed[0]
        known = [ack for ack in acks if ack is not None]
        if not known:
            raise TransportError(
                "no shard acknowledgement survived the batch: every worker "
                "died after applying it and the ack content is gone"
            )
        reference = known[0]
        for ack in known[1:]:
            if ack != reference:
                raise TransportError(
                    "engine shards diverged: update batch acknowledged as "
                    f"{ack} vs {reference}"
                )
        self._batches_applied += 1
        self._batch_records_billed += self._spec.batch_payload(batch)
        self._epoch = reference.epoch
        if self._faults is not None:
            for victim in self._faults.drains_for(target_epoch):
                self.drain_worker(victim)
        return reference

    def _apply_delta(self, batch: UpdateBatch) -> BatchApplied:
        """Apply one epoch through the maintenance leader.

        Only shard 0 receives the batch and runs the index maintenance;
        it replies the epoch's repair delta (an unbilled
        :class:`IndexDelta`) ahead of its billed acknowledgement, and the
        parent fans the delta out to the read replicas, which patch their
        index copies and acknowledge with :class:`DeltaAck`.  Every
        shard's epoch advances before this returns — same barrier, same
        fault semantics as the broadcast path:

        * the leader dying mid-exchange recovers one epoch behind (the
          batch never reached its log), re-applies the re-sent batch and
          re-exports the delta;
        * a replica dying recovers from its logged deltas, at worst one
          epoch behind, and is caught up from the retained delta — it
          never re-runs the geometry;
        * a batch the leader *rejects* (e.g. the population guard) was
          committed nowhere — no delta exists, no replica moved — and the
          typed error propagates.
        """
        target_epoch = self._epoch + 1
        if self._faults is not None:
            for victim in self._faults.kills_for(target_epoch, "before_batch"):
                self._kill_worker(victim)
        self._last_batch = batch
        leader = self._remotes[0]
        reference: Optional[BatchApplied] = None
        delta: Optional[IndexDelta] = None
        leader_dead = False
        try:
            leader._send(batch)
        except TransportError:
            leader_dead = True
        if not leader_dead:
            try:
                frame = leader._receive()
                if not isinstance(frame, IndexDelta):
                    raise TransportError(
                        f"expected IndexDelta, got {type(frame).__name__}"
                    )
                delta = frame
                ack = leader._receive()
                if not isinstance(ack, BatchApplied):
                    raise TransportError(
                        f"expected BatchApplied, got {type(ack).__name__}"
                    )
                reference = ack
            except ConnectionLost:
                leader_dead = True
        if leader_dead:
            self._recover_worker(0)
            reference = self._reconcile_epoch(0, target_epoch)
            delta = self._last_delta
            if reference is None or delta is None or delta.epoch != target_epoch:
                # The leader committed the epoch before dying but its
                # delta frame never arrived; the replicas cannot be
                # caught up without re-running the geometry on them.
                raise TransportError(
                    f"the maintenance leader died after committing epoch "
                    f"{target_epoch} and its repair delta was lost"
                )
        self._last_delta = delta
        dead = set()
        for worker_index in range(1, self._workers):
            try:
                self._remotes[worker_index]._send(delta)
            except TransportError:
                dead.add(worker_index)
        for worker_index in range(1, self._workers):
            if worker_index in dead:
                continue
            try:
                ack = self._remotes[worker_index]._receive()
                if not isinstance(ack, DeltaAck):
                    raise TransportError(
                        f"expected DeltaAck, got {type(ack).__name__}"
                    )
                # Compare against the leader's actual epoch, not the
                # anticipated one: a batch that committed nothing (every
                # mutation a no-op) leaves the epoch where it was, and
                # the replicas — receiving a delta for their current
                # epoch — correctly did nothing too.
                if ack.epoch != reference.epoch:
                    raise TransportError(
                        f"read replica {worker_index} acknowledged epoch "
                        f"{ack.epoch}, leader is at {reference.epoch} — "
                        "the replicas diverged"
                    )
            except ConnectionLost:
                dead.add(worker_index)
        if self._faults is not None:
            for victim in self._faults.kills_for(target_epoch, "after_batch"):
                self._kill_worker(victim)
                dead.add(victim)
        for worker_index in sorted(dead):
            self._recover_worker(worker_index)
            ack = self._reconcile_epoch(worker_index, target_epoch)
            if worker_index == 0 and ack is not None:
                reference = ack
        self._batches_applied += 1
        self._batch_records_billed += self._spec.batch_payload(batch)
        self._epoch = reference.epoch
        if self._faults is not None:
            for victim in self._faults.drains_for(target_epoch):
                self.drain_worker(victim)
        return reference

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @_locked
    def communication(self, deduplicate_broadcast: bool = True) -> CommunicationStats:
        """Combined counters over every shard (snapshot).

        With ``deduplicate_broadcast`` (the default), each broadcast
        update batch is counted once — the data owners sent it to the
        service once, however many shards fanned it out — which makes the
        message/object counters identical to a single-engine run at every
        worker count.  Byte counters are always the raw sum: those bytes
        really crossed each process boundary.
        """
        self._ensure_open()
        combined = CommunicationStats()
        for remote in self._remotes:
            combined.merge(remote.communication())
        if deduplicate_broadcast and self._workers > 1:
            duplicates = self._workers - 1
            combined.uplink_messages -= duplicates * self._batches_applied
            combined.uplink_objects -= duplicates * self._batch_records_billed
        return combined

    @_locked
    def per_session_communication(self) -> Dict[int, CommunicationStats]:
        """Per-session counters keyed by *global* session id (snapshot)."""
        self._ensure_open()
        by_worker = [remote.per_session_communication() for remote in self._remotes]
        result: Dict[int, CommunicationStats] = {}
        for session in self._sessions:
            if session.closed:
                continue
            worker_index = self._worker_of[id(session)]
            record = by_worker[worker_index].get(session.query_id)
            if record is not None:
                result[session.global_id] = record
        return result

    @_locked
    def aggregate_stats(self) -> ProcessorStats:
        """Client-side cost counters summed over every shard (snapshot)."""
        self._ensure_open()
        total = ProcessorStats()
        for remote in self._remotes:
            total.merge(remote.aggregate_stats())
        return total

    @_locked
    def active_object_indexes(self) -> Tuple[int, ...]:
        """Active object indexes from shard 0 (all replicas agree)."""
        self._ensure_open()
        return self._remotes[0].active_object_indexes()

    @_locked
    def metrics_snapshot(self) -> MetricsSnapshot:
        """Every shard's registry, merged exactly, plus pool-level gauges.

        Each worker answers a (meta, idempotent)
        :class:`~repro.transport.codec.MetricsRequest` with its own
        registry; counters and the fixed-bucket histograms sum exactly
        across shards (shared bounds — the merge loses nothing), shard
        gauges are relabelled ``shard=<i>``, and the parent's own
        registry (client-side codec timings, fault counters) joins the
        sum.  Pool-level gauges carry the deduplicated communication
        bill — the same numbers :meth:`communication` reports — the pool
        epoch, open sessions, and each shard's epoch lag behind the pool.
        """
        self._ensure_open()
        shard_snapshots = [remote.metrics_snapshot() for remote in self._remotes]
        merged = merge_snapshots(
            shard_snapshots,
            gauge_labels=[f"shard={index}" for index in range(self._workers)],
        )
        merged = merge_snapshots([merged, REGISTRY.snapshot()])
        gauges = list(merged.gauges)
        comm = self.communication()
        for name in [field.name for field in fields(comm)]:
            gauges.append((f"insq_comm_{name}", "", float(getattr(comm, name))))
        gauges.append(("insq_engine_epoch", "", float(self._epoch)))
        gauges.append(("insq_sessions_open", "", float(len(self.sessions()))))
        gauges.append(
            ("insq_handoff_seconds_total", "", float(sum(self.handoff_seconds)))
        )
        for name, labels, value in merged.gauges:
            if name == "insq_engine_epoch" and labels.startswith("shard="):
                gauges.append(
                    ("insq_shard_epoch_lag", labels, float(self._epoch) - value)
                )
        return MetricsSnapshot(
            counters=merged.counters,
            gauges=tuple(sorted(gauges)),
            histograms=merged.histograms,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @_locked
    def close(self) -> None:
        """Close the shard connections and reap the workers (idempotent).

        Escalates: a worker that does not exit on EOF within the grace
        period is terminated (SIGTERM), and one that survives *that* is
        killed (SIGKILL) — shutdown must never hang on a wedged child.
        """
        if self._closed:
            return
        self._closed = True
        for remote in self._remotes:
            # Close the stream outright instead of RemoteService.close():
            # per-session goodbyes await replies without a timeout, so a
            # wedged (e.g. SIGSTOPped) worker would hang shutdown before
            # the join escalation below ever ran.  EOF is the worker's
            # shutdown signal either way — it closes its own sessions.
            remote._closed = True
            try:
                remote._stream.close()
            except ReproError:
                pass
        for process in self._processes:
            process.join(timeout=SHUTDOWN_GRACE_SECONDS)
            if process.is_alive():
                process.terminate()
                process.join(timeout=SHUTDOWN_GRACE_SECONDS)
            if process.is_alive():
                process.kill()
                process.join(timeout=SHUTDOWN_GRACE_SECONDS)

    def __enter__(self) -> "ProcessShardedDispatcher":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
