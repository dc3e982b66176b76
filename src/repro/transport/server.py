"""Host a :class:`~repro.service.service.KNNService` behind a socket.

:class:`KNNServer` binds a TCP (or Unix-domain) listening socket, accepts
connections, and runs one reader loop per connection
(:func:`serve_connection`).  Every inbound frame is one protocol message:
the data-plane trio (:class:`~repro.service.messages.PositionUpdate`,
:class:`~repro.service.messages.UpdateBatch`) plus the session/control
frames of :mod:`repro.transport.codec`.  :func:`execute_frame` resolves
them into exactly the in-process service calls a local
:class:`~repro.service.session.Session` would have made — the engine's
message/object accounting is therefore *identical* whether a workload is
driven in-process or over the wire, and the server adds the one thing only
a real transport can measure: bytes, billed into the same
:class:`~repro.core.stats.CommunicationStats` via
:meth:`~repro.core.engine.ServingEngine.account_wire_bytes`.

Consistency model: one lock per hosted service serialises request handling
across connections, so update-stream epochs (:class:`UpdateBatch` frames)
are applied strictly *between* request batches — an epoch never overlaps a
position update.  Within one connection, requests are answered strictly in
arrival order, so clients may pipeline.

Meta frames (stats, aggregate stats, active objects, metrics, drains) are
served but not billed: they are diagnostics and operator traffic, not part
of the protocol.  Neither is a refused request.  One server hosts one
service, whose engine applies every epoch itself.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import stat
import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError, QueryError, ReproError, TransportError
from repro.obs.clock import clock as _obs_clock
from repro.obs.trace import TRACER
from repro.obs.metrics import (
    Histogram,
    REGISTRY,
    histogram as _obs_histogram,
    start_timer,
)
from repro.service.service import KNNService
from repro.service.session import Session
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
    OpenQuery,
    OpenSession,
    PositionUpdate,
    RefreshRequest,
    SessionClosed,
    SessionOpened,
    StatsRequest,
    StatsResponse,
    UpdateBatch,
    wire_size,
)
from repro.transport.stream import MessageStream

# Re-exported for callers of serve_connection.
from repro.service.messages import KNNResponse  # noqa: F401  (protocol surface)

__all__ = [
    "KNNServer",
    "MetricsListener",
    "execute_frame",
    "metrics_snapshot_frame",
    "serve_connection",
]


# Per-frame-type request service-time histograms, cached so the dispatch
# loop never re-derives a label key or touches the registry dict.
_REQUEST_HISTOGRAMS: Dict[str, Histogram] = {}


def _request_histogram(frame: str) -> Histogram:
    hist = _REQUEST_HISTOGRAMS.get(frame)
    if hist is None:
        hist = _obs_histogram("insq_request_seconds", frame=frame)
        _REQUEST_HISTOGRAMS[frame] = hist
    return hist


def metrics_snapshot_frame(service: Optional[KNNService] = None) -> MetricsSnapshot:
    """The process registry as a wire frame, plus live service gauges.

    When ``service`` is given, the snapshot also carries communication
    gauges (``insq_comm_*``, total and per query kind), the data epoch
    and the open-session count — read from the very objects the
    end-of-run bill prints, so a scrape reconciles with the printed
    totals by construction.  Building the frame takes only snapshot
    reads: serving it cannot perturb any counter it reports.
    """
    snapshot = REGISTRY.snapshot()
    gauges = list(snapshot.gauges)
    if service is not None:
        engine = service.engine
        comm = engine.communication.snapshot()
        names = [field.name for field in dataclasses.fields(comm)]
        for name in names:
            gauges.append((f"insq_comm_{name}", "", float(getattr(comm, name))))
        for kind, stats in sorted(engine.communication_by_kind().items()):
            for name in names:
                gauges.append(
                    (f"insq_comm_{name}", f"kind={kind}", float(getattr(stats, name)))
                )
        gauges.append(("insq_engine_epoch", "", float(service.epoch)))
        gauges.append(("insq_sessions_open", "", float(len(service.sessions()))))
        # The engine's cumulative maintenance timer as a gauge.
        gauges.append(
            ("insq_maintenance_seconds_total", "", float(engine.maintenance_seconds))
        )
    return MetricsSnapshot(
        counters=snapshot.counters,
        gauges=tuple(sorted(gauges)),
        histograms=snapshot.histograms,
    )


def execute_frame(
    service: KNNService,
    message: Any,
    session: Optional[Session] = None,
    request_bytes: Optional[int] = None,
) -> Tuple[Any, Optional[Session]]:
    """Run one billed request frame; returns its reply and its session.

    The one place a request becomes a service call, a reply frame and a
    bill: :func:`serve_connection` runs every billed frame through it and
    :meth:`~repro.durability.recovery.DurableKNNService._replay` every
    logged one, so a recovered service bills what the live one did.

    ``session`` is the one a :class:`PositionUpdate`,
    :class:`RefreshRequest` or :class:`CloseSession` names; the caller has
    decided who owns it.  An open returns the session it created.  With
    ``request_bytes`` given, the exchange is billed: the request's size
    plus the reply's :func:`wire_size`, both to the session served — but a
    close's reply and both halves of an :class:`UpdateBatch` go to the
    aggregate only.  A refused request raises before anything is billed.
    """
    query_id = None
    if isinstance(message, PositionUpdate):
        reply = session.update(message.position)
        query_id = message.query_id
    elif isinstance(message, RefreshRequest):
        reply = session.refresh()
        query_id = message.query_id
    elif isinstance(message, (OpenSession, OpenQuery)):
        if message.options:
            raise ConfigurationError(
                f"{type(message).__name__} carries options "
                f"{dict(message.options)!r}, which the engine does not take"
            )
        # kind="knn" (an OpenSession) routes to open_session.
        session = service.open_query(
            message.position,
            kind=getattr(message, "kind", "knn"),
            k=message.k,
            rho=message.rho,
        )
        query_id = session.query_id
        reply = SessionOpened(query_id=query_id)
    elif isinstance(message, CloseSession):
        if request_bytes is not None:
            # Billed before the close drops the session's record.
            service.engine.account_wire_bytes(
                message.query_id, uplink_bytes=request_bytes
            )
            request_bytes = 0
        session.close()
        reply = SessionClosed(query_id=message.query_id)
    elif isinstance(message, UpdateBatch):
        result = service.apply(message)
        reply = BatchApplied(
            epoch=result.epoch,
            new_indexes=result.new_indexes,
            deleted_indexes=result.deleted_indexes,
        )
    else:
        raise TransportError(f"unexpected {type(message).__name__} frame from client")
    if request_bytes is not None:
        # Settled before the reply is sent (wire_size is exact), so a
        # client that reads the counters right after it sees them final.
        service.engine.account_wire_bytes(
            query_id, uplink_bytes=request_bytes, downlink_bytes=wire_size(reply)
        )
    return reply, session


#: Frames served but not billed: diagnostics and operator traffic.
_META_REQUESTS = (
    DrainRequest,
    StatsRequest,
    ObjectsRequest,
    AggregateStatsRequest,
    MetricsRequest,
)


def serve_connection(
    service: KNNService,
    stream: MessageStream,
    service_lock: Optional[threading.Lock] = None,
    orphans: Optional[Dict[int, Session]] = None,
    draining: Optional[threading.Event] = None,
) -> None:
    """Serve one connection until the peer disconnects.

    Used by :class:`KNNServer` for every accepted socket connection.

    Sessions opened over the connection are owned by it: a disconnect
    (clean or not) closes whatever the peer left open, so a vanished
    client cannot keep receiving invalidation traffic forever — the same
    guarantee the in-process ``with`` block gives.  The one exception is a
    *drain*: after a :class:`~repro.transport.codec.DrainRequest` (or with
    ``draining`` set), the connection's sessions are parked instead —
    handed to the orphan pool when one is shared, left open in the durable
    state either way — so a successor can claim them.

    Every billed frame runs through :func:`execute_frame` under the service
    lock, once the connection has resolved which session it names; its
    acknowledgement leaves through :meth:`~repro.service.service.
    KNNService.durability_barrier` *outside* the lock — under a
    group-commit WAL, many connections ride one fsync while the service
    keeps executing.  A refused request (a typed error, such as naming
    another connection's session) is answered with an unbilled
    :class:`~repro.transport.codec.ErrorMessage` and bills nothing: the
    log holds only what succeeded, so recovery could not bill it again.

    Args:
        orphans: a pool of recovered sessions *shared across connections*
            (guarded by ``service_lock``).  The first connection to
            reference an orphaned query id claims that session and owns
            it from then on; unclaimed orphans survive connection churn —
            a health-check probe that connects and disconnects cannot
            destroy recovered sessions.
        draining: when set (by :meth:`KNNServer.drain`), the connection's
            end parks its sessions instead of closing them.
    """
    lock = service_lock if service_lock is not None else threading.RLock()
    engine = service.engine
    sessions: Dict[int, Session] = {}
    parked = False

    def resolve(query_id: int) -> Session:
        """This connection's session for ``query_id``, claiming orphans."""
        session = sessions.get(query_id)
        if session is None and orphans is not None:
            with lock:
                session = orphans.pop(query_id, None)
            if session is not None:
                sessions[query_id] = session
        if session is None:
            # QueryError, like the in-process surface: a stale session
            # id is a query problem, not a wire problem.
            raise QueryError(f"query {query_id} is not a session of this connection")
        return session

    try:
        while True:
            received = stream.receive()
            if received is None:
                return
            message, nbytes = received
            started = start_timer()
            try:
                if not isinstance(message, _META_REQUESTS):
                    session = None
                    if isinstance(message, (PositionUpdate, RefreshRequest, CloseSession)):
                        session = resolve(message.query_id)
                    with lock:
                        reply, session = execute_frame(service, message, session, nbytes)
                        token = service.durability_token()
                    service.durability_barrier(token)
                    if isinstance(reply, SessionOpened):
                        sessions[reply.query_id] = session
                    elif isinstance(reply, SessionClosed):
                        del sessions[reply.query_id]
                    stream.send(reply)
                elif isinstance(message, DrainRequest):
                    # Park-and-checkpoint: after this acknowledgement the
                    # connection's sessions are claimable by a successor
                    # from the orphan pool (a rolling socket restart).
                    with lock:
                        parked = True
                        wal_seq = 0
                        checkpoint = getattr(service, "checkpoint", None)
                        if checkpoint is not None:
                            checkpoint()
                            wal_seq = service.wal.last_seq
                    stream.send(
                        DrainAck(
                            wal_seq=wal_seq, session_ids=tuple(sorted(sessions))
                        )
                    )
                elif isinstance(message, StatsRequest):
                    with lock:
                        aggregate = engine.communication.snapshot()
                        per_session: Tuple = ()
                        if message.per_session:
                            per_session = tuple(
                                sorted(engine.per_query_communication().items())
                            )
                    stream.send(
                        StatsResponse(aggregate=aggregate, per_session=per_session)
                    )
                elif isinstance(message, ObjectsRequest):
                    with lock:
                        response = ObjectsResponse(
                            epoch=service.epoch,
                            indexes=service.active_object_indexes(),
                        )
                    stream.send(response)
                elif isinstance(message, AggregateStatsRequest):
                    with lock:
                        stats = service.aggregate_stats()
                    stream.send(AggregateStatsResponse(stats=stats))
                else:
                    # A MetricsRequest reads snapshots only, so it can
                    # never alter the counters it reports.
                    with lock:
                        response = metrics_snapshot_frame(service)
                    stream.send(response)
            except ReproError as error:
                stream.send(ErrorMessage.from_exception(error))
            if started is not None:
                elapsed = _obs_clock() - started
                frame_name = type(message).__name__
                _request_histogram(frame_name).observe(elapsed)
                if TRACER.enabled:
                    TRACER.add("request", started, elapsed, frame=frame_name)
    except TransportError:
        # Stream corruption (or a send into a dead socket): the connection
        # is unrecoverable; fall through to the cleanup below.
        pass
    finally:
        with lock:
            if parked or (draining is not None and draining.is_set()):
                # Parked sessions stay open: the durable state (and, when
                # shared, the orphan pool) carries them to a successor.
                if orphans is not None:
                    for query_id, session in sessions.items():
                        if not session.closed:
                            orphans[query_id] = session
            else:
                for session in sessions.values():
                    if not session.closed:
                        session.close()
        sessions.clear()
        stream.close()


class _Listener:
    """The socket lifecycle both listeners share: an accept thread that hands
    every connection (a :class:`MessageStream`) to ``_serve`` on its own
    daemon thread, and a :meth:`stop` that drops them all."""

    _listener: Optional[socket.socket] = None
    _running = False

    def _listen(self, listener: socket.socket, name: str) -> None:
        """Start accepting on ``listener`` (bound and listening)."""
        self._listener, self._running = listener, True
        self._state_lock = threading.Lock()
        self._streams: List[MessageStream] = []
        self._threads: List[threading.Thread] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(name,), name=f"{name}-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self, name: str) -> None:
        while self._running:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            if sock.family != socket.AF_UNIX:
                # Latency over throughput, like connect(): replies are small
                # frames, and a pipelining client must not wait out Nagle.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            stream = MessageStream(sock)
            thread = threading.Thread(
                target=self._serve, args=(stream,), name=f"{name}-conn", daemon=True
            )
            with self._state_lock:
                self._streams.append(stream)
                self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        """Stop accepting, drop every connection, join the threads."""
        if not self._running:
            return
        self._running = False
        try:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does (accept returns with an error immediately).
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)
        with self._state_lock:
            streams, threads = list(self._streams), list(self._threads)
            self._streams.clear()
            self._threads.clear()
        for stream in streams:
            stream.close()
        for thread in threads:
            thread.join(timeout=5.0)


class KNNServer(_Listener):
    """Serve one :class:`~repro.service.service.KNNService` over sockets.

    Args:
        service: the service to host (its engine does the accounting).
        host, port: TCP endpoint; ``port=0`` binds an ephemeral port (read
            the real one from :attr:`address` after :meth:`start`).
        path: Unix-domain socket path; mutually exclusive with TCP.
        backlog: listen backlog.
        adopt_sessions: place the service's already-open sessions (a
            recovered :class:`~repro.durability.recovery.
            DurableKNNService` arrives with them) in a shared orphan
            pool; the first connection to *reference* each session
            claims it, after its client re-attaches via
            :meth:`~repro.transport.client.RemoteService.attach_session`.
            Unclaimed sessions survive connection churn, so probes and
            unrelated clients cannot destroy recovered state.

    Use as a context manager, or call :meth:`start` / :meth:`stop`::

        with KNNServer(service) as server:
            client = connect(server.address)
            ...
    """

    def __init__(
        self,
        service: KNNService,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
        backlog: int = 16,
        adopt_sessions: bool = False,
    ):
        self._service = service
        self._host = host
        self._port = port
        self._path = path
        self._backlog = backlog
        # The pool always exists (a drain parks sessions into it even on a
        # fresh server); adopt_sessions decides whether the service's
        # pre-existing sessions are claimable through it.
        self._orphans: Dict[int, Session] = (
            {session.query_id: session for session in service.sessions()}
            if adopt_sessions
            else {}
        )
        self._service_lock = threading.RLock()
        self._draining = threading.Event()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def service(self) -> KNNService:
        """The hosted service (the in-process view of the same engine)."""
        return self._service

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._running

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun."""
        return self._draining.is_set()

    @property
    def orphans(self) -> Dict[int, Session]:
        """The claimable-session pool (recovered and drain-parked)."""
        return self._orphans

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        """The bound endpoint: ``(host, port)`` for TCP, the path for Unix."""
        if self._listener is None:
            raise TransportError("the server has not been started")
        if self._path is not None:
            return self._path
        bound = self._listener.getsockname()
        return (bound[0], bound[1])

    def __repr__(self) -> str:
        state = "running" if self._running else "stopped"
        endpoint = self._path or f"{self._host}:{self._port}"
        return f"KNNServer({endpoint}, {state})"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "KNNServer":
        """Bind, listen and start accepting connections (returns self)."""
        if self._running:
            raise TransportError("the server is already running")
        if self._path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            # A previous server on this path leaves its socket file behind
            # (nothing unlinks it on a crash); binding over a stale socket
            # is the expected restart flow, so clear it first.  Anything
            # that is not a socket is somebody else's file — keep it and
            # let bind fail loudly.
            try:
                if stat.S_ISSOCK(os.stat(self._path).st_mode):
                    os.unlink(self._path)
            except OSError:
                pass
            try:
                listener.bind(self._path)
            except OSError as error:
                listener.close()
                raise TransportError(f"cannot bind {self._path}: {error}")
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((self._host, self._port))
            except OSError as error:
                listener.close()
                raise TransportError(
                    f"cannot bind {self._host}:{self._port}: {error}"
                )
        listener.listen(self._backlog)
        self._listen(listener, "knn-server")
        return self

    def _serve(self, stream: MessageStream) -> None:
        serve_connection(
            self._service, stream, self._service_lock, self._orphans, self._draining
        )

    def stop(self) -> None:
        """Stop accepting, drop every connection, join the threads."""
        if self._running and self._path is not None:
            try:
                os.unlink(self._path)
            except OSError:
                pass
        super().stop()

    def drain(self) -> None:
        """Graceful shutdown with zero session loss.

        Stops accepting and disconnects every client, but the connections'
        sessions are *parked* — into the orphan pool and, for a durable
        service, the WAL — instead of closed.  The durable state is then
        checkpointed and its log released, so a successor process can
        :func:`~repro.durability.recovery.recover_service` the directory
        and re-adopt every session (``adopt_sessions=True``); clients
        re-attach by id and continue mid-stream.  This is the SIGTERM path
        of ``insq serve`` and one step of a rolling restart.
        """
        self._draining.set()
        self.stop()
        checkpoint = getattr(self._service, "checkpoint", None)
        if checkpoint is not None:
            with self._service_lock:
                checkpoint()
                self._service.close_wal()

    def __enter__(self) -> "KNNServer":
        if not self._running:
            self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()


class MetricsListener(_Listener):
    """A tiny codec-speaking stats endpoint for ``insq stats``.

    Answers each :class:`~repro.transport.codec.MetricsRequest` frame with
    ``provider()`` — a fresh :class:`~repro.transport.codec.MetricsSnapshot`
    per request.  Mounted by ``insq serve --stats-port`` next to a
    simulated workload, which has no :class:`KNNServer` of its own to ask:
    the provider is :func:`metrics_snapshot_frame` over the workload's
    service.  The provider runs on the listener's threads, outside every
    serving code path.

    Any other frame is answered with an :class:`~repro.transport.codec.
    ErrorMessage` — this endpoint serves diagnostics, not queries.
    """

    def __init__(
        self,
        provider,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._provider = provider
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
        except OSError as error:
            listener.close()
            raise TransportError(f"cannot bind {host}:{port}: {error}")
        listener.listen(8)
        self._listen(listener, "insq-stats")

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` endpoint."""
        bound = self._listener.getsockname()
        return (bound[0], bound[1])

    def _serve(self, stream: MessageStream) -> None:
        try:
            while True:
                received = stream.receive()
                if received is None:
                    return
                message, _ = received
                if isinstance(message, MetricsRequest):
                    try:
                        stream.send(self._provider())
                    except ReproError as error:
                        stream.send(ErrorMessage.from_exception(error))
                else:
                    stream.send(
                        ErrorMessage.from_exception(
                            TransportError(
                                f"the stats endpoint only answers "
                                f"MetricsRequest, not "
                                f"{type(message).__name__}"
                            )
                        )
                    )
        except TransportError:
            pass  # connection dropped; nothing to clean beyond the stream
        finally:
            stream.close()

    def __enter__(self) -> "MetricsListener":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()
