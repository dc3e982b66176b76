"""The remote client: drive a served engine through the wire protocol.

:func:`connect` opens a socket to a :class:`~repro.transport.server.
KNNServer` and returns a :class:`RemoteService` whose surface mirrors the
in-process :class:`~repro.service.service.KNNService`: it hands out
session handles, applies :class:`~repro.service.messages.UpdateBatch`
epochs, and reports communication.  Its :class:`RemoteSession` is the
in-process :class:`~repro.service.session.Session` — literally a subclass
that reuses every behaviour through the service's ``_deliver`` /
``_refresh`` / ``_discard`` seam — so ``simulate_server`` and user code
drive either without knowing which they hold::

    from repro.transport import connect

    with connect(server.address) as remote:
        with remote.open_session(start, k=5) as session:   # RemoteSession
            response = session.update(next_position)        # a wire round trip

The client measures its own traffic: every frame sent and received is
counted both as actual bytes (``len`` of the encoded frame) and as the
codec's :func:`~repro.transport.codec.wire_size` prediction, kept in
separate billable/meta buckets.  ``tests/transport/test_server_client.py``
reconciles these against each other and against the server engine's byte
counters — the measured-equals-predicted contract of the codec.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConnectionLost, QueryError, RequestTimeout, TransportError
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.obs.metrics import counter as _obs_counter
from repro.service.messages import KNNResponse, PositionUpdate, UpdateBatch
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
    RefreshRequest,
    SessionClosed,
    SessionOpened,
    StatsRequest,
    StatsResponse,
    wire_size,
)
from repro.transport.stream import MessageStream

__all__ = ["RemoteService", "RemoteSession", "connect", "parse_endpoint"]

#: Frame types that are diagnostics, not part of the billed protocol.
#: Drain frames are operator traffic: billing them would make a rolled
#: run's counters diverge from a never-rolled one's.  An error reply is
#: unbilled too, and so is the request it refuses (see ``_request``).
_META_TYPES = (
    ErrorMessage,
    StatsRequest,
    StatsResponse,
    ObjectsRequest,
    ObjectsResponse,
    AggregateStatsRequest,
    AggregateStatsResponse,
    DrainRequest,
    DrainAck,
    MetricsRequest,
    MetricsSnapshot,
)

#: Request frames that are safe to resend on the same ordered stream: they
#: read (or re-answer at the current position) without changing server
#: state, so executing one twice yields the identical response.  A
#: PositionUpdate or UpdateBatch is NOT here — replaying one would move
#: the world twice.
_IDEMPOTENT_TYPES = (
    RefreshRequest,
    StatsRequest,
    ObjectsRequest,
    AggregateStatsRequest,
    MetricsRequest,
)

# The client's fault-path counters, re-homed onto the registry: the
# legacy RemoteService attributes stay the source of truth (the fault
# harness asserts on them); these mirror the same increments so a scrape
# sees them too.
_CLIENT_TIMEOUTS = _obs_counter("insq_client_timeouts_total")
_CLIENT_RESENDS = _obs_counter("insq_client_resends_total")
_CLIENT_DUPLICATES = _obs_counter("insq_client_duplicate_frames_total")


def parse_endpoint(endpoint: str) -> Union[Tuple[str, int], str]:
    """Parse ``"host:port"`` / ``"unix:/some/path"`` into an address.

    Returns a ``(host, port)`` tuple for TCP or a filesystem path string
    for Unix-domain sockets — the two address shapes :func:`connect` and
    :class:`~repro.transport.server.KNNServer` share.
    """
    if endpoint.startswith("unix:"):
        path = endpoint[len("unix:") :]
        if not path:
            raise TransportError("unix endpoint is missing its path")
        return path
    if ":" not in endpoint:
        # A bare filesystem path (what KNNServer.address returns for a
        # Unix-domain server) — ports always come with a colon.
        return endpoint
    host, separator, port = endpoint.rpartition(":")
    if not separator or not host:
        raise TransportError(
            f"endpoint {endpoint!r} is neither HOST:PORT nor unix:PATH"
        )
    try:
        return (host, int(port))
    except ValueError:
        raise TransportError(f"endpoint {endpoint!r} has a non-numeric port")


class RemoteSession(Session):
    """A :class:`~repro.service.session.Session` whose service is remote.

    Every update is a wire round trip; the handle is otherwise a drop-in
    for the in-process class (context-managed, ``update(position) ->
    KNNResponse``, auto-close).  The engine-backed introspection moves to
    the server: :attr:`communication` performs a (meta, unbilled) stats
    round trip, and client-side :attr:`stats` are not available — the
    processor lives on the server.
    """

    @property
    def stats(self) -> ProcessorStats:
        raise QueryError(
            "per-session processor stats live on the server; read "
            "session.communication or RemoteService.aggregate_stats() instead"
        )

    @property
    def communication(self) -> CommunicationStats:
        """This session's communication counters (a server-side snapshot)."""
        self._ensure_open()
        return self._service._communication_for(self._query_id)


class RemoteService:
    """Client-side handle to one served :class:`KNNService`.

    Requests are strictly request/response in order over one connection;
    a lock makes the handle safe to share across threads (they serialise
    on the wire, preserving the protocol order).

    With ``request_timeout`` set, every request bounds its wait for the
    response and raises :class:`~repro.errors.RequestTimeout` on expiry.
    *Idempotent* requests (refresh, stats, objects) are then retried up to
    ``retries`` times with exponential backoff and deterministic jitter
    (seeded by ``retry_seed``); because the stream is ordered, each resend
    eventually produces a duplicate response, which the client drains —
    and counts in ``duplicate_frames``/``duplicate_bytes``, outside the
    billed/meta buckets — before the next request goes out.  Mutating
    requests (position updates, batches) are never resent: replaying one
    would move the world twice.

    Args:
        stream: the connected message stream.
        endpoint: display name of the peer (for reprs and errors).
        request_timeout: per-request response deadline in seconds
            (``None``, the default, waits forever — no behaviour change).
        retries: resend attempts for idempotent requests after a timeout.
        backoff: initial backoff before the first resend, in seconds
            (doubles per retry, plus uniform jitter of up to its own
            value).
        retry_seed: seed of the jitter RNG (fixed default keeps test runs
            reproducible).
        retry_rng: an explicit jitter RNG overriding ``retry_seed`` —
            anything with ``uniform(a, b)``; tests inject a stub so the
            retry path is deterministic without depending on the seed's
            happenstance draw order.
        retry_sleep: the backoff sleep function (default ``time.sleep``);
            tests inject a recorder so retry timing is asserted on the
            *requested* delays instead of wall-clock measurement.
    """

    def __init__(
        self,
        stream: MessageStream,
        endpoint: str = "?",
        request_timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.05,
        retry_seed: int = 0,
        retry_rng: Optional[Any] = None,
        retry_sleep: Optional[Any] = None,
    ):
        self._stream = stream
        self._endpoint = endpoint
        self._sessions: Dict[int, RemoteSession] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._request_timeout = request_timeout
        self._retries = max(0, int(retries))
        self._backoff = float(backoff)
        self._retry_rng = retry_rng if retry_rng is not None else random.Random(
            retry_seed
        )
        self._retry_sleep = retry_sleep if retry_sleep is not None else time.sleep
        self._pending_duplicates = 0
        # Measured vs predicted traffic, split into the billed protocol
        # and the unbilled meta frames (stats/objects diagnostics).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.predicted_bytes_sent = 0
        self.predicted_bytes_received = 0
        self.meta_bytes_sent = 0
        self.meta_bytes_received = 0
        # Fault-path accounting: timeouts seen, resends issued, and the
        # drained duplicate responses those resends produced.
        self.timeouts = 0
        self.resends = 0
        self.duplicate_frames = 0
        self.duplicate_bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once the connection has been closed."""
        return self._closed

    @property
    def session_count(self) -> int:
        """Number of currently open remote sessions."""
        return len(self._sessions)

    def sessions(self) -> List[RemoteSession]:
        """The open sessions (a snapshot list, safe to close while walking)."""
        return list(self._sessions.values())

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"RemoteService({self._endpoint}, sessions={len(self._sessions)}, "
            f"{state})"
        )

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------
    def _send(self, message: Any) -> int:
        sent = self._stream.send(message)
        if isinstance(message, _META_TYPES):
            self.meta_bytes_sent += sent
        else:
            self.bytes_sent += sent
            self.predicted_bytes_sent += wire_size(message)
        return sent

    def _receive(self, timeout: Optional[float] = None) -> Any:
        received = self._stream.receive(timeout=timeout)
        if received is None:
            raise ConnectionLost(f"server {self._endpoint} closed the connection")
        message, nbytes = received
        if isinstance(message, _META_TYPES):
            self.meta_bytes_received += nbytes
        else:
            self.bytes_received += nbytes
            self.predicted_bytes_received += wire_size(message)
        return message

    def _drain_duplicates(self) -> None:
        # Late responses to requests that were resent after a timeout:
        # identical in content to the answer already returned, they must
        # leave the stream before the next request's response is read.
        while self._pending_duplicates:
            received = self._stream.receive(timeout=self._request_timeout)
            if received is None:
                raise ConnectionLost(
                    f"server {self._endpoint} closed the connection"
                )
            _, nbytes = received
            self.duplicate_frames += 1
            self.duplicate_bytes += nbytes
            _CLIENT_DUPLICATES.inc()
            self._pending_duplicates -= 1

    def _request(self, message: Any, expected: type) -> Any:
        with self._lock:
            self._ensure_open()
            self._drain_duplicates()
            retryable = (
                self._retries > 0
                and self._request_timeout is not None
                and isinstance(message, _IDEMPOTENT_TYPES)
            )
            attempts = 1 + (self._retries if retryable else 0)
            outstanding = 0  # requests sent whose responses were not consumed
            delay = self._backoff
            try:
                for attempt in range(attempts):
                    sent = self._send(message)
                    outstanding += 1
                    if attempt:
                        self.resends += 1
                        _CLIENT_RESENDS.inc()
                    try:
                        response = self._receive(timeout=self._request_timeout)
                    except RequestTimeout:
                        self.timeouts += 1
                        _CLIENT_TIMEOUTS.inc()
                        if attempt + 1 >= attempts:
                            raise
                        self._retry_sleep(
                            delay + self._retry_rng.uniform(0.0, delay)
                        )
                        delay *= 2
                    else:
                        outstanding -= 1
                        break
            finally:
                # Whatever is still in flight will surface as duplicate
                # responses; remember to drain them before the next request.
                self._pending_duplicates += outstanding
            if isinstance(response, ErrorMessage):
                if not isinstance(message, _META_TYPES):
                    # The server bills a refused exchange nowhere: book the
                    # request beside its error reply, under meta.
                    self.bytes_sent -= sent
                    self.predicted_bytes_sent -= wire_size(message)
                    self.meta_bytes_sent += sent
                raise response.to_exception()
        if not isinstance(response, expected):
            raise TransportError(
                f"expected {expected.__name__}, got {type(response).__name__}"
            )
        return response

    def _ensure_open(self) -> None:
        if self._closed:
            raise TransportError("the remote service has been closed")

    # ------------------------------------------------------------------
    # Session lifecycle (the same surface KNNService offers)
    # ------------------------------------------------------------------
    def open_session(self, position: Any, k: int, rho: float = 1.6) -> RemoteSession:
        """Register a query on the server; returns its session handle."""
        opened = self._request(OpenSession(position=position, k=k, rho=rho), SessionOpened)
        session = RemoteSession(self, opened.query_id, k=k, rho=rho)
        self._sessions[opened.query_id] = session
        return session

    def open_query(
        self, position: Any, kind: str = "knn", *, k: int, rho: float = 1.6
    ) -> RemoteSession:
        """Register a continuous query of any kind; returns its session.

        ``kind="knn"`` routes through :meth:`open_session` so the wire
        exchange (and the server's durability log) stays identical to a
        plain kNN open; other kinds send an :class:`OpenQuery` frame.
        """
        if kind == "knn":
            return self.open_session(position, k=k, rho=rho)
        opened = self._request(
            OpenQuery(kind=kind, position=position, k=k, rho=rho), SessionOpened
        )
        session = RemoteSession(self, opened.query_id, k=k, rho=rho, kind=kind)
        self._sessions[opened.query_id] = session
        return session

    def attach_session(
        self, query_id: int, k: int, rho: float = 1.6, kind: str = "knn"
    ) -> RemoteSession:
        """Adopt a session that already exists on the server.

        No wire traffic: the handle simply binds to the given query id.
        This is the client half of crash recovery — a restarted server
        (``KNNServer(..., adopt_sessions=True)`` over a recovered
        :class:`~repro.durability.recovery.DurableKNNService`) still holds
        the sessions the crashed one did; reconnecting clients re-attach
        to their query ids and continue updating as if nothing happened.
        """
        if query_id in self._sessions:
            raise QueryError(f"query {query_id} already has a session handle")
        session = RemoteSession(self, query_id, k=k, rho=rho, kind=kind)
        self._sessions[query_id] = session
        return session

    # -- the Session seam ------------------------------------------------
    def _deliver(self, query_id: int, position: Any) -> KNNResponse:
        return self._request(
            PositionUpdate(query_id=query_id, position=position), KNNResponse
        )

    def _refresh(self, query_id: int) -> KNNResponse:
        return self._request(RefreshRequest(query_id=query_id), KNNResponse)

    def _discard(self, session: Session) -> None:
        self._sessions.pop(session.query_id, None)
        self._request(CloseSession(query_id=session.query_id), SessionClosed)

    # ------------------------------------------------------------------
    # The data-update stream
    # ------------------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> BatchApplied:
        """Apply one :class:`UpdateBatch` on the server as a data epoch."""
        return self._request(batch, BatchApplied)

    # ------------------------------------------------------------------
    # Server-side accounting (meta round trips, unbilled)
    # ------------------------------------------------------------------
    def communication(self) -> CommunicationStats:
        """The server engine's aggregate counters (snapshot)."""
        return self._request(StatsRequest(per_session=False), StatsResponse).aggregate

    def per_session_communication(self) -> Dict[int, CommunicationStats]:
        """The server's per-session counters, keyed by query id (snapshot)."""
        response = self._request(StatsRequest(per_session=True), StatsResponse)
        return dict(response.per_session)

    def _communication_for(self, query_id: int) -> CommunicationStats:
        record = self.per_session_communication().get(query_id)
        if record is None:
            raise QueryError(f"unknown query {query_id}")
        return record

    def aggregate_stats(self) -> ProcessorStats:
        """The server's summed client-side cost counters (snapshot)."""
        return self._request(AggregateStatsRequest(), AggregateStatsResponse).stats

    def metrics_snapshot(self) -> MetricsSnapshot:
        """The server's observability registry (snapshot, meta, idempotent).

        Counters, gauges and the exactly-mergeable latency histograms of
        :mod:`repro.obs` plus the live communication gauges — what
        ``insq stats`` prints and ``/metrics`` renders.
        """
        return self._request(MetricsRequest(), MetricsSnapshot)

    def active_object_indexes(self) -> Tuple[int, ...]:
        """Active object indexes, in the server index's native order."""
        return self._request(ObjectsRequest(), ObjectsResponse).indexes

    @property
    def epoch(self) -> int:
        """The server's current data epoch (a meta round trip)."""
        return self._request(ObjectsRequest(), ObjectsResponse).epoch

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> DrainAck:
        """Ask the server side to drain, then disconnect *without* closing
        the sessions.

        The server checkpoints its durable state, parks this connection's
        sessions (orphan pool + WAL), and acknowledges with the covered
        WAL position; the local handles are discarded unclosed, so a
        successor — this client reconnecting after a rolling restart, or
        another one — can claim every session by id and continue
        mid-stream.
        """
        ack = self._request(DrainRequest(), DrainAck)
        # No goodbyes: closing a session now would un-park it.
        self._sessions.clear()
        self._closed = True
        self._stream.close()
        return ack

    def close(self) -> None:
        """Close every open session, then the connection (idempotent)."""
        if self._closed:
            return
        for session in self.sessions():
            try:
                session.close()
            except QueryError:
                continue  # that one was already gone server-side; keep going
            except TransportError:
                break  # connection already gone; the server reaps sessions
        self._closed = True
        self._stream.close()

    def __enter__(self) -> "RemoteService":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def connect(
    address: Union[str, Tuple[str, int], Sequence] = None,
    path: Optional[str] = None,
    timeout: Optional[float] = None,
    request_timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.05,
    retry_seed: int = 0,
    retry_rng: Optional[Any] = None,
    retry_sleep: Optional[Any] = None,
) -> RemoteService:
    """Connect to a :class:`~repro.transport.server.KNNServer`.

    Args:
        address: a ``(host, port)`` tuple, a ``"host:port"`` string, or a
            ``"unix:/path"`` string (anything
            :meth:`KNNServer.address <repro.transport.server.KNNServer.
            address>` returns round-trips here).
        path: Unix-domain socket path (alternative to ``address``).
        timeout: optional connect timeout in seconds (the connected
            socket itself stays blocking).
        request_timeout: per-request response deadline in seconds; with it
            set, idempotent requests retry with backoff (see
            :class:`RemoteService`).  ``None`` (default) waits forever.
        retries: resend attempts for idempotent requests after a timeout.
        backoff: initial retry backoff in seconds (doubles per retry).
        retry_seed: seed of the deterministic retry jitter.
        retry_rng: explicit jitter RNG overriding the seed (injectable
            for deterministic retry tests).
        retry_sleep: the backoff sleep function (injectable likewise).

    Returns:
        A :class:`RemoteService` ready for :meth:`~RemoteService.
        open_session`.
    """
    if path is None and address is None:
        raise TransportError("connect() needs an address or a unix path")
    if path is None and isinstance(address, str):
        parsed = parse_endpoint(address)
        if isinstance(parsed, str):
            path = parsed
            address = None
        else:
            address = parsed
    try:
        if path is not None:
            endpoint = f"unix:{path}"
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(path)
        else:
            host, port = address
            endpoint = f"{host}:{port}"
            sock = socket.create_connection((host, int(port)), timeout=timeout)
        sock.settimeout(None)
    except OSError as error:
        raise TransportError(f"cannot connect to {endpoint}: {error}")
    if path is None:
        # Latency over throughput: each request is one small frame.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return RemoteService(
        MessageStream(sock),
        endpoint=endpoint,
        request_timeout=request_timeout,
        retries=retries,
        backoff=backoff,
        retry_seed=retry_seed,
        retry_rng=retry_rng,
        retry_sleep=retry_sleep,
    )
