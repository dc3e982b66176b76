"""Session handles: the client side of one registered moving query.

A :class:`Session` replaces the raw integer query ids of the server API.
It is handed out by :meth:`~repro.service.service.KNNService.open_session`,
carries its query parameters (``k``, ``rho``), answers position updates
through the typed message protocol, exposes its own cost counters
(:attr:`Session.stats`, :attr:`Session.communication`), and unregisters
itself from the engine when closed — including automatically at the end of
a ``with`` block, so an abandoned session cannot keep receiving
invalidation traffic forever::

    with service.open_session(start, k=5) as session:
        for position in trajectory:
            response = session.update(position)
            ...
    # closed: the engine no longer tracks (or notifies) the query
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import QueryError
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.service.messages import KNNResponse, PositionUpdate

__all__ = ["Session"]


class Session:
    """A context-managed handle to one registered moving kNN query.

    Sessions are created by :meth:`KNNService.open_session`, never
    directly.  Each position update is one :class:`PositionUpdate` message
    to the service and returns a :class:`KNNResponse` annotated with the
    communication the step actually cost.

    Attributes are read-only: ``k`` and ``rho`` are fixed at registration
    (open a new session to change them).

    The class is also the transport seam: everything a session does goes
    through its service's ``_deliver`` / ``_refresh`` / ``_discard``
    protocol, so any object implementing those three methods can hand out
    sessions — :class:`~repro.service.service.KNNService` resolves them
    into in-process engine calls, while
    :class:`~repro.transport.client.RemoteService` resolves the very same
    calls into wire round trips (its
    :class:`~repro.transport.client.RemoteSession` subclasses this class
    only to redirect the introspection properties that would otherwise
    read the local engine).
    """

    def __init__(
        self, service, query_id: int, k: int, rho: float, kind: str = "knn"
    ):
        self._service = service
        # Remote services have no local engine; the engine-backed
        # properties (stats, communication) are overridden there.
        self._engine = getattr(service, "engine", None)
        self._query_id = query_id
        self._k = k
        self._rho = rho
        self._kind = kind
        self._closed = False
        self._last_response: Optional[KNNResponse] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def query_id(self) -> int:
        """The engine-side query identifier backing this session."""
        return self._query_id

    @property
    def k(self) -> int:
        """Number of nearest neighbours this session maintains."""
        return self._k

    @property
    def rho(self) -> float:
        """The session's prefetch ratio ρ."""
        return self._rho

    @property
    def kind(self) -> str:
        """The session's continuous query kind (``"knn"`` by default)."""
        return self._kind

    @property
    def closed(self) -> bool:
        """True once the session has been closed (unregistered)."""
        return self._closed

    @property
    def last_response(self) -> Optional[KNNResponse]:
        """The most recent answer (None before the first update)."""
        return self._last_response

    @property
    def stats(self) -> ProcessorStats:
        """The session's client-side cost counters (live view)."""
        self._ensure_open()
        return self._engine.stats_for(self._query_id)

    @property
    def communication(self) -> CommunicationStats:
        """Messages/objects this session exchanged with the server (live view).

        Includes the registration exchange; snapshot it before closing if
        the numbers are needed afterwards (closing drops the per-session
        record into the service-wide aggregate).
        """
        self._ensure_open()
        return self._engine.communication_for(self._query_id)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Session(query_id={self._query_id}, kind={self._kind!r}, "
            f"k={self._k}, rho={self._rho}, {state})"
        )

    # ------------------------------------------------------------------
    # The message protocol
    # ------------------------------------------------------------------
    def update(self, position: Any) -> KNNResponse:
        """Report a new position; returns the (possibly refreshed) answer."""
        self._ensure_open()
        response = self._service._deliver(self._query_id, position)
        self._last_response = response
        return response

    def send(self, message: PositionUpdate) -> KNNResponse:
        """Deliver one :class:`PositionUpdate` built by the caller."""
        if message.query_id not in (None, self._query_id):
            raise QueryError(
                f"message addressed to query {message.query_id}, "
                f"but this session is query {self._query_id}"
            )
        return self.update(message.position)

    def refresh(self) -> KNNResponse:
        """Re-answer at the current position without moving.

        Useful right after a data-object update when the client wants the
        refreshed result before its next movement.
        """
        self._ensure_open()
        response = self._service._refresh(self._query_id)
        self._last_response = response
        return response

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unregister the query from the engine.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._service._discard(self)

    def _ensure_open(self) -> None:
        if self._closed:
            raise QueryError(f"session for query {self._query_id} is closed")

    def __enter__(self) -> "Session":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
