"""The metric-agnostic front door of the serving system.

One factory serves both spaces: :func:`open_service` hides which
:class:`~repro.core.engine.ServingEngine` subclass answers the queries —
callers say *what* they have (points on a plane, or objects on a road
network) and get back the same :class:`KNNService` API either way::

    from repro import open_service, uniform_points

    service = open_service(metric="euclidean", objects=uniform_points(2_000))
    with service.open_session(start, k=5, rho=1.6) as session:
        response = session.update(next_position)

    service = open_service(metric="road", network=net, objects=vertices)
    # ... identical usage

The service owns the session book-keeping (handles out, auto-unregister on
close), routes the typed message protocol
(:mod:`repro.service.messages`), applies metric-agnostic
:class:`~repro.service.messages.UpdateBatch` mutations, and reports the
communication cost the engine accounted — per session and in aggregate.
The old server classes stay importable and fully functional as the
implementation layer underneath; a workload driven through them produces
identical answers and identical
:class:`~repro.core.stats.CommunicationStats` (the service adds no wire
exchanges of its own).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import ConfigurationError, QueryError
from repro.core.engine import BatchUpdateResult, ServingEngine
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.core.stats import CommunicationStats, ProcessorStats
# A module, not the function: repro.queries.messages subclasses this
# package's response types, so it may still be loading when this one is.
from repro.queries import messages as query_messages
from repro.service.messages import KNNResponse, UpdateBatch
from repro.service.session import Session

__all__ = ["KNNService", "open_service"]

#: The metrics the factory understands.
METRICS = ("euclidean", "road")


class KNNService:
    """Metric-agnostic moving-kNN serving facade over one engine.

    Build one with :func:`open_service` (it picks and constructs the
    backing engine), or wrap an existing engine directly — useful when a
    benchmark wants to drive a pre-configured server through the session
    API.

    Args:
        engine: the backing :class:`MovingKNNServer` or
            :class:`MovingRoadKNNServer`.
    """

    def __init__(self, engine):
        if not isinstance(engine, ServingEngine):
            raise ConfigurationError(
                f"KNNService requires a MovingKNNServer or MovingRoadKNNServer, "
                f"got {type(engine).__name__}"
            )
        self._engine = engine
        self._sessions: Dict[int, Session] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def metric(self) -> str:
        """``"euclidean"`` or ``"road"``."""
        return self._engine.metric

    @property
    def engine(self):
        """The backing serving engine (the implementation layer)."""
        return self._engine

    @property
    def invalidation(self) -> str:
        """The engine's invalidation mode (``"delta"``/``"flag"``)."""
        return self._engine.invalidation

    @property
    def epoch(self) -> int:
        """The engine's current data epoch."""
        return self._engine.epoch

    @property
    def object_count(self) -> int:
        """Number of active data objects in the shared index."""
        return self._engine.object_count

    def active_object_indexes(self) -> List[int]:
        """Indexes of the active data objects, in the index's native order
        (ascending on both metrics — the order
        :func:`~repro.workloads.scenarios.update_stream` models); a
        transport that relays this list (the ``repro.transport`` objects
        frame) preserves it."""
        return list(self._engine.index.active_indexes())

    @property
    def session_count(self) -> int:
        """Number of currently open sessions."""
        return len(self._sessions)

    @property
    def closed(self) -> bool:
        """True once the service itself has been closed."""
        return self._closed

    def sessions(self) -> List[Session]:
        """The open sessions (a snapshot list, safe to close while walking)."""
        return list(self._sessions.values())

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions())

    def __repr__(self) -> str:
        return (
            f"KNNService(metric={self.metric!r}, objects={self.object_count}, "
            f"sessions={self.session_count}, epoch={self.epoch})"
        )

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def open_session(self, position: Any, k: int, rho: float = 1.6) -> Session:
        """Register a moving query and return its :class:`Session` handle.

        The first answer is computed during registration; read it with
        :meth:`Session.refresh` or just start updating.

        Args:
            position: the query's starting position.
            k: number of nearest neighbours to maintain.
            rho: prefetch ratio ρ (the paper's demo uses 1.6).
        """
        self._ensure_open()
        query_id = self._engine.register_query(position, k, rho=rho)
        session = Session(self, query_id, k=k, rho=rho)
        self._sessions[query_id] = session
        return session

    def open_query(
        self, position: Any, kind: str = "knn", *, k: int, rho: float = 1.6
    ) -> Session:
        """Register a continuous query of any registered kind.

        ``kind="knn"`` routes through :meth:`open_session` (so the classic
        query keeps its wire frame and durability log record); other kinds
        resolve through the :mod:`repro.queries.kinds` registry.  The
        returned :class:`Session` reports its kind and speaks the same
        message protocol — the response's ``result`` carries the kind's
        widened answer (``sites`` for influential, ``event``/``departed``
        for region monitoring).
        """
        if kind == "knn":
            return self.open_session(position, k, rho=rho)
        self._ensure_open()
        query_id = self._engine.register_query(position, k, rho=rho, kind=kind)
        session = Session(self, query_id, k=k, rho=rho, kind=kind)
        self._sessions[query_id] = session
        return session

    def _discard(self, session: Session) -> None:
        """Session teardown (called by :meth:`Session.close`)."""
        self._sessions.pop(session.query_id, None)
        self._engine.unregister_query(session.query_id)

    def close(self) -> None:
        """Close every open session (idempotent).

        The engine (and its index) stays alive — new sessions can no
        longer be opened through this service, but the aggregate counters
        remain readable.
        """
        if self._closed:
            return
        self._closed = True
        for session in self.sessions():
            session.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise QueryError("the service has been closed")

    def __enter__(self) -> "KNNService":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Durability seam (overridden by DurableKNNService)
    # ------------------------------------------------------------------
    def durability_token(self) -> Optional[int]:
        """An opaque marker of what must be durable before the operation
        just executed may be acknowledged, or ``None`` when no barrier is
        needed.  A plain in-memory service never needs one; a durable
        service under group-commit fsync returns its log position so the
        transport can block in :meth:`durability_barrier` *outside* the
        service lock while other operations proceed."""
        return None

    def durability_barrier(self, token: Optional[int]) -> None:
        """Block until ``token`` (from :meth:`durability_token`) is on
        stable storage.  No-op on a plain service."""

    # ------------------------------------------------------------------
    # Message routing (used by Session)
    # ------------------------------------------------------------------
    def _deliver(self, query_id: int, position: Any) -> KNNResponse:
        # The step's bill is what the engine's update just added to the
        # session's record: two of its counters, read before and after.  The
        # record is per-session state, so this needs no lock of its own.
        # response_for picks the response frame matching the result's kind
        # (KNNResponse, InfluentialResponse, RegionEvent).
        engine = self._engine
        record = engine.communication_for(query_id)
        objects, round_trips = record.downlink_objects, record.uplink_messages
        result = engine.update_position(query_id, position)
        return query_messages.response_for(
            query_id, result, record.downlink_objects - objects,
            record.uplink_messages - round_trips, engine._epoch,
        )

    def _refresh(self, query_id: int) -> KNNResponse:
        # As _deliver, through the engine's answer at the current position.
        engine = self._engine
        record = engine.communication_for(query_id)
        objects, round_trips = record.downlink_objects, record.uplink_messages
        result = engine.answer(query_id)
        return query_messages.response_for(
            query_id, result, record.downlink_objects - objects,
            record.uplink_messages - round_trips, engine._epoch,
        )

    # ------------------------------------------------------------------
    # The data-update stream
    # ------------------------------------------------------------------
    def apply(self, batch: UpdateBatch) -> BatchUpdateResult:
        """Apply one :class:`UpdateBatch` as a single data epoch.

        Metric-agnostic: the engine knows what a move is on its metric (a
        native vertex relocation on a road network; delete + reinsert, two
        object records, on the plane).  Returns the engine's
        :class:`~repro.core.engine.BatchUpdateResult`.

        Raises:
            QueryError: when the surviving population would be too small
                for some open session's ``k`` (the engine's population
                guard — nothing is applied).
        """
        return self._engine.batch_update(batch.inserts, batch.deletes, batch.moves)

    # The single-object mutators are batches of one through apply(), so a
    # subclass that logs apply() logs them too.
    def insert(self, target: Any) -> int:
        """Insert one data object (a Point, or a road vertex); returns its index."""
        return self.apply(UpdateBatch(inserts=(target,))).new_indexes[0]

    def delete(self, index: int) -> bool:
        """Delete one data object (returns False when already gone)."""
        return bool(self.apply(UpdateBatch(deletes=(index,))).deleted_indexes)

    def move(self, index: int, target: Any) -> BatchUpdateResult:
        """Relocate one data object to ``target`` (vertex or Point)."""
        return self.apply(UpdateBatch(moves=((index, target),)))

    # ------------------------------------------------------------------
    # Cost reporting
    # ------------------------------------------------------------------
    @property
    def communication(self) -> CommunicationStats:
        """Aggregate communication over the service's lifetime (live view)."""
        return self._engine.communication

    def per_session_communication(self) -> Dict[int, CommunicationStats]:
        """Communication counters per open session, keyed by query id."""
        return self._engine.per_query_communication()

    def aggregate_stats(self) -> ProcessorStats:
        """Client-side cost counters summed over every open session."""
        return self._engine.aggregate_stats()


def open_service(
    metric: str = "euclidean",
    objects: Optional[Sequence[Any]] = None,
    network=None,
    invalidation: str = "delta",
) -> KNNService:
    """Open a moving-kNN service — the one front door for both metrics.

    Args:
        metric: ``"euclidean"`` (objects are :class:`~repro.geometry.point.
            Point` positions on the plane) or ``"road"`` (objects are
            vertex ids on ``network``).
        objects: the initial data objects (required, non-empty).
        network: the :class:`~repro.roadnet.graph.RoadNetwork` shared by
            every query — required for (and exclusive to) the road metric.
        invalidation: ``"delta"`` (default; each session pays only for
            updates naming a member of its R) or ``"flag"`` (blanket
            refresh-everyone fallback).

    Returns:
        A :class:`KNNService` ready for :meth:`~KNNService.open_session`.
    """
    if metric not in METRICS:
        raise ConfigurationError(f"metric must be one of {METRICS}, got {metric!r}")
    if objects is None:
        raise ConfigurationError("open_service requires the initial data objects")
    if metric == "euclidean":
        if network is not None:
            raise ConfigurationError(
                "the euclidean metric takes no road network; did you mean metric='road'?"
            )
        engine = MovingKNNServer(list(objects), invalidation=invalidation)
    else:
        if network is None:
            raise ConfigurationError("the road metric requires a road network")
        engine = MovingRoadKNNServer(network, list(objects), invalidation=invalidation)
    return KNNService(engine)
