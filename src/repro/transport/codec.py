"""The binary wire codec of the transport layer.

The PR4 message protocol (:class:`~repro.service.messages.PositionUpdate`,
:class:`~repro.service.messages.KNNResponse`,
:class:`~repro.service.messages.UpdateBatch`) already *is* the
client/server protocol — this module gives it a byte representation so it
can cross a real process boundary.  Design goals, in order:

* **compact** — the hot messages are struct-packed binary (a Euclidean
  position update is 26 bytes on the wire), no pickle anywhere, so the
  measured byte counts are an honest communication metric rather than an
  artefact of a serialiser;
* **predictable** — :func:`wire_size` computes a message's encoded size
  arithmetically, without encoding it; ``len(encode(m)) ==
  wire_size(m)`` holds exactly for every message, which is what lets the
  PR5 benchmark reconcile measured bytes against codec-predicted bytes;
* **robust** — frames are length-prefixed, so a reader survives partial
  and concatenated reads (:class:`FrameReader`), and every malformed input
  raises :class:`~repro.errors.TransportError` instead of a bare
  ``struct.error``.

Frame layout: a 4-byte big-endian unsigned body length, then the body —
one type byte followed by type-specific fields.  Positions and batch
targets are tagged unions (a :class:`~repro.geometry.point.Point` is two
doubles, a :class:`~repro.roadnet.location.NetworkLocation` is an edge id
plus an offset, a road vertex is one unsigned int), which keeps the codec
metric-agnostic like the protocol it serialises.

Beyond the three data-plane messages, the codec speaks the control frames
of one serving connection: open/close a session, refresh, batch
acknowledgement, typed errors (re-raised client-side as their original
exception class), and the meta frames (stats, aggregate stats, active
objects) that let a remote client read the server's accounting.  Meta
frames are diagnostics — the server deliberately does not bill their bytes
into :class:`~repro.core.stats.CommunicationStats`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import (
    ConfigurationError,
    ConnectionLost,
    EmptyDatasetError,
    GeometryError,
    QueryError,
    ReproError,
    RequestTimeout,
    RoadNetworkError,
    TransportError,
)
from repro.core.objects import QueryResult, UpdateAction
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.obs.metrics import BUCKET_COUNT, Histogram, histogram as _obs_histogram, start_timer
from repro.obs.clock import clock as _obs_clock
from repro.geometry.point import Point
from repro.queries.influential import InfluentialResult
from repro.queries.messages import InfluentialResponse, OpenQuery, RegionEvent
from repro.queries.region import RegionResult
from repro.roadnet.location import NetworkLocation
from repro.service.messages import KNNResponse, PositionUpdate, UpdateBatch

__all__ = [
    "AggregateStatsRequest",
    "AggregateStatsResponse",
    "BatchApplied",
    "CloseSession",
    "DeltaAck",
    "DrainAck",
    "DrainRequest",
    "ErrorMessage",
    "FrameReader",
    "IndexDelta",
    "InfluentialResponse",
    "MetricsRequest",
    "MetricsSnapshot",
    "ObjectsRequest",
    "ObjectsResponse",
    "OpenQuery",
    "OpenSession",
    "RefreshRequest",
    "RegionEvent",
    "SessionClosed",
    "SessionOpened",
    "StatsRequest",
    "StatsResponse",
    "decode",
    "encode",
    "wire_size",
]

#: Upper bound on one frame's body; a declared length beyond this is
#: treated as stream corruption rather than an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct("!I")
LENGTH_PREFIX_BYTES = _LENGTH.size

# Frame type bytes (one per message class).
_T_POSITION_UPDATE = 0x01
_T_KNN_RESPONSE = 0x02
_T_UPDATE_BATCH = 0x03
_T_OPEN_SESSION = 0x04
_T_SESSION_OPENED = 0x05
_T_CLOSE_SESSION = 0x06
_T_SESSION_CLOSED = 0x07
_T_REFRESH = 0x08
_T_BATCH_APPLIED = 0x09
_T_ERROR = 0x0A
_T_STATS_REQUEST = 0x0B
_T_STATS_RESPONSE = 0x0C
_T_OBJECTS_REQUEST = 0x0D
_T_OBJECTS_RESPONSE = 0x0E
_T_AGG_STATS_REQUEST = 0x0F
_T_AGG_STATS_RESPONSE = 0x10
_T_DRAIN_REQUEST = 0x11
_T_DRAIN_ACK = 0x12
_T_INDEX_DELTA = 0x13
_T_DELTA_ACK = 0x14
_T_OPEN_QUERY = 0x15
_T_INFLUENTIAL_RESPONSE = 0x16
_T_REGION_EVENT = 0x17
_T_METRICS_REQUEST = 0x18
_T_METRICS_SNAPSHOT = 0x19

# Tagged position / batch-target kinds.
_POS_POINT = 0x00
_POS_ROAD = 0x01
_TARGET_POINT = 0x00
_TARGET_VERTEX = 0x01

#: Wire order of :class:`UpdateAction` values (append-only by contract).
_ACTIONS = (
    UpdateAction.NONE,
    UpdateAction.LOCAL_REORDER,
    UpdateAction.INCREMENTAL,
    UpdateAction.FULL_RECOMPUTE,
)
_ACTION_CODE = {action: code for code, action in enumerate(_ACTIONS)}

#: Wire order of the region-monitor event names (append-only by contract).
_REGION_EVENTS = ("stay", "enter")
_REGION_EVENT_CODE = {event: code for code, event in enumerate(_REGION_EVENTS)}

#: Wire names of the error classes a server may relay (client re-raises).
_ERROR_KINDS: Dict[str, Type[ReproError]] = {
    "query": QueryError,
    "configuration": ConfigurationError,
    "geometry": GeometryError,
    "road": RoadNetworkError,
    "empty": EmptyDatasetError,
    # Subclasses precede their base in this dict: _KIND_OF_ERROR inverts
    # it, and ErrorMessage.from_exception walks the MRO to the nearest
    # registered class, so a ConnectionLost raised server-side re-raises
    # client-side as ConnectionLost, not a bare TransportError.
    "connection-lost": ConnectionLost,
    "timeout": RequestTimeout,
    "transport": TransportError,
    "error": ReproError,
}
_KIND_OF_ERROR = {cls: kind for kind, cls in _ERROR_KINDS.items()}


# ----------------------------------------------------------------------
# Control messages (the data-plane trio lives in repro.service.messages)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpenSession:
    """Client → server: register a moving query and open its session.

    Attributes:
        position: the query's starting position (Point or NetworkLocation).
        k: number of nearest neighbours to maintain.
        rho: prefetch ratio ρ.
        options: extra keyword options passed to the engine's
            ``register_query`` (e.g. the road side's ``validation_mode``),
            as ``(name, value)`` string pairs.
    """

    position: Any
    k: int
    rho: float
    options: Tuple[Tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "options", tuple((str(k), str(v)) for k, v in self.options)
        )


@dataclass(frozen=True)
class SessionOpened:
    """Server → client: the session is open under ``query_id``."""

    query_id: int


@dataclass(frozen=True)
class CloseSession:
    """Client → server: unregister ``query_id`` (the goodbye message)."""

    query_id: int


@dataclass(frozen=True)
class SessionClosed:
    """Server → client: acknowledgement of :class:`CloseSession`."""

    query_id: int


@dataclass(frozen=True)
class RefreshRequest:
    """Client → server: re-answer ``query_id`` at its current position."""

    query_id: int


@dataclass(frozen=True)
class BatchApplied:
    """Server → client: one :class:`UpdateBatch` was applied as an epoch.

    Attributes:
        epoch: the server's data epoch after the batch.
        new_indexes: object indexes assigned to the batch's inserts (on the
            Euclidean side this includes the reinsert half of each move, in
            ``inserts`` then ``moves`` order — the native decomposition).
        deleted_indexes: object indexes actually removed.
    """

    epoch: int
    new_indexes: Tuple[int, ...] = field(default=())
    deleted_indexes: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "new_indexes", tuple(self.new_indexes))
        object.__setattr__(self, "deleted_indexes", tuple(self.deleted_indexes))


@dataclass(frozen=True)
class ErrorMessage:
    """Server → client: a request failed with a typed library error."""

    kind: str
    message: str

    @classmethod
    def from_exception(cls, error: ReproError) -> "ErrorMessage":
        """Wrap a library exception for the wire (closest registered kind)."""
        for klass in type(error).__mro__:
            kind = _KIND_OF_ERROR.get(klass)
            if kind is not None:
                return cls(kind=kind, message=str(error))
        return cls(kind="error", message=str(error))

    def to_exception(self) -> ReproError:
        """The client-side exception this frame re-raises as."""
        return _ERROR_KINDS.get(self.kind, ReproError)(self.message)


@dataclass(frozen=True)
class StatsRequest:
    """Client → server: read the communication counters (meta, unbilled)."""

    per_session: bool = False


@dataclass(frozen=True)
class StatsResponse:
    """Server → client: aggregate (and optionally per-session) counters."""

    aggregate: CommunicationStats
    per_session: Tuple[Tuple[int, CommunicationStats], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "per_session", tuple((int(q), s) for q, s in self.per_session)
        )


@dataclass(frozen=True)
class ObjectsRequest:
    """Client → server: read the active object indexes (meta, unbilled)."""


@dataclass(frozen=True)
class ObjectsResponse:
    """Server → client: active object indexes, in the index's native order.

    The order matters: churn drivers sample victims from this list with a
    seeded RNG, so preserving the server-side order is what makes remote
    runs realise bit-identical update streams.
    """

    epoch: int
    indexes: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "indexes", tuple(self.indexes))


@dataclass(frozen=True)
class DrainRequest:
    """Operator → server: stop serving gracefully and park the sessions.

    The receiving side finishes the exchange in flight, checkpoints its
    durable state (when it has any), leaves every open session claimable —
    in the shard WAL for a process worker, in the orphan pool for a socket
    server — and answers with a :class:`DrainAck` before going quiet.
    """


@dataclass(frozen=True)
class DrainAck:
    """Server → operator: drained; state is parked and claimable.

    Attributes:
        wal_seq: the last WAL sequence number covered by the drain's
            checkpoint (0 for a non-durable service — nothing logged, the
            sessions only survive in the orphan pool).
        session_ids: the query ids parked by the drain, ready for a
            replacement worker or a reconnecting client to claim.
    """

    wal_seq: int
    session_ids: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "session_ids", tuple(self.session_ids))


@dataclass(frozen=True)
class AggregateStatsRequest:
    """Client → server: read the summed ProcessorStats (meta, unbilled)."""


@dataclass(frozen=True)
class AggregateStatsResponse:
    """Server → client: the engine's aggregate client-side cost counters."""

    stats: ProcessorStats


@dataclass(frozen=True)
class IndexDelta:
    """Leader → replicas: the repair delta of one update epoch (meta).

    Shipped by the maintenance leader (shard 0) right after it applies an
    :class:`~repro.service.messages.UpdateBatch`, so read replicas can
    patch their index to the identical post-epoch state through
    ``apply_remote_delta()`` without re-running any geometry.  Like every
    meta frame its bytes are not billed into
    :class:`~repro.core.stats.CommunicationStats` — the replication
    fan-out is serving infrastructure, not client/server traffic; a
    replica's message/object counters are instead driven by the shipped
    ``payload``/``changed``/``deleted_indexes`` fields, which reproduce
    exactly what applying the batch locally would have billed.

    Attributes:
        epoch: the leader's data epoch *after* the batch (unchanged when
            the batch was a no-op — replicas then apply nothing).
        payload: the update-record count the epoch billed as uplink
            objects (deduplicated; move halves included on the Euclidean
            side).
        full: the leader rebuilt from scratch — the metric sections carry
            the complete post-epoch state and replicas replace wholesale.
        bulk: the Euclidean structural path ran in bulk order (deletes
            before inserts); replicas must replay the R-tree operations in
            the same order for the trees to stay identical.
        new_indexes: object indexes assigned to the epoch's inserts.
        deleted_indexes: object indexes actually removed.
        changed: the epoch's invalidation delta (sorted object indexes).
        points: positions of ``new_indexes``, in order (Euclidean).
        neighbors: final ``(object, sorted neighbour list)`` entries for
            every object whose neighbour set the epoch touched.
        removed_neighbors: objects whose neighbour entry was dropped.
        assignments: road ``(object, vertex)`` placements (inserts and
            moves).
        groups: road ``(vertex, co-located object list)`` entries.
        removed_groups: vertices whose object group emptied.
        vertices: road ``(vertex, owner, distance)`` re-settlements.
        removed_vertices: road vertices left unowned.
        edges: road ``(edge_id, owner_u, owner_v, border_offset)`` edge
            ownership records (``border_offset`` None when one object owns
            the whole edge).
        removed_edges: road edges whose ownership was dropped.
        labels: road per-representative cell state — ``(rep, owned
            vertices, owned edges, adjacent representatives)``.
        removed_labels: representatives whose cell disappeared.
    """

    epoch: int
    payload: int
    full: bool = False
    bulk: bool = False
    new_indexes: Tuple[int, ...] = field(default=())
    deleted_indexes: Tuple[int, ...] = field(default=())
    changed: Tuple[int, ...] = field(default=())
    points: Tuple[Point, ...] = field(default=())
    neighbors: Tuple[Tuple[int, Tuple[int, ...]], ...] = field(default=())
    removed_neighbors: Tuple[int, ...] = field(default=())
    assignments: Tuple[Tuple[int, int], ...] = field(default=())
    groups: Tuple[Tuple[int, Tuple[int, ...]], ...] = field(default=())
    removed_groups: Tuple[int, ...] = field(default=())
    vertices: Tuple[Tuple[int, int, float], ...] = field(default=())
    removed_vertices: Tuple[int, ...] = field(default=())
    edges: Tuple[Tuple[int, int, int, Optional[float]], ...] = field(default=())
    removed_edges: Tuple[int, ...] = field(default=())
    labels: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]], ...] = field(
        default=()
    )
    removed_labels: Tuple[int, ...] = field(default=())

    def __post_init__(self):
        normalize = object.__setattr__
        normalize(self, "new_indexes", tuple(self.new_indexes))
        normalize(self, "deleted_indexes", tuple(self.deleted_indexes))
        normalize(self, "changed", tuple(self.changed))
        normalize(self, "points", tuple(self.points))
        normalize(
            self,
            "neighbors",
            tuple((int(obj), tuple(members)) for obj, members in self.neighbors),
        )
        normalize(self, "removed_neighbors", tuple(self.removed_neighbors))
        normalize(
            self,
            "assignments",
            tuple((int(obj), int(vertex)) for obj, vertex in self.assignments),
        )
        normalize(
            self,
            "groups",
            tuple((int(vertex), tuple(members)) for vertex, members in self.groups),
        )
        normalize(self, "removed_groups", tuple(self.removed_groups))
        normalize(
            self,
            "vertices",
            tuple(
                (int(vertex), int(owner), float(distance))
                for vertex, owner, distance in self.vertices
            ),
        )
        normalize(self, "removed_vertices", tuple(self.removed_vertices))
        normalize(
            self,
            "edges",
            tuple(
                (int(e), int(u), int(v), None if border is None else float(border))
                for e, u, v, border in self.edges
            ),
        )
        normalize(self, "removed_edges", tuple(self.removed_edges))
        normalize(
            self,
            "labels",
            tuple(
                (int(rep), tuple(verts), tuple(edge_ids), tuple(adjacent))
                for rep, verts, edge_ids, adjacent in self.labels
            ),
        )
        normalize(self, "removed_labels", tuple(self.removed_labels))


@dataclass(frozen=True)
class DeltaAck:
    """Replica → leader side: an :class:`IndexDelta` was applied (meta).

    Attributes:
        epoch: the replica's data epoch after applying the delta — the
            dispatcher cross-checks it against the leader's.
    """

    epoch: int


@dataclass(frozen=True)
class MetricsRequest:
    """Client → server: send me your metrics registry snapshot (meta).

    Read-only and idempotent: answered from a snapshot read, it never
    touches a session, an epoch or a counter — a scrape mid-run cannot
    perturb the protocol it observes.
    """


@dataclass(frozen=True)
class MetricsSnapshot:
    """Server → client: one observability registry readout (meta).

    The wire form of :class:`~repro.obs.metrics.RegistrySnapshot` (same
    field shapes, so :func:`~repro.obs.metrics.render_prometheus` and
    :func:`~repro.obs.metrics.merge_snapshots` accept either).  Labels
    travel in the canonical ``k=v,k2=v2`` form; histogram bucket counts
    are positional over the shared fixed bounds
    (:data:`~repro.obs.metrics.HISTOGRAM_BOUNDS`), which is what lets a
    dispatcher merge per-shard snapshots exactly.

    Attributes:
        counters: ``(name, labels, value)`` triples.
        gauges: ``(name, labels, value)`` triples.
        histograms: ``(name, labels, bucket_counts, sum)`` tuples.
    """

    counters: Tuple[Tuple[str, str, int], ...] = ()
    gauges: Tuple[Tuple[str, str, float], ...] = ()
    histograms: Tuple[Tuple[str, str, Tuple[int, ...], float], ...] = ()

    def __post_init__(self):
        normalize = object.__setattr__
        normalize(
            self,
            "counters",
            tuple((str(n), str(l), int(v)) for n, l, v in self.counters),
        )
        normalize(
            self,
            "gauges",
            tuple((str(n), str(l), float(v)) for n, l, v in self.gauges),
        )
        normalize(
            self,
            "histograms",
            tuple(
                (str(n), str(l), tuple(int(c) for c in counts), float(total))
                for n, l, counts, total in self.histograms
            ),
        )


# ----------------------------------------------------------------------
# Primitive writers / readers
# ----------------------------------------------------------------------
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_I32 = struct.Struct("!i")
_F64 = struct.Struct("!d")
_POINT = struct.Struct("!dd")
_ROAD = struct.Struct("!Id")


class _Writer:
    """Accumulates struct-packed fields into one frame body."""

    __slots__ = ("parts",)

    def __init__(self, frame_type: int):
        self.parts: List[bytes] = [_U8.pack(frame_type)]

    def u8(self, value: int) -> None:
        self.parts.append(_U8.pack(value))

    def u16(self, value: int) -> None:
        self.parts.append(_U16.pack(value))

    def u32(self, value: int) -> None:
        self.parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self.parts.append(_U64.pack(value))

    def i32(self, value: int) -> None:
        self.parts.append(_I32.pack(value))

    def f64(self, value: float) -> None:
        self.parts.append(_F64.pack(value))

    def string(self, value: str) -> None:
        data = value.encode("utf-8")
        self.u16(len(data))
        self.parts.append(data)

    def position(self, position: Any) -> None:
        if isinstance(position, Point):
            self.u8(_POS_POINT)
            self.parts.append(_POINT.pack(position.x, position.y))
        elif isinstance(position, NetworkLocation):
            self.u8(_POS_ROAD)
            self.parts.append(_ROAD.pack(position.edge_id, position.offset))
        else:
            raise TransportError(
                f"cannot encode position of type {type(position).__name__}"
            )

    def target(self, target: Any) -> None:
        """A batch target: a Point (Euclidean) or a vertex id (road)."""
        if isinstance(target, Point):
            self.u8(_TARGET_POINT)
            self.parts.append(_POINT.pack(target.x, target.y))
        elif isinstance(target, int):
            self.u8(_TARGET_VERTEX)
            self.u32(target)
        else:
            raise TransportError(
                f"cannot encode batch target of type {type(target).__name__}"
            )

    def frame(self) -> bytes:
        body = b"".join(self.parts)
        return _LENGTH.pack(len(body)) + body


class _Reader:
    """Consumes struct-packed fields from one frame body."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def _unpack(self, spec: struct.Struct):
        end = self.offset + spec.size
        if end > len(self.data):
            raise TransportError("truncated frame body")
        values = spec.unpack_from(self.data, self.offset)
        self.offset = end
        return values

    def u8(self) -> int:
        return self._unpack(_U8)[0]

    def u16(self) -> int:
        return self._unpack(_U16)[0]

    def u32(self) -> int:
        return self._unpack(_U32)[0]

    def u64(self) -> int:
        return self._unpack(_U64)[0]

    def i32(self) -> int:
        return self._unpack(_I32)[0]

    def f64(self) -> float:
        return self._unpack(_F64)[0]

    def string(self) -> str:
        length = self.u16()
        end = self.offset + length
        if end > len(self.data):
            raise TransportError("truncated frame body")
        raw = self.data[self.offset : end]
        self.offset = end
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise TransportError(f"malformed utf-8 string in frame: {error}")

    def position(self) -> Any:
        tag = self.u8()
        if tag == _POS_POINT:
            x, y = self._unpack(_POINT)
            return Point(x, y)
        if tag == _POS_ROAD:
            edge_id, offset = self._unpack(_ROAD)
            return NetworkLocation(edge_id, offset)
        raise TransportError(f"unknown position tag 0x{tag:02x}")

    def target(self) -> Any:
        tag = self.u8()
        if tag == _TARGET_POINT:
            x, y = self._unpack(_POINT)
            return Point(x, y)
        if tag == _TARGET_VERTEX:
            return self.u32()
        raise TransportError(f"unknown batch target tag 0x{tag:02x}")

    def finish(self) -> None:
        if self.offset != len(self.data):
            raise TransportError(
                f"frame body has {len(self.data) - self.offset} trailing bytes"
            )


def _position_size(position: Any) -> int:
    if isinstance(position, Point):
        return 1 + _POINT.size
    if isinstance(position, NetworkLocation):
        return 1 + _ROAD.size
    raise TransportError(f"cannot size position of type {type(position).__name__}")


def _target_size(target: Any) -> int:
    if isinstance(target, Point):
        return 1 + _POINT.size
    if isinstance(target, int):
        return 1 + _U32.size
    raise TransportError(f"cannot size batch target of type {type(target).__name__}")


#: Fixed per-frame overhead: the length prefix plus the type byte.
_OVERHEAD = LENGTH_PREFIX_BYTES + 1

#: The six CommunicationStats counters shipped per stats record.
_COMM_FIELDS = (
    "uplink_messages",
    "uplink_objects",
    "downlink_messages",
    "downlink_objects",
    "uplink_bytes",
    "downlink_bytes",
)

#: ProcessorStats integer counters (wire order), then the float timers.
_PROC_INT_FIELDS = (
    "timestamps",
    "validations",
    "local_reorders",
    "incremental_updates",
    "full_recomputations",
    "ins_refreshes",
    "absorbed_updates",
    "transmitted_objects",
    "distance_computations",
    "index_node_accesses",
    "settled_vertices",
)
_PROC_FLOAT_FIELDS = (
    "construction_seconds",
    "validation_seconds",
    "precomputation_seconds",
    "maintenance_seconds",
    "delta_apply_seconds",
)


def _write_comm(writer: _Writer, stats: CommunicationStats) -> None:
    for name in _COMM_FIELDS:
        writer.u64(getattr(stats, name))


def _read_comm(reader: _Reader) -> CommunicationStats:
    return CommunicationStats(**{name: reader.u64() for name in _COMM_FIELDS})


# ----------------------------------------------------------------------
# Per-type encoders
# ----------------------------------------------------------------------
def _encode_position_update(message: PositionUpdate) -> bytes:
    writer = _Writer(_T_POSITION_UPDATE)
    writer.i32(-1 if message.query_id is None else message.query_id)
    writer.position(message.position)
    return writer.frame()


def _write_response_body(writer: _Writer, message: KNNResponse) -> None:
    """The fields every kind's response shares (the KNNResponse layout)."""
    result = message.result
    writer.i32(message.query_id)
    writer.u32(message.objects_shipped)
    writer.u32(message.round_trips)
    writer.u32(message.epoch)
    writer.i32(result.timestamp)
    writer.u8(_ACTION_CODE[result.action])
    writer.u8(1 if result.was_valid else 0)
    writer.u32(len(result.knn))
    for index in result.knn:
        writer.u32(index)
    for distance in result.knn_distances:
        writer.f64(distance)
    guards = sorted(result.guard_objects)
    writer.u32(len(guards))
    for index in guards:
        writer.u32(index)


def _encode_knn_response(message: KNNResponse) -> bytes:
    writer = _Writer(_T_KNN_RESPONSE)
    _write_response_body(writer, message)
    return writer.frame()


def _encode_influential_response(message: InfluentialResponse) -> bytes:
    writer = _Writer(_T_INFLUENTIAL_RESPONSE)
    _write_response_body(writer, message)
    sites = message.result.sites
    writer.u32(len(sites))
    for index in sites:
        writer.u32(index)
    return writer.frame()


def _encode_region_event(message: RegionEvent) -> bytes:
    writer = _Writer(_T_REGION_EVENT)
    _write_response_body(writer, message)
    result = message.result
    code = _REGION_EVENT_CODE.get(result.event)
    if code is None:
        raise TransportError(f"unknown region event {result.event!r}")
    writer.u8(code)
    writer.u32(len(result.departed))
    for index in result.departed:
        writer.u32(index)
    return writer.frame()


def _encode_update_batch(message: UpdateBatch) -> bytes:
    writer = _Writer(_T_UPDATE_BATCH)
    writer.u32(len(message.inserts))
    writer.u32(len(message.deletes))
    writer.u32(len(message.moves))
    for target in message.inserts:
        writer.target(target)
    for index in message.deletes:
        writer.u32(index)
    for index, target in message.moves:
        writer.u32(index)
        writer.target(target)
    return writer.frame()


def _encode_open_session(message: OpenSession) -> bytes:
    writer = _Writer(_T_OPEN_SESSION)
    writer.u32(message.k)
    writer.f64(message.rho)
    writer.position(message.position)
    writer.u8(len(message.options))
    for name, value in message.options:
        writer.string(name)
        writer.string(value)
    return writer.frame()


def _encode_open_query(message: OpenQuery) -> bytes:
    writer = _Writer(_T_OPEN_QUERY)
    writer.string(message.kind)
    writer.u32(message.k)
    writer.f64(message.rho)
    writer.position(message.position)
    writer.u8(len(message.options))
    for name, value in message.options:
        writer.string(name)
        writer.string(value)
    return writer.frame()


def _encode_query_id_only(frame_type: int, query_id: int) -> bytes:
    writer = _Writer(frame_type)
    writer.i32(query_id)
    return writer.frame()


def _encode_batch_applied(message: BatchApplied) -> bytes:
    writer = _Writer(_T_BATCH_APPLIED)
    writer.u32(message.epoch)
    writer.u32(len(message.new_indexes))
    for index in message.new_indexes:
        writer.u32(index)
    writer.u32(len(message.deleted_indexes))
    for index in message.deleted_indexes:
        writer.u32(index)
    return writer.frame()


def _encode_error(message: ErrorMessage) -> bytes:
    writer = _Writer(_T_ERROR)
    writer.string(message.kind)
    writer.string(message.message)
    return writer.frame()


def _encode_stats_request(message: StatsRequest) -> bytes:
    writer = _Writer(_T_STATS_REQUEST)
    writer.u8(1 if message.per_session else 0)
    return writer.frame()


def _encode_stats_response(message: StatsResponse) -> bytes:
    writer = _Writer(_T_STATS_RESPONSE)
    _write_comm(writer, message.aggregate)
    writer.u32(len(message.per_session))
    for query_id, stats in message.per_session:
        writer.i32(query_id)
        _write_comm(writer, stats)
    return writer.frame()


def _encode_objects_request(message: ObjectsRequest) -> bytes:
    return _Writer(_T_OBJECTS_REQUEST).frame()


def _encode_objects_response(message: ObjectsResponse) -> bytes:
    writer = _Writer(_T_OBJECTS_RESPONSE)
    writer.u32(message.epoch)
    writer.u32(len(message.indexes))
    for index in message.indexes:
        writer.u32(index)
    return writer.frame()


def _encode_drain_request(message: DrainRequest) -> bytes:
    return _Writer(_T_DRAIN_REQUEST).frame()


def _encode_drain_ack(message: DrainAck) -> bytes:
    writer = _Writer(_T_DRAIN_ACK)
    writer.u64(message.wal_seq)
    writer.u32(len(message.session_ids))
    for query_id in message.session_ids:
        writer.i32(query_id)
    return writer.frame()


def _encode_index_delta(message: IndexDelta) -> bytes:
    writer = _Writer(_T_INDEX_DELTA)
    writer.u32(message.epoch)
    writer.u32(message.payload)
    writer.u8((1 if message.full else 0) | (2 if message.bulk else 0))

    def u32s(values) -> None:
        writer.u32(len(values))
        for value in values:
            writer.u32(value)

    u32s(message.new_indexes)
    u32s(message.deleted_indexes)
    u32s(message.changed)
    writer.u32(len(message.points))
    for point in message.points:
        writer.position(point)
    writer.u32(len(message.neighbors))
    for obj, members in message.neighbors:
        writer.u32(obj)
        u32s(members)
    u32s(message.removed_neighbors)
    writer.u32(len(message.assignments))
    for obj, vertex in message.assignments:
        writer.u32(obj)
        writer.u32(vertex)
    writer.u32(len(message.groups))
    for vertex, members in message.groups:
        writer.u32(vertex)
        u32s(members)
    u32s(message.removed_groups)
    writer.u32(len(message.vertices))
    for vertex, owner, distance in message.vertices:
        writer.u32(vertex)
        writer.u32(owner)
        writer.f64(distance)
    u32s(message.removed_vertices)
    writer.u32(len(message.edges))
    for edge_id, owner_u, owner_v, border in message.edges:
        writer.u32(edge_id)
        writer.u32(owner_u)
        writer.u32(owner_v)
        writer.u8(0 if border is None else 1)
        if border is not None:
            writer.f64(border)
    u32s(message.removed_edges)
    writer.u32(len(message.labels))
    for rep, verts, edge_ids, adjacent in message.labels:
        writer.u32(rep)
        u32s(verts)
        u32s(edge_ids)
        u32s(adjacent)
    u32s(message.removed_labels)
    return writer.frame()


def _encode_delta_ack(message: DeltaAck) -> bytes:
    writer = _Writer(_T_DELTA_ACK)
    writer.u32(message.epoch)
    return writer.frame()


def _encode_agg_stats_request(message: AggregateStatsRequest) -> bytes:
    return _Writer(_T_AGG_STATS_REQUEST).frame()


def _encode_metrics_request(message: MetricsRequest) -> bytes:
    return _Writer(_T_METRICS_REQUEST).frame()


def _encode_metrics_snapshot(message: MetricsSnapshot) -> bytes:
    writer = _Writer(_T_METRICS_SNAPSHOT)
    writer.u32(len(message.counters))
    for name, labels, value in message.counters:
        writer.string(name)
        writer.string(labels)
        writer.u64(value)
    writer.u32(len(message.gauges))
    for name, labels, value in message.gauges:
        writer.string(name)
        writer.string(labels)
        writer.f64(value)
    writer.u32(len(message.histograms))
    for name, labels, counts, total in message.histograms:
        writer.string(name)
        writer.string(labels)
        writer.u16(len(counts))
        for count in counts:
            writer.u64(count)
        writer.f64(total)
    return writer.frame()


def _encode_agg_stats_response(message: AggregateStatsResponse) -> bytes:
    writer = _Writer(_T_AGG_STATS_RESPONSE)
    for name in _PROC_INT_FIELDS:
        writer.u64(getattr(message.stats, name))
    for name in _PROC_FLOAT_FIELDS:
        writer.f64(getattr(message.stats, name))
    return writer.frame()


_ENCODERS = {
    PositionUpdate: _encode_position_update,
    KNNResponse: _encode_knn_response,
    InfluentialResponse: _encode_influential_response,
    RegionEvent: _encode_region_event,
    UpdateBatch: _encode_update_batch,
    OpenSession: _encode_open_session,
    OpenQuery: _encode_open_query,
    SessionOpened: lambda m: _encode_query_id_only(_T_SESSION_OPENED, m.query_id),
    CloseSession: lambda m: _encode_query_id_only(_T_CLOSE_SESSION, m.query_id),
    SessionClosed: lambda m: _encode_query_id_only(_T_SESSION_CLOSED, m.query_id),
    RefreshRequest: lambda m: _encode_query_id_only(_T_REFRESH, m.query_id),
    BatchApplied: _encode_batch_applied,
    ErrorMessage: _encode_error,
    StatsRequest: _encode_stats_request,
    StatsResponse: _encode_stats_response,
    ObjectsRequest: _encode_objects_request,
    ObjectsResponse: _encode_objects_response,
    AggregateStatsRequest: _encode_agg_stats_request,
    AggregateStatsResponse: _encode_agg_stats_response,
    DrainRequest: _encode_drain_request,
    DrainAck: _encode_drain_ack,
    IndexDelta: _encode_index_delta,
    DeltaAck: _encode_delta_ack,
    MetricsRequest: _encode_metrics_request,
    MetricsSnapshot: _encode_metrics_snapshot,
}


# Per-frame-type codec latency histograms, cached here so the hot path
# never re-derives a label key or touches the registry dict.
_CODEC_HISTOGRAMS: Dict[Tuple[str, str], Histogram] = {}


def _codec_histogram(op: str, frame: str) -> Histogram:
    key = (op, frame)
    hist = _CODEC_HISTOGRAMS.get(key)
    if hist is None:
        hist = _obs_histogram("insq_codec_seconds", op=op, frame=frame)
        _CODEC_HISTOGRAMS[key] = hist
    return hist


def encode(message: Any) -> bytes:
    """Encode one protocol message into one length-prefixed frame.

    Raises:
        TransportError: for unknown message types or out-of-range fields
            (e.g. an object index that does not fit the wire's u32).
    """
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise TransportError(f"cannot encode message of type {type(message).__name__}")
    started = start_timer()
    try:
        data = encoder(message)
    except struct.error as error:
        raise TransportError(
            f"field out of range encoding {type(message).__name__}: {error}"
        )
    if started is not None:
        _codec_histogram("encode", type(message).__name__).observe(
            _obs_clock() - started
        )
    return data


# ----------------------------------------------------------------------
# Per-type decoders
# ----------------------------------------------------------------------
def _decode_position_update(reader: _Reader) -> PositionUpdate:
    query_id = reader.i32()
    position = reader.position()
    return PositionUpdate(
        query_id=None if query_id < 0 else query_id, position=position
    )


def _read_response_body(reader: _Reader) -> Tuple[int, int, int, int, Dict[str, Any]]:
    """Read the shared response layout; returns the envelope fields plus
    the :class:`QueryResult` constructor kwargs (kind decoders widen them)."""
    query_id = reader.i32()
    objects_shipped = reader.u32()
    round_trips = reader.u32()
    epoch = reader.u32()
    timestamp = reader.i32()
    action_code = reader.u8()
    if action_code >= len(_ACTIONS):
        raise TransportError(f"unknown update action code 0x{action_code:02x}")
    was_valid = reader.u8() != 0
    k = reader.u32()
    knn = tuple(reader.u32() for _ in range(k))
    distances = tuple(reader.f64() for _ in range(k))
    guard_count = reader.u32()
    guards = frozenset(reader.u32() for _ in range(guard_count))
    result_kwargs = dict(
        timestamp=timestamp,
        knn=knn,
        knn_distances=distances,
        guard_objects=guards,
        action=_ACTIONS[action_code],
        was_valid=was_valid,
    )
    return query_id, objects_shipped, round_trips, epoch, result_kwargs


def _decode_knn_response(reader: _Reader) -> KNNResponse:
    query_id, objects_shipped, round_trips, epoch, kwargs = _read_response_body(reader)
    return KNNResponse(
        query_id=query_id,
        result=QueryResult(**kwargs),
        objects_shipped=objects_shipped,
        round_trips=round_trips,
        epoch=epoch,
    )


def _decode_influential_response(reader: _Reader) -> InfluentialResponse:
    query_id, objects_shipped, round_trips, epoch, kwargs = _read_response_body(reader)
    site_count = reader.u32()
    sites = tuple(reader.u32() for _ in range(site_count))
    return InfluentialResponse(
        query_id=query_id,
        result=InfluentialResult(sites=sites, **kwargs),
        objects_shipped=objects_shipped,
        round_trips=round_trips,
        epoch=epoch,
    )


def _decode_region_event(reader: _Reader) -> RegionEvent:
    query_id, objects_shipped, round_trips, epoch, kwargs = _read_response_body(reader)
    event_code = reader.u8()
    if event_code >= len(_REGION_EVENTS):
        raise TransportError(f"unknown region event code 0x{event_code:02x}")
    departed_count = reader.u32()
    departed = tuple(reader.u32() for _ in range(departed_count))
    return RegionEvent(
        query_id=query_id,
        result=RegionResult(
            event=_REGION_EVENTS[event_code], departed=departed, **kwargs
        ),
        objects_shipped=objects_shipped,
        round_trips=round_trips,
        epoch=epoch,
    )


def _decode_update_batch(reader: _Reader) -> UpdateBatch:
    n_inserts = reader.u32()
    n_deletes = reader.u32()
    n_moves = reader.u32()
    inserts = tuple(reader.target() for _ in range(n_inserts))
    deletes = tuple(reader.u32() for _ in range(n_deletes))
    moves = tuple((reader.u32(), reader.target()) for _ in range(n_moves))
    return UpdateBatch(inserts=inserts, deletes=deletes, moves=moves)


def _decode_open_session(reader: _Reader) -> OpenSession:
    k = reader.u32()
    rho = reader.f64()
    position = reader.position()
    n_options = reader.u8()
    options = tuple((reader.string(), reader.string()) for _ in range(n_options))
    return OpenSession(position=position, k=k, rho=rho, options=options)


def _decode_open_query(reader: _Reader) -> OpenQuery:
    kind = reader.string()
    k = reader.u32()
    rho = reader.f64()
    position = reader.position()
    n_options = reader.u8()
    options = tuple((reader.string(), reader.string()) for _ in range(n_options))
    return OpenQuery(kind=kind, position=position, k=k, rho=rho, options=options)


def _decode_batch_applied(reader: _Reader) -> BatchApplied:
    epoch = reader.u32()
    new_indexes = tuple(reader.u32() for _ in range(reader.u32()))
    deleted_indexes = tuple(reader.u32() for _ in range(reader.u32()))
    return BatchApplied(
        epoch=epoch, new_indexes=new_indexes, deleted_indexes=deleted_indexes
    )


def _decode_error(reader: _Reader) -> ErrorMessage:
    return ErrorMessage(kind=reader.string(), message=reader.string())


def _decode_stats_response(reader: _Reader) -> StatsResponse:
    aggregate = _read_comm(reader)
    count = reader.u32()
    per_session = tuple((reader.i32(), _read_comm(reader)) for _ in range(count))
    return StatsResponse(aggregate=aggregate, per_session=per_session)


def _decode_objects_response(reader: _Reader) -> ObjectsResponse:
    epoch = reader.u32()
    indexes = tuple(reader.u32() for _ in range(reader.u32()))
    return ObjectsResponse(epoch=epoch, indexes=indexes)


def _decode_drain_ack(reader: _Reader) -> DrainAck:
    wal_seq = reader.u64()
    session_ids = tuple(reader.i32() for _ in range(reader.u32()))
    return DrainAck(wal_seq=wal_seq, session_ids=session_ids)


def _decode_index_delta(reader: _Reader) -> IndexDelta:
    epoch = reader.u32()
    payload = reader.u32()
    flags = reader.u8()

    def u32s():
        return tuple(reader.u32() for _ in range(reader.u32()))

    new_indexes = u32s()
    deleted_indexes = u32s()
    changed = u32s()
    points = tuple(reader.position() for _ in range(reader.u32()))
    neighbors = tuple((reader.u32(), u32s()) for _ in range(reader.u32()))
    removed_neighbors = u32s()
    assignments = tuple((reader.u32(), reader.u32()) for _ in range(reader.u32()))
    groups = tuple((reader.u32(), u32s()) for _ in range(reader.u32()))
    removed_groups = u32s()
    vertices = tuple(
        (reader.u32(), reader.u32(), reader.f64()) for _ in range(reader.u32())
    )
    removed_vertices = u32s()
    edges = []
    for _ in range(reader.u32()):
        edge_id, owner_u, owner_v = reader.u32(), reader.u32(), reader.u32()
        border = reader.f64() if reader.u8() else None
        edges.append((edge_id, owner_u, owner_v, border))
    removed_edges = u32s()
    labels = tuple(
        (reader.u32(), u32s(), u32s(), u32s()) for _ in range(reader.u32())
    )
    removed_labels = u32s()
    return IndexDelta(
        epoch=epoch,
        payload=payload,
        full=bool(flags & 1),
        bulk=bool(flags & 2),
        new_indexes=new_indexes,
        deleted_indexes=deleted_indexes,
        changed=changed,
        points=points,
        neighbors=neighbors,
        removed_neighbors=removed_neighbors,
        assignments=assignments,
        groups=groups,
        removed_groups=removed_groups,
        vertices=vertices,
        removed_vertices=removed_vertices,
        edges=tuple(edges),
        removed_edges=removed_edges,
        labels=labels,
        removed_labels=removed_labels,
    )


def _decode_agg_stats_response(reader: _Reader) -> AggregateStatsResponse:
    values = {name: reader.u64() for name in _PROC_INT_FIELDS}
    values.update({name: reader.f64() for name in _PROC_FLOAT_FIELDS})
    return AggregateStatsResponse(stats=ProcessorStats(**values))


def _decode_metrics_snapshot(reader: _Reader) -> MetricsSnapshot:
    counters = tuple(
        (reader.string(), reader.string(), reader.u64())
        for _ in range(reader.u32())
    )
    gauges = tuple(
        (reader.string(), reader.string(), reader.f64())
        for _ in range(reader.u32())
    )
    histograms = tuple(
        (
            reader.string(),
            reader.string(),
            tuple(reader.u64() for _ in range(reader.u16())),
            reader.f64(),
        )
        for _ in range(reader.u32())
    )
    # Reject here what merge_snapshots cannot merge, so a buggy or hostile
    # peer gets a typed error at the socket instead of a crash in the merge.
    if any(len(counts) != BUCKET_COUNT for _, _, counts, _ in histograms):
        raise TransportError(f"a histogram does not ship {BUCKET_COUNT} buckets")
    if len({(name, labels) for name, labels, _, _ in histograms}) != len(histograms):
        raise TransportError("duplicate histogram key in metrics snapshot")
    return MetricsSnapshot(counters=counters, gauges=gauges, histograms=histograms)


_DECODERS = {
    _T_POSITION_UPDATE: _decode_position_update,
    _T_KNN_RESPONSE: _decode_knn_response,
    _T_INFLUENTIAL_RESPONSE: _decode_influential_response,
    _T_REGION_EVENT: _decode_region_event,
    _T_UPDATE_BATCH: _decode_update_batch,
    _T_OPEN_SESSION: _decode_open_session,
    _T_OPEN_QUERY: _decode_open_query,
    _T_SESSION_OPENED: lambda r: SessionOpened(query_id=r.i32()),
    _T_CLOSE_SESSION: lambda r: CloseSession(query_id=r.i32()),
    _T_SESSION_CLOSED: lambda r: SessionClosed(query_id=r.i32()),
    _T_REFRESH: lambda r: RefreshRequest(query_id=r.i32()),
    _T_BATCH_APPLIED: _decode_batch_applied,
    _T_ERROR: _decode_error,
    _T_STATS_REQUEST: lambda r: StatsRequest(per_session=r.u8() != 0),
    _T_STATS_RESPONSE: _decode_stats_response,
    _T_OBJECTS_REQUEST: lambda r: ObjectsRequest(),
    _T_OBJECTS_RESPONSE: _decode_objects_response,
    _T_AGG_STATS_REQUEST: lambda r: AggregateStatsRequest(),
    _T_AGG_STATS_RESPONSE: _decode_agg_stats_response,
    _T_DRAIN_REQUEST: lambda r: DrainRequest(),
    _T_DRAIN_ACK: _decode_drain_ack,
    _T_INDEX_DELTA: _decode_index_delta,
    _T_DELTA_ACK: lambda r: DeltaAck(epoch=r.u32()),
    _T_METRICS_REQUEST: lambda r: MetricsRequest(),
    _T_METRICS_SNAPSHOT: _decode_metrics_snapshot,
}


def _decode_body(body: bytes) -> Any:
    if not body:
        raise TransportError("empty frame body")
    reader = _Reader(body)
    frame_type = reader.u8()
    decoder = _DECODERS.get(frame_type)
    if decoder is None:
        raise TransportError(f"unknown frame type 0x{frame_type:02x}")
    started = start_timer()
    message = decoder(reader)
    reader.finish()
    if started is not None:
        _codec_histogram("decode", type(message).__name__).observe(
            _obs_clock() - started
        )
    return message


def decode(data: bytes) -> Any:
    """Decode exactly one complete frame (prefix included) into a message.

    Raises:
        TransportError: when ``data`` is not exactly one well-formed frame
            (truncated, trailing bytes, unknown type, malformed body).
    """
    if len(data) < LENGTH_PREFIX_BYTES:
        raise TransportError("frame shorter than its length prefix")
    (length,) = _LENGTH.unpack_from(data, 0)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"declared frame length {length} exceeds the limit")
    if len(data) != LENGTH_PREFIX_BYTES + length:
        raise TransportError(
            f"frame declares {length} body bytes but carries "
            f"{len(data) - LENGTH_PREFIX_BYTES}"
        )
    return _decode_body(data[LENGTH_PREFIX_BYTES:])


# ----------------------------------------------------------------------
# Predicted sizes
# ----------------------------------------------------------------------
def _size_position_update(message: PositionUpdate) -> int:
    return _OVERHEAD + 4 + _position_size(message.position)


def _size_knn_response(message: KNNResponse) -> int:
    result = message.result
    return (
        _OVERHEAD
        + 4  # query_id
        + 4 + 4 + 4  # objects_shipped, round_trips, epoch
        + 4 + 1 + 1  # timestamp, action, was_valid
        + 4 + len(result.knn) * (4 + 8)
        + 4 + len(result.guard_objects) * 4
    )


def _size_update_batch(message: UpdateBatch) -> int:
    return (
        _OVERHEAD
        + 12
        + sum(_target_size(target) for target in message.inserts)
        + 4 * len(message.deletes)
        + sum(4 + _target_size(target) for _, target in message.moves)
    )


def _size_influential_response(message: InfluentialResponse) -> int:
    return _size_knn_response(message) + 4 + 4 * len(message.result.sites)


def _size_region_event(message: RegionEvent) -> int:
    return _size_knn_response(message) + 1 + 4 + 4 * len(message.result.departed)


def _size_open_session(message: OpenSession) -> int:
    options = sum(
        4 + len(name.encode("utf-8")) + len(value.encode("utf-8"))
        for name, value in message.options
    )
    return _OVERHEAD + 4 + 8 + _position_size(message.position) + 1 + options


def _size_open_query(message: OpenQuery) -> int:
    options = sum(
        4 + len(name.encode("utf-8")) + len(value.encode("utf-8"))
        for name, value in message.options
    )
    return (
        _OVERHEAD
        + 2 + len(message.kind.encode("utf-8"))
        + 4 + 8 + _position_size(message.position) + 1 + options
    )


def _size_error(message: ErrorMessage) -> int:
    return (
        _OVERHEAD
        + 4
        + len(message.kind.encode("utf-8"))
        + len(message.message.encode("utf-8"))
    )


def _size_stats_response(message: StatsResponse) -> int:
    return _OVERHEAD + 48 + 4 + len(message.per_session) * (4 + 48)


def _size_objects_response(message: ObjectsResponse) -> int:
    return _OVERHEAD + 4 + 4 + 4 * len(message.indexes)


def _size_batch_applied(message: BatchApplied) -> int:
    return (
        _OVERHEAD
        + 4
        + 4 + 4 * len(message.new_indexes)
        + 4 + 4 * len(message.deleted_indexes)
    )


def _size_metrics_snapshot(message: MetricsSnapshot) -> int:
    def s(text: str) -> int:
        return 2 + len(text.encode("utf-8"))

    return (
        _OVERHEAD
        + 12  # three u32 section counts
        + sum(s(name) + s(labels) + 8 for name, labels, _ in message.counters)
        + sum(s(name) + s(labels) + 8 for name, labels, _ in message.gauges)
        + sum(
            s(name) + s(labels) + 2 + 8 * len(counts) + 8
            for name, labels, counts, _ in message.histograms
        )
    )


def _size_index_delta(message: IndexDelta) -> int:
    def u32s(values) -> int:
        return 4 + 4 * len(values)

    return (
        _OVERHEAD
        + 4 + 4 + 1  # epoch, payload, flags
        + u32s(message.new_indexes)
        + u32s(message.deleted_indexes)
        + u32s(message.changed)
        + 4 + sum(_position_size(point) for point in message.points)
        + 4 + sum(4 + u32s(members) for _, members in message.neighbors)
        + u32s(message.removed_neighbors)
        + 4 + 8 * len(message.assignments)
        + 4 + sum(4 + u32s(members) for _, members in message.groups)
        + u32s(message.removed_groups)
        + 4 + 16 * len(message.vertices)
        + u32s(message.removed_vertices)
        + 4 + sum(13 + (0 if border is None else 8) for *_, border in message.edges)
        + u32s(message.removed_edges)
        + 4 + sum(
            4 + u32s(verts) + u32s(edge_ids) + u32s(adjacent)
            for _, verts, edge_ids, adjacent in message.labels
        )
        + u32s(message.removed_labels)
    )


_SIZERS = {
    PositionUpdate: _size_position_update,
    KNNResponse: _size_knn_response,
    InfluentialResponse: _size_influential_response,
    RegionEvent: _size_region_event,
    UpdateBatch: _size_update_batch,
    OpenSession: _size_open_session,
    OpenQuery: _size_open_query,
    SessionOpened: lambda m: _OVERHEAD + 4,
    CloseSession: lambda m: _OVERHEAD + 4,
    SessionClosed: lambda m: _OVERHEAD + 4,
    RefreshRequest: lambda m: _OVERHEAD + 4,
    BatchApplied: _size_batch_applied,
    ErrorMessage: _size_error,
    StatsRequest: lambda m: _OVERHEAD + 1,
    StatsResponse: _size_stats_response,
    ObjectsRequest: lambda m: _OVERHEAD,
    ObjectsResponse: _size_objects_response,
    AggregateStatsRequest: lambda m: _OVERHEAD,
    AggregateStatsResponse: lambda m: _OVERHEAD + 8 * 11 + 8 * 5,
    DrainRequest: lambda m: _OVERHEAD,
    DrainAck: lambda m: _OVERHEAD + 8 + 4 + 4 * len(m.session_ids),
    IndexDelta: _size_index_delta,
    DeltaAck: lambda m: _OVERHEAD + 4,
    MetricsRequest: lambda m: _OVERHEAD,
    MetricsSnapshot: _size_metrics_snapshot,
}


def wire_size(message: Any) -> int:
    """Predicted encoded size of ``message`` in bytes, prefix included.

    Computed arithmetically — ``wire_size(m) == len(encode(m))`` holds
    exactly for every encodable message, which is the codec's reconciliation
    contract: the transport's measured byte counters are provably the sum
    of the per-message predictions.
    """
    sizer = _SIZERS.get(type(message))
    if sizer is None:
        raise TransportError(f"cannot size message of type {type(message).__name__}")
    return sizer(message)


# ----------------------------------------------------------------------
# Incremental framing
# ----------------------------------------------------------------------
class FrameReader:
    """Incremental frame decoder for a byte stream.

    Feed it whatever the socket produced — half a frame, three frames and
    a bit — and it yields each completed message exactly once, in order::

        reader = FrameReader()
        for chunk in socket_chunks:
            for message, nbytes in reader.feed(chunk):
                handle(message)

    Raises :class:`~repro.errors.TransportError` on corrupt input (the
    stream is unrecoverable past that point — close the connection).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self._max_frame_bytes = max_frame_bytes

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Tuple[Any, int]]:
        """Absorb ``data``; return the completed ``(message, size)`` pairs.

        ``size`` is the frame's full wire size (length prefix included),
        so a transport can bill measured bytes per message.
        """
        self._buffer.extend(data)
        messages: List[Tuple[Any, int]] = []
        while True:
            if len(self._buffer) < LENGTH_PREFIX_BYTES:
                return messages
            (length,) = _LENGTH.unpack_from(self._buffer, 0)
            if length > self._max_frame_bytes:
                raise TransportError(
                    f"declared frame length {length} exceeds the limit"
                )
            frame_size = LENGTH_PREFIX_BYTES + length
            if len(self._buffer) < frame_size:
                return messages
            body = bytes(self._buffer[LENGTH_PREFIX_BYTES:frame_size])
            del self._buffer[:frame_size]
            messages.append((_decode_body(body), frame_size))
