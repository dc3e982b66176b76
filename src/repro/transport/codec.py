"""The binary wire codec of the transport layer: one table, three drivers.

The message protocol (:class:`~repro.service.messages.PositionUpdate`,
:class:`~repro.service.messages.KNNResponse`,
:class:`~repro.service.messages.UpdateBatch` and the control and meta
frames defined below) already *is* the client/server protocol — this
module gives it a byte representation so it can cross a process boundary
and be logged by the WAL.  Design goals, in order:

* **compact** — struct-packed binary (a Euclidean position update is 26
  bytes on the wire), no pickle anywhere, so the measured byte counts are
  an honest communication metric rather than an artefact of a serialiser;
* **predictable** — :func:`wire_size` computes a message's encoded size
  arithmetically, without encoding it; ``len(encode(m)) == wire_size(m)``
  holds exactly for every message, which is what lets the benchmark
  reconcile measured bytes against codec-predicted bytes;
* **robust** — frames are length-prefixed, so a reader survives partial
  and concatenated reads (:class:`FrameReader`), and every malformed input
  — short read, unknown tag / enum code / frame type, bad UTF-8, trailing
  byte, a count that promises more than the body holds — raises
  :class:`~repro.errors.TransportError` before anything is allocated for
  it, never a bare ``struct.error``.

**Every frame is described once**, as a row of :data:`_FRAMES`: its type
byte, its message class, and its fields in wire order as ``(attribute,
field type)`` pairs.  A *field type* (``_u8 … _f64``, ``_bool``,
``_string``, ``_enum``, ``_flags``, ``_Tagged`` unions such as a position,
``_Array``, ``_Record``, ``_Struct``) writes, reads, sizes and bounds one
kind of value, so :func:`encode`, :func:`decode`, :func:`wire_size` and
the decoder's bounds checks are generic drivers over one table and cannot
drift apart; the frame dataclasses normalise their list-valued fields
through the same types.  Only messages that are not flat carry an adapter:
the ``KNNResponse`` family (``result.*`` nested behind the envelope) and
``PositionUpdate``'s ``None`` query id.

Frame layout: a 4-byte big-endian unsigned body length, then the body —
one type byte followed by the row's fields.  Meta frames (stats, objects,
metrics, index deltas) are diagnostics and serving infrastructure, never
billed into :class:`~repro.core.stats.CommunicationStats`.

**Adding a frame** takes one frozen dataclass (``__post_init__ =
_coerce_arrays`` if it has list-valued fields) and one table row, e.g.
``0x1A: _Frame(Ping, (("nonce", _u64), ("hops", _Array(_u8, _u32))))`` —
plus its name in ``__all__`` and a sample in ``tests/transport/golden/``.

**The wire format is append-only** (WALs and peers written by older
builds must keep decoding): never reuse a type byte or union tag, never
reorder, retype or remove a field of an existing frame, only append to
:data:`_ACTIONS`, :data:`_REGION_EVENTS`, :data:`_ERROR_KINDS` and a
``_flags`` entry.  The stats frames take their layout from the
:mod:`repro.core.stats` dataclasses, so the same rule binds those.
``tests/transport/test_golden_corpus.py`` holds every frame type and one
WAL directory to the bytes first written.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
from dataclasses import dataclass, field
from itertools import groupby
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

#: Wire order of :class:`UpdateAction` values (append-only by contract).
_ACTIONS = (
    UpdateAction.NONE,
    UpdateAction.LOCAL_REORDER,
    UpdateAction.INCREMENTAL,
    UpdateAction.FULL_RECOMPUTE,
)

#: Wire order of the region-monitor event names (append-only by contract).
_REGION_EVENTS = ("stay", "enter")

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
def _coerce_arrays(self) -> None:
    """``__post_init__`` of every frame with list-valued fields: each is
    normalised through its field type in the frame table, so a frame built
    from lists or generators equals the one :func:`decode` returns for its
    bytes (and hashes, being tuples all the way down)."""
    for name, kind in _FRAME_OF_CLASS[type(self)].arrays:
        object.__setattr__(self, name, kind.coerce(getattr(self, name)))


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

    __post_init__ = _coerce_arrays


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

    __post_init__ = _coerce_arrays


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

    __post_init__ = _coerce_arrays


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

    __post_init__ = _coerce_arrays


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

    __post_init__ = _coerce_arrays


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

    __post_init__ = _coerce_arrays


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

    __post_init__ = _coerce_arrays


# ----------------------------------------------------------------------
# Field types
# ----------------------------------------------------------------------
_TRUNCATED = "truncated frame body"


class _Field:
    """A field type knows four things about one kind of value: how to write
    it (append struct-packed bytes to ``parts``), how to read it back
    (``read(data, offset)`` returns the value and the next offset, and
    checks every length against the bytes that are really there *before* it
    unpacks or allocates), how many bytes it takes without encoding it
    (``size``) and how to normalise a caller-supplied value into the shape
    ``read`` returns (``coerce``).  ``min_size`` is the fewest bytes any
    value occupies — what an array multiplies a declared count by;
    ``fixed`` is the size of every value when they are all equal, else
    None.  Everything is big-endian."""

    min_size = 0
    fixed: Optional[int] = None

    def size(self, value) -> int:
        return self.fixed

    def coerce(self, value):
        return value


def _converted(values, converters):
    values = list(values)
    for index, convert in converters:
        values[index] = convert(values[index])
    return values


class _Run:
    """Adjacent scalars, fused into one precompiled :class:`struct.Struct`."""

    def __init__(self, scalars):
        self.packer = struct.Struct("!" + "".join(s.code for s in scalars))
        self.size = self.packer.size
        self.encoders = [(i, s.to_wire) for i, s in enumerate(scalars) if s.to_wire]
        self.decoders = [(i, s.from_wire) for i, s in enumerate(scalars) if s.from_wire]

    def pack(self, values) -> bytes:
        if self.encoders:
            values = _converted(values, self.encoders)
        return self.packer.pack(*values)

    def read(self, data, offset):
        end = offset + self.size
        if end > len(data):
            raise TransportError(_TRUNCATED)
        values = self.packer.unpack_from(data, offset)
        return (_converted(values, self.decoders) if self.decoders else values), end


class _Scalar(_Field):
    """A fixed-width number, named by its :mod:`struct` code.

    A record packs its scalars fused with their neighbours, a plain array
    packs them all at once; alone, a scalar is a run of one.  ``to_wire`` /
    ``from_wire`` convert between the message's value and the packed number.
    """

    def __init__(self, code, python=None, to_wire=None, from_wire=None):
        self.code, self.python = code, python
        self.to_wire, self.from_wire = to_wire, from_wire
        self.alone = _Run((self,))
        self.min_size = self.fixed = self.alone.size

    def write(self, value, parts) -> None:
        parts.append(self.alone.pack((value,)))

    def read(self, data, offset):
        (value,), offset = self.alone.read(data, offset)
        return value, offset

    def coerce(self, value):
        return value if self.python is None else self.python(value)


_u8, _u16, _u32, _u64, _i32 = (_Scalar(code, int) for code in "BHIQi")
_f64 = _Scalar("d", float)
_bool = _Scalar("?")  # one byte; any non-zero byte reads as True
#: The ``len()`` of a later count-less array of the same frame, for layouts
#: that ship their counts up front (recognised by identity, never copied).
_length = _Scalar("I")


def _enum(what: str, table) -> _Scalar:
    """A u8 index into ``table``, whose order is the wire contract."""
    codes = {value: code for code, value in enumerate(table)}

    def to_wire(value):
        if value not in codes:
            raise TransportError(f"unknown {what} {value!r}")
        return codes[value]

    def from_wire(code):
        if code >= len(table):
            raise TransportError(f"unknown {what} code 0x{code:02x}")
        return table[code]

    return _Scalar("B", to_wire=to_wire, from_wire=from_wire)


def _flags(*names: str):
    """A table entry packing the boolean attributes ``names`` into one u8,
    bit ``i`` for ``names[i]`` (unknown high bits are ignored)."""
    return names, _Scalar(
        "B",
        to_wire=lambda bits: sum(1 << i for i, bit in enumerate(bits) if bit),
        from_wire=lambda byte: tuple(bool(byte >> i & 1) for i in range(len(names))),
    )


class _Record(_Field):
    """``T…`` side by side; the value is a row (tuple) with one entry per T.

    ``counts`` maps the row position of a count-less array to the position
    of the :data:`_length` scalar that shipped its count.
    """

    def __init__(self, *kinds, counts=None):
        counts = counts or {}
        self.kinds = kinds
        # (run, None, start, stop) or (None, field, position, count position)
        self.steps = []
        for fused, group in groupby(enumerate(kinds), lambda at: isinstance(at[1], _Scalar)):
            group = list(group)
            if fused:
                run = _Run([kind for _, kind in group])
                self.steps.append((run, None, group[0][0], group[-1][0] + 1))
            else:
                self.steps += [(None, kind, at, counts.get(at)) for at, kind in group]
        fields = [(field, at) for run, field, at, _ in self.steps if run is None]
        self.variable = [(field, at) for field, at in fields if field.fixed is None]
        self.fixed_part = sum(run.size for run, _, _, _ in self.steps if run is not None)
        self.fixed_part += sum(field.fixed or 0 for field, _ in fields)
        self.min_size = sum(kind.min_size for kind in kinds)
        self.fixed = None if self.variable else self.fixed_part

    def write(self, row, parts) -> None:
        for run, field, start, stop in self.steps:
            if run is not None:
                parts.append(run.pack(row[start:stop]))
                continue
            if stop is not None and len(row[start]) != row[stop]:
                raise TransportError(
                    f"array of {len(row[start])} elements where its shared "
                    f"count field says {row[stop]}"
                )
            field.write(row[start], parts)

    def read(self, data, offset):
        row = []
        for run, field, _, count_at in self.steps:
            if run is not None:
                values, offset = run.read(data, offset)
                row.extend(values)
            elif count_at is None:
                value, offset = field.read(data, offset)
                row.append(value)
            else:
                value, offset = field.read(data, offset, row[count_at])
                row.append(value)
        return tuple(row), offset

    def size(self, row) -> int:
        return self.fixed_part + sum(field.size(row[at]) for field, at in self.variable)

    def coerce(self, row):
        return tuple(
            kind.coerce(value) for kind, value in zip(self.kinds, row, strict=True)
        )


class _String(_Field):
    """A u16 byte length, then that many bytes of UTF-8."""

    min_size = 2
    coerce = str

    def write(self, value, parts) -> None:
        raw = value.encode("utf-8")
        parts.append(struct.pack("!H%ds" % len(raw), len(raw), raw))

    def read(self, data, offset):
        start = offset + 2
        if start > len(data):
            raise TransportError(_TRUNCATED)
        end = start + int.from_bytes(data[offset:start], "big")
        if end > len(data):
            raise TransportError(_TRUNCATED)
        try:
            return data[start:end].decode("utf-8"), end
        except UnicodeDecodeError as error:
            raise TransportError(f"malformed utf-8 string in frame: {error}")

    def size(self, value) -> int:
        return 2 + len(value.encode("utf-8"))


_string = _String()


class _Tagged(_Field):
    """A tagged union: one tag byte, then the value as the matching arm's
    field type.  Each arm is ``(tag, python type, field type)``; a value is
    written by the first arm whose type it is."""

    def __init__(self, what, *arms):
        self.what = what
        self.arms = [(cls, bytes((tag,)), kind) for tag, cls, kind in arms]
        self.by_tag = {tag: kind for tag, _, kind in arms}
        self.min_size = 1 + min(kind.min_size for _, _, kind in arms)
        # The common case of size(): an exact type whose arm is fixed-width.
        self.sizes = {
            cls: 1 + kind.fixed for _, cls, kind in arms if isinstance(cls, type) and kind.fixed
        }

    def _arm(self, value, verb):
        for arm in self.arms:
            if isinstance(value, arm[0]):
                return arm
        raise TransportError(f"cannot {verb} {self.what} of type {type(value).__name__}")

    def write(self, value, parts) -> None:
        _, tag, kind = self._arm(value, "encode")
        parts.append(tag)
        kind.write(value, parts)

    def read(self, data, offset):
        if offset >= len(data):
            raise TransportError(_TRUNCATED)
        kind = self.by_tag.get(data[offset])
        if kind is None:
            raise TransportError(f"unknown {self.what} tag 0x{data[offset]:02x}")
        return kind.read(data, offset + 1)

    def size(self, value) -> int:
        return self.sizes.get(type(value)) or 1 + self._arm(value, "size")[2].size(value)


class _Array(_Field):
    """A count, then that many elements; the value is a tuple.

    With one ``T`` the elements are bare values, with several they are rows
    (a record).  ``count`` is the count's scalar type, or None when an
    earlier :data:`_length` field of the same frame shipped it (named
    ``counted_by`` when that is not this field's own attribute).
    ``exactly`` and ``unique`` (a key function over elements) are
    decode-side constraints; ``what`` names the array in their errors.
    """

    def __init__(
        self, count, *kinds, counted_by=None, exactly=None, unique=None, what="array"
    ):
        self.count, self.counted_by = count, counted_by
        self.exactly, self.unique, self.what = exactly, unique, what
        self.min_size = count.fixed if count else 0
        self.code = None
        if len(kinds) == 1 and isinstance(kinds[0], _Scalar) and not kinds[0].to_wire:
            # Homogeneous numbers: the whole array is one pack / unpack_from.
            self.code = kinds[0].code
            self.head = "!" + (count.code if count else "")
            self.packers = {}  # count -> Struct, for the small counts that recur
        self.element = kinds[0] if len(kinds) == 1 else _Record(*kinds)
        assert self.element.min_size > 0  # or a count could not be bounded
        self.stride = self.element.fixed

    def write(self, value, parts) -> None:
        count = len(value)
        if self.code:
            packer = self.packers.get(count)
            if packer is None:
                packer = struct.Struct("%s%d%s" % (self.head, count, self.code))
                if count < 256:
                    self.packers[count] = packer
            head = (count,) if self.count else ()
            parts.append(packer.pack(*head, *value))
            return
        if self.count:
            self.count.write(count, parts)
        write = self.element.write
        for item in value:
            write(item, parts)

    def read(self, data, offset, count=None):
        if count is None:
            count, offset = self.count.read(data, offset)
        if self.exactly is not None and count != self.exactly:
            raise TransportError(f"{count} {self.what} where exactly {self.exactly} are due")
        # The bound every array passes before anything is allocated for it.
        if count * self.element.min_size > len(data) - offset:
            raise TransportError(f"{self.what} of {count} elements overruns the frame body")
        if self.code:
            end = offset + count * self.stride
            return struct.unpack_from("!%d%s" % (count, self.code), data, offset), end
        items = []
        read = self.element.read
        for _ in range(count):
            item, offset = read(data, offset)
            items.append(item)
        if self.unique and len({self.unique(item) for item in items}) != count:
            raise TransportError(f"duplicate {self.what} key")
        return tuple(items), offset

    def size(self, value) -> int:
        if self.stride is not None:
            return self.min_size + len(value) * self.stride
        return self.min_size + sum(map(self.element.size, value))

    def coerce(self, value):
        return tuple(value) if self.code else tuple(map(self.element.coerce, value))


class _Struct(_Field):
    """An instance of ``cls`` as one fixed Struct of its attributes ``names``
    (in wire order, which is also ``cls``'s positional order)."""

    def __init__(self, cls, codes, *names):
        self.cls, self.packer = cls, struct.Struct("!" + codes)
        self.get = operator.attrgetter(*names) if names else (lambda value: ())
        self.min_size = self.fixed = self.packer.size

    def write(self, value, parts) -> None:
        parts.append(self.packer.pack(*self.get(value)))

    def read(self, data, offset):
        end = offset + self.fixed
        if end > len(data):
            raise TransportError(_TRUNCATED)
        return self.cls(*self.packer.unpack_from(data, offset)), end


def _counters(cls) -> _Struct:
    """A stats dataclass, laid out as ``dataclasses.fields(cls)`` says: a
    field declared ``int`` ships as u64, one declared ``float`` as f64, in
    declaration order — the dataclass is the only place a counter is listed."""
    declared = dataclasses.fields(cls)
    codes = ("Q" if f.type in (int, "int") else "d" for f in declared)
    return _Struct(cls, "".join(codes), *(f.name for f in declared))


_point = _Struct(Point, "dd", "x", "y")
#: A query position: a Point or a NetworkLocation (edge id plus offset) —
#: the tagged union that keeps the codec metric-agnostic.
_position = _Tagged(
    "position",
    (0x00, Point, _point),
    (0x01, NetworkLocation, _Struct(NetworkLocation, "Id", "edge_id", "offset")),
)
#: A batch target: a Point (Euclidean) or a road vertex id.
_target = _Tagged("batch target", (0x00, Point, _point), (0x01, int, _u32))
#: An optional double: a presence byte, then the value when it is 1.
_maybe_f64 = _Tagged(
    "optional double",
    (0x00, type(None), _Struct(type(None), "")),
    (0x01, (int, float), _f64),
)
_u32s = _Array(_u32, _u32)
_groups = _Array(_u32, _u32, _u32s)  # (key, member list) rows
_options = _Array(_u8, _string, _string)
_communication = _counters(CommunicationStats)


# ----------------------------------------------------------------------
# The frame table
# ----------------------------------------------------------------------
class _Frame:
    """One compiled row of the frame table: a message class and its record.

    ``fields`` pairs each wire field, in wire order, with the attribute it
    carries (a :func:`_flags` entry names several).  ``flatten`` (message
    → row) and ``build`` (row → message) default to attribute access and
    ``cls(**attributes)``; only a message that is not flat supplies its own.
    """

    def __init__(self, cls, fields=(), flatten=None, build=None):
        self.cls, self.name = cls, cls.__name__
        lengths = {name: at for at, (name, kind) in enumerate(fields) if kind is _length}
        self.record = _Record(
            *(kind for _, kind in fields),
            counts={
                at: lengths[kind.counted_by or name]
                for at, (name, kind) in enumerate(fields)
                if isinstance(kind, _Array) and kind.count is None
            },
        )
        self.arrays = [(name, kind) for name, kind in fields if isinstance(kind, _Array)]
        getters = [
            (lambda message, name=name: len(getattr(message, name)))
            if kind is _length
            else operator.attrgetter(*name) if isinstance(name, tuple)
            else operator.attrgetter(name)
            for name, kind in fields
        ]
        self.flatten = flatten or (lambda message: [get(message) for get in getters])
        # wire_size() = base + each variable-width field, straight off the message
        self.base = LENGTH_PREFIX_BYTES + 1 + self.record.fixed_part
        self.sized = [(getters[at], kind) for kind, at in self.record.variable]

        def from_attributes(row):
            attributes = {}
            for (name, kind), value in zip(fields, row):
                if isinstance(name, tuple):
                    attributes.update(zip(name, value))
                elif kind is not _length:
                    attributes[name] = value
            return cls(**attributes)

        self.build = build or from_attributes


def _response(cls, result_cls, *extension):
    """The table row of one response kind: the shared :data:`_RESPONSE`
    layout, then the fields ``result_cls`` adds to :class:`QueryResult`
    (in its declaration order).  The adapter nests and un-nests ``result``."""
    extras = [name.partition(".")[2] for name, _ in extension]

    def flatten(message):
        m, r = message, message.result
        envelope = (m.query_id, m.objects_shipped, m.round_trips, m.epoch)
        answer = (r.timestamp, r.action, r.was_valid, len(r.knn), r.knn, r.knn_distances)
        # A set has no order of its own: sorted, equal sets encode to equal bytes.
        return envelope + answer + (sorted(r.guard_objects), *[getattr(r, n) for n in extras])

    def build(row):
        query_id, shipped, trips, epoch, timestamp, action, was_valid = row[:7]
        _, knn, distances, guards, *extra = row[7:]
        guards = frozenset(guards)
        result = result_cls(timestamp, knn, distances, guards, action, was_valid, *extra)
        return cls(query_id, result, shipped, trips, epoch)

    return _Frame(cls, _RESPONSE + extension, flatten, build)


# fmt: off
#: The layout every kind's response starts with — ``result.*`` flattened
#: behind the envelope, ``knn`` and ``knn_distances`` sharing one count,
#: the guard set as a sorted array.
_RESPONSE = (
    ("query_id", _i32), ("objects_shipped", _u32), ("round_trips", _u32), ("epoch", _u32),
    ("result.timestamp", _i32), ("result.action", _enum("update action", _ACTIONS)),
    ("result.was_valid", _bool), ("result.knn", _length), ("result.knn", _Array(None, _u32)),
    ("result.knn_distances", _Array(None, _f64, counted_by="result.knn")),
    ("result.guard_objects", _u32s),
)
_QUERY_ID = (("query_id", _i32),)
_OPEN = (("k", _u32), ("rho", _f64), ("position", _position), ("options", _options))

#: type byte → message class and fields.  Type bytes, field order and every
#: enum order are append-only: WALs and peers written by older builds must
#: keep decoding (tests/transport/golden/ holds them to it).
_FRAMES = {
    0x01: _Frame(
        PositionUpdate, (("query_id", _i32), ("position", _position)),
        # query_id None (still registering) travels as -1.
        flatten=lambda m: (-1 if m.query_id is None else m.query_id, m.position),
        build=lambda row: PositionUpdate(None if row[0] < 0 else row[0], row[1]),
    ),
    0x02: _response(KNNResponse, QueryResult),
    0x03: _Frame(UpdateBatch, (
        ("inserts", _length), ("deletes", _length), ("moves", _length),
        ("inserts", _Array(None, _target)),
        ("deletes", _Array(None, _u32)),
        ("moves", _Array(None, _u32, _target)),
    )),
    0x04: _Frame(OpenSession, _OPEN),
    0x05: _Frame(SessionOpened, _QUERY_ID),
    0x06: _Frame(CloseSession, _QUERY_ID),
    0x07: _Frame(SessionClosed, _QUERY_ID),
    0x08: _Frame(RefreshRequest, _QUERY_ID),
    0x09: _Frame(BatchApplied, (
        ("epoch", _u32), ("new_indexes", _u32s), ("deleted_indexes", _u32s),
    )),
    0x0A: _Frame(ErrorMessage, (("kind", _string), ("message", _string))),
    0x0B: _Frame(StatsRequest, (("per_session", _bool),)),
    0x0C: _Frame(StatsResponse, (
        ("aggregate", _communication),
        ("per_session", _Array(_u32, _i32, _communication)),
    )),
    0x0D: _Frame(ObjectsRequest),
    0x0E: _Frame(ObjectsResponse, (("epoch", _u32), ("indexes", _u32s))),
    0x0F: _Frame(AggregateStatsRequest),
    0x10: _Frame(AggregateStatsResponse, (("stats", _counters(ProcessorStats)),)),
    0x11: _Frame(DrainRequest),
    0x12: _Frame(DrainAck, (("wal_seq", _u64), ("session_ids", _Array(_u32, _i32)))),
    0x13: _Frame(IndexDelta, (
        ("epoch", _u32), ("payload", _u32), _flags("full", "bulk"),
        ("new_indexes", _u32s), ("deleted_indexes", _u32s), ("changed", _u32s),
        ("points", _Array(_u32, _position)),
        ("neighbors", _groups), ("removed_neighbors", _u32s),
        ("assignments", _Array(_u32, _u32, _u32)),
        ("groups", _groups), ("removed_groups", _u32s),
        ("vertices", _Array(_u32, _u32, _u32, _f64)), ("removed_vertices", _u32s),
        ("edges", _Array(_u32, _u32, _u32, _u32, _maybe_f64)), ("removed_edges", _u32s),
        ("labels", _Array(_u32, _u32, _u32s, _u32s, _u32s)), ("removed_labels", _u32s),
    )),
    0x14: _Frame(DeltaAck, (("epoch", _u32),)),
    0x15: _Frame(OpenQuery, (("kind", _string),) + _OPEN),
    0x16: _response(InfluentialResponse, InfluentialResult, ("result.sites", _u32s)),
    0x17: _response(
        RegionEvent, RegionResult,
        ("result.event", _enum("region event", _REGION_EVENTS)), ("result.departed", _u32s),
    ),
    0x18: _Frame(MetricsRequest),
    0x19: _Frame(MetricsSnapshot, (
        ("counters", _Array(_u32, _string, _string, _u64)),
        ("gauges", _Array(_u32, _string, _string, _f64)),
        # Reject here what merge_snapshots cannot merge (a bucket count other
        # than the shared bounds', a repeated key), so a buggy or hostile peer
        # gets a typed error at the socket instead of a crash in the merge.
        ("histograms", _Array(
            _u32, _string, _string,
            _Array(_u16, _u64, exactly=BUCKET_COUNT, what="histogram buckets"), _f64,
            unique=operator.itemgetter(0, 1), what="histogram",
        )),
    )),
}
# fmt: on
_FRAME_OF_CLASS = {frame.cls: frame for frame in _FRAMES.values()}
assert len(_FRAME_OF_CLASS) == len(_FRAMES)
for _tag, _frame in _FRAMES.items():
    _frame.tag = bytes((_tag,))

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


# ----------------------------------------------------------------------
# The three drivers
# ----------------------------------------------------------------------
def encode(message: Any) -> bytes:
    """Encode one protocol message into one length-prefixed frame.

    Raises:
        TransportError: for unknown message types or out-of-range fields
            (e.g. an object index that does not fit the wire's u32).
    """
    frame = _FRAME_OF_CLASS.get(type(message))
    if frame is None:
        raise TransportError(f"cannot encode message of type {type(message).__name__}")
    started = start_timer()
    parts = [frame.tag]
    try:
        frame.record.write(frame.flatten(message), parts)
        body = b"".join(parts)
        data = _LENGTH.pack(len(body)) + body
    except (struct.error, OverflowError, TypeError, ValueError, AttributeError) as error:
        raise TransportError(
            f"field out of range or mistyped encoding {frame.name}: {error}"
        )
    if started is not None:
        _codec_histogram("encode", frame.name).observe(_obs_clock() - started)
    return data


def _decode_body(body: bytes) -> Any:
    if not body:
        raise TransportError("empty frame body")
    frame = _FRAMES.get(body[0])
    if frame is None:
        raise TransportError(f"unknown frame type 0x{body[0]:02x}")
    started = start_timer()
    row, end = frame.record.read(body, 1)
    if end != len(body):
        raise TransportError(f"frame body has {len(body) - end} trailing bytes")
    message = frame.build(row)
    if started is not None:
        _codec_histogram("decode", frame.name).observe(_obs_clock() - started)
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


def wire_size(message: Any) -> int:
    """Predicted encoded size of ``message`` in bytes, prefix included.

    Computed arithmetically — ``wire_size(m) == len(encode(m))`` holds
    exactly for every encodable message, which is the codec's reconciliation
    contract: the transport's measured byte counters are provably the sum
    of the per-message predictions.
    """
    frame = _FRAME_OF_CLASS.get(type(message))
    if frame is None:
        raise TransportError(f"cannot size message of type {type(message).__name__}")
    total = frame.base
    for get, kind in frame.sized:
        total += kind.size(get(message))
    return total


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
