"""The binary wire codec of the transport layer: one table, compiled, three drivers.

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
``_string``, ``_enum``, ``_Tagged`` unions such as a position,
``_Array``, ``_Record``, ``_Struct``) sizes, bounds and normalises one kind
of value and says how it is written and read, so :func:`encode`,
:func:`decode`, :func:`wire_size` and the decoder's bounds checks are
generic drivers over one table and cannot drift apart; the frame
classes normalise their list-valued fields through the same types.  No
frame carries code of its own: a dotted attribute (``result.knn``) reaches
into the nested object whose class the row names.

**A row is compiled, not interpreted.**  On first use a row generates its
own straight-line ``pack`` / ``unpack`` from what its field types say
(:class:`_Record`; nothing happens at import).  Whatever has a width once
the array lengths are known — scalars, structs, unions of them, arrays of
plain numbers — *fuses* into a run that one ``struct.Struct`` packs, type
byte and length prefix included: ``encode(KNNResponse)`` is one ``pack``.
The Struct is looked up by the run's *shape*, the tuple of its array
lengths and union tags, in a cache capped at :data:`PLAN_CACHE_CAP` plans
(a few hundred bytes each; it starts over when full).  Decoding takes one
``unpack_from`` per stretch whose shape is known before it is read — a new
one after every count or tag — and bounds each stretch against the bytes
that are really there *before* asking for its plan, so a forged count costs
an error message: no memory, and no cache entry.  Strings and arrays of
records do not fuse; the same generated code steps through them, element by
element.

Frame layout: a 4-byte big-endian unsigned body length, then the body —
one type byte followed by the row's fields.  Meta frames (stats, objects,
metrics, drains) are diagnostics and serving infrastructure, never
billed into :class:`~repro.core.stats.CommunicationStats`.

**Adding a frame** takes one :func:`~repro.core.objects.immutable` class
(``__new__ = _coerce_arrays`` if it has list-valued fields) and one table
row, e.g. ``0x1A: _Frame(Ping, (("nonce", _u64), ("hops", _Array(_u8,
_u32))))`` — plus its name in ``__all__`` and a sample in
``tests/transport/golden/``.

**The wire format is append-only** (WALs and peers written by older
builds must keep decoding): never reuse a type byte or union tag, never
reorder, retype or remove a field of an existing frame, only append to
:data:`_ACTIONS`, :data:`_REGION_EVENTS` and :data:`_ERROR_KINDS`.  The
stats frames take their layout from the :mod:`repro.core.stats`
dataclasses, so the same rule binds those.  Two exceptions were made on
purpose, when the process-shard pool was removed: its delta frames 0x13 /
0x14 are retired (unknown, never to be reused), and the meta frame 0x10,
which no WAL holds, lost two dead timer fields.
``tests/transport/test_golden_corpus.py`` holds every frame type and one
WAL directory to the bytes first written.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
from functools import cached_property
from itertools import count
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
from repro.core.objects import QueryResult, UpdateAction, immutable
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.obs.metrics import BUCKET_COUNT, histogram as _obs_histogram, start_timer
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
    "DrainAck",
    "DrainRequest",
    "ErrorMessage",
    "FrameReader",
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

#: Upper bound on the compiled plans kept (one small ``struct.Struct`` per
#: run of fused fields and shape seen); the cache starts over when full.
PLAN_CACHE_CAP = 1024

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
def _coerce_arrays(cls, *args, **kwargs):
    """``__new__`` of every frame with list-valued fields: the row, each
    such field normalised through its field type in the frame table, so a
    frame built from lists or generators equals the one :func:`decode`
    returns for its bytes (and hashes, being tuples all the way down)."""
    frame = super(cls, cls).__new__(cls, *args, **kwargs)
    arrays = _FRAME_OF_CLASS[cls].arrays
    return frame._replace(**{name: kind.coerce(getattr(frame, name)) for name, kind in arrays})


@immutable
class OpenSession:
    """Client → server: register a moving query and open its session.

    Attributes:
        position: the query's starting position (Point or NetworkLocation).
        k: number of nearest neighbours to maintain.
        rho: prefetch ratio ρ.
        options: ``(name, value)`` string pairs.  Kept on the wire (the
            format is frozen) but the engine takes no options: clients send
            it empty and the server refuses a non-empty one with a
            ``ConfigurationError``.
    """

    position: Any
    k: int
    rho: float
    options: Tuple[Tuple[str, str], ...] = ()

    __new__ = _coerce_arrays


@immutable
class SessionOpened:
    """Server → client: the session is open under ``query_id``."""

    query_id: int


@immutable
class CloseSession:
    """Client → server: unregister ``query_id`` (the goodbye message)."""

    query_id: int


@immutable
class SessionClosed:
    """Server → client: acknowledgement of :class:`CloseSession`."""

    query_id: int


@immutable
class RefreshRequest:
    """Client → server: re-answer ``query_id`` at its current position."""

    query_id: int


@immutable
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
    new_indexes: Tuple[int, ...] = ()
    deleted_indexes: Tuple[int, ...] = ()

    __new__ = _coerce_arrays


@immutable
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


@immutable
class StatsRequest:
    """Client → server: read the communication counters (meta, unbilled)."""

    per_session: bool = False


@immutable
class StatsResponse:
    """Server → client: aggregate (and optionally per-session) counters."""

    aggregate: CommunicationStats
    per_session: Tuple[Tuple[int, CommunicationStats], ...] = ()

    __new__ = _coerce_arrays


@immutable
class ObjectsRequest:
    """Client → server: read the active object indexes (meta, unbilled)."""


@immutable
class ObjectsResponse:
    """Server → client: active object indexes, in the index's native order.

    The order matters: churn drivers sample victims from this list with a
    seeded RNG, so preserving the server-side order is what makes remote
    runs realise bit-identical update streams.
    """

    epoch: int
    indexes: Tuple[int, ...] = ()

    __new__ = _coerce_arrays


@immutable
class DrainRequest:
    """Operator → server: stop serving gracefully and park the sessions.

    The receiving side finishes the exchange in flight, checkpoints its
    durable state (when it has any), leaves every open session claimable in
    the server's orphan pool, and answers with a :class:`DrainAck` before
    going quiet.
    """


@immutable
class DrainAck:
    """Server → operator: drained; state is parked and claimable.

    Attributes:
        wal_seq: the last WAL sequence number covered by the drain's
            checkpoint (0 for a non-durable service — nothing logged, the
            sessions only survive in the orphan pool).
        session_ids: the query ids parked by the drain, ready for a
            reconnecting client to claim.
    """

    wal_seq: int
    session_ids: Tuple[int, ...] = ()

    __new__ = _coerce_arrays


@immutable
class AggregateStatsRequest:
    """Client → server: read the summed ProcessorStats (meta, unbilled)."""


@immutable
class AggregateStatsResponse:
    """Server → client: the engine's aggregate client-side cost counters."""

    stats: ProcessorStats


@immutable
class MetricsRequest:
    """Client → server: send me your metrics registry snapshot (meta).

    Read-only and idempotent: answered from a snapshot read, it never
    touches a session, an epoch or a counter — a scrape mid-run cannot
    perturb the protocol it observes.
    """


@immutable
class MetricsSnapshot:
    """Server → client: one observability registry readout (meta).

    The wire form of :class:`~repro.obs.metrics.RegistrySnapshot` (same
    field shapes, so :func:`~repro.obs.metrics.render_prometheus` accepts
    either).  Labels travel in the canonical ``k=v,k2=v2`` form; histogram
    bucket counts are positional over the shared fixed bounds
    (:data:`~repro.obs.metrics.HISTOGRAM_BOUNDS`).

    Attributes:
        counters: ``(name, labels, value)`` triples.
        gauges: ``(name, labels, value)`` triples.
        histograms: ``(name, labels, bucket_counts, sum)`` tuples.
    """

    counters: Tuple[Tuple[str, str, int], ...] = ()
    gauges: Tuple[Tuple[str, str, float], ...] = ()
    histograms: Tuple[Tuple[str, str, Tuple[int, ...], float], ...] = ()

    __new__ = _coerce_arrays


# ----------------------------------------------------------------------
# Field types
# ----------------------------------------------------------------------
_TRUNCATED = "truncated frame body"

#: (run id, *shape) -> the ``struct.Struct`` that packs or unpacks that run
#: at that shape.  Filled on first use, emptied when it reaches
#: :data:`PLAN_CACHE_CAP`; a decoder consults it only with counts that have
#: already passed their bounds, so forged frames never reach it.
_PLANS: Dict[tuple, struct.Struct] = {}
_RUN_IDS = count()


def _plan(key: tuple, fmt: str) -> struct.Struct:
    if len(_PLANS) >= PLAN_CACHE_CAP:
        _PLANS.clear()
    plan = _PLANS[key] = struct.Struct(fmt)
    return plan


def _total(amounts) -> str:
    """Source for the sum of ``amounts`` (ints and expressions), ints folded."""
    amounts = list(amounts)
    terms = [amount for amount in amounts if not isinstance(amount, int)]
    known = sum(amount for amount in amounts if isinstance(amount, int))
    return " + ".join([str(known)] * (known > 0 or not terms) + terms)


class _Field:
    """A field type knows how one kind of value sits on the wire: how many
    bytes it takes without encoding it (``size``; ``fixed`` when every value
    takes the same, else None; ``min_size`` is the fewest any value takes —
    what an array multiplies a declared count by), how to normalise a
    caller-supplied value into the shape decoding returns (``coerce``), and
    how it *fuses*: ``atoms`` lists, as source text, the pieces it adds to
    the run of the record it stands in (see :class:`_Atom`).  A type that
    cannot fuse (a string, an array of records) adds a step that calls its
    own ``write`` / ``read`` instead.  Everything is big-endian."""

    min_size = 0
    fixed: Optional[int] = None

    def size(self, value) -> int:
        return self.fixed

    def coerce(self, value):
        return value


class _Atom:
    """One piece of a record's generated pack / unpack code, as source text.

    A fused atom has a struct format ``fmt``, a pack argument ``arg``, the
    variable ``var`` it unpacks into (through ``take % numbers`` when they
    must be joined into an object), its size in bytes and its ``width`` in
    numbers (ints, or expressions).  When the width depends on the shape,
    ``fmt`` holds one ``%`` placeholder filled from ``by``, and ``key`` — a
    variable decoded earlier — is what the atom adds to the plan key.  A
    step (``fmt`` None) is a field that does not fuse: ``arg`` is its write
    statement and ``take`` its read statement.  ``before`` runs ahead of
    packing, ``check`` ahead of unpacking (counts known, nothing allocated
    yet), ``after`` once ``var`` is bound; ``overrun`` is the error message
    when the frame body ends short of the atom.
    """

    def __init__(self, var, fmt, nbytes=0, arg=None, *, key=None, by=None, width=1,
                 take=None, before=(), check=(), after=(), overrun=None):  # fmt: skip
        self.var, self.fmt, self.nbytes, self.arg = var, fmt, nbytes, arg or var
        self.key, self.by, self.width, self.take = key, by or key, width, take
        self.before, self.check, self.after, self.overrun = before, check, after, overrun


class _Scalar(_Field):
    """A fixed-width number, named by its :mod:`struct` code.  ``to_wire`` /
    ``from_wire`` convert between the message's value and the packed number."""

    width = 1

    def __init__(self, code, python=None, to_wire=None, from_wire=None):
        self.codes, self.python = code, python
        self.to_wire, self.from_wire = to_wire, from_wire
        self.min_size = self.fixed = struct.calcsize("!" + code)

    def atoms(self, at, env, shared):
        v = f"v{at}"
        env[f"c{at}"], env[f"d{at}"] = self.to_wire, self.from_wire
        arg = f"c{at}({v})" if self.to_wire else v
        convert = [f"{v} = d{at}({v})"] if self.from_wire else ()
        return [_Atom(v, self.codes, self.fixed, arg, after=convert)]

    def coerce(self, value):
        return value if self.python is None else self.python(value)

    # As the arm of a union, a plain scalar is a struct of one number.
    def spread(self, value):
        return (value,)

    def join(self, values):
        return values[0]


_u8, _u16, _u32, _u64, _i32 = (_Scalar(code, int) for code in "BHIQi")
_f64 = _Scalar("d", float)
_bool = _Scalar("?")  # one byte; any non-zero byte reads as True
#: The ``len()`` of a later count-less array of the same frame, for layouts
#: that ship their counts up front (recognised by identity, never copied).
_length = _Scalar("I")
#: A query id that is None while the session is still registering: -1.
_maybe_id = _Scalar(
    "i",
    to_wire=lambda query_id: -1 if query_id is None else query_id,
    from_wire=lambda query_id: None if query_id < 0 else query_id,
)


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


class _Struct(_Field):
    """An instance of ``cls`` as the numbers of its attributes ``names`` (in
    wire order, which is also ``cls``'s positional order)."""

    def __init__(self, cls, codes, *names):
        self.cls, self.codes, self.width = cls, codes, len(names)
        self.spread = operator.attrgetter(*names) if names else (lambda value: ())
        self.min_size = self.fixed = struct.calcsize("!" + codes)

    def join(self, values):
        return self.cls(*values)

    def atoms(self, at, env, shared):
        arg, take = f"*f{at}.spread(v{at})", f"f{at}.join(%s)"
        return [_Atom(f"v{at}", self.codes, self.fixed, arg, width=self.width, take=take)]


class _String(_Field):
    """A u16 byte length, then that many bytes of UTF-8."""

    min_size = 2
    coerce = str

    def atoms(self, at, env, shared):
        return [_Atom(
            f"v{at}", None, arg=f"f{at}.write(v{at}, parts)",
            take=f"v{at}, offset = f{at}.read(data, offset)",
        )]  # fmt: skip

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
            return str(data[start:end], "utf-8"), end
        except UnicodeDecodeError as error:
            raise TransportError(f"malformed utf-8 string in frame: {error}")

    def size(self, value) -> int:
        return 2 + len(value.encode("utf-8"))


_string = _String()


class _Tagged(_Field):
    """A tagged union: one tag byte, then the value as the matching arm's
    field type (a scalar or a struct).  Each arm is ``(tag, python type,
    field type)``; a value is written by the first arm whose type it is."""

    def __init__(self, what, *arms):
        self.what = what
        self.arms = [(cls, (tag, kind)) for tag, cls, kind in arms]
        self.by_tag = {tag: kind for tag, _, kind in arms}
        # The common case of arm(): an exact type.
        self.by_type = {cls: arm for cls, arm in self.arms if isinstance(cls, type)}
        self.min_size = 1 + min(kind.fixed for _, _, kind in arms)

    def arm(self, value):
        """``(tag, field type)`` of the arm that writes ``value``."""
        for cls, arm in self.arms:
            if isinstance(value, cls):
                return arm
        raise TransportError(f"cannot encode {self.what} of type {type(value).__name__}")

    def atoms(self, at, env, shared):
        v, t, k = f"v{at}", f"t{at}", f"k{at}"
        env[f"b{at}"] = self.by_type
        unknown = f"raise TransportError({f'unknown {self.what} tag 0x%02x'!r} % {t})"
        return [
            _Atom(t, "B", 1, before=[f"{t}, {k} = b{at}.get(type({v})) or f{at}.arm({v})"],
                  after=[f"{k} = f{at}.by_tag.get({t})", f"if {k} is None: {unknown}"]),
            _Atom(v, "%s", f"{k}.fixed", f"*{k}.spread({v})", key=t, by=f"{k}.codes",
                  width=f"{k}.width", take=f"{k}.join(%s)"),
        ]  # fmt: skip

    def size(self, value) -> int:
        return 1 + (self.by_type.get(type(value)) or self.arm(value))[1].fixed


class _Array(_Field):
    """A count, then that many elements; the value is a tuple — or, when
    ``unordered``, a frozenset, written sorted so that equal sets encode to
    equal bytes.

    With one ``T`` the elements are bare values, with several they are rows
    (a record).  ``count`` is the count's scalar type, or None when an
    earlier :data:`_length` field of the same frame shipped it (named
    ``counted_by`` when that is not this field's own attribute).
    ``exactly`` and ``unique`` (a key function over elements) are
    decode-side constraints; ``what`` names the array in their errors.
    The count always fuses with its neighbours; plain numbers fuse too
    (``"%dI"``), anything else is written and read element by element,
    each through the elements' own compiled record.
    """

    def __init__(
        self, count, *kinds, counted_by=None, exactly=None, unique=None, what="array",
        unordered=False,
    ):  # fmt: skip
        self.count, self.counted_by, self.unordered = count, counted_by, unordered
        self.exactly, self.unique, self.what = exactly, unique, what
        self.min_size = count.fixed if count else 0
        self.element = kinds[0] if len(kinds) == 1 else _Record(*kinds)
        assert self.element.min_size > 0  # or a count could not be bounded
        self.stride = self.element.fixed
        self.numeric = isinstance(self.element, _Scalar) and not self.element.to_wire
        if not self.numeric:
            self.rows = _Record(*kinds, bare=len(kinds) == 1)

    def atoms(self, at, env, shared):
        v, n = f"v{at}", shared or f"n{at}"
        head, around = [], dict(before=[], check=[], after=[])
        if self.unordered:
            around["before"].append(f"{v} = sorted({v})")
            around["after"].append(f"{v} = frozenset({v})")
        if self.count:
            head = [_Atom(n, self.count.codes, self.count.fixed, before=[f"{n} = len({v})"])]
        elif self.counted_by:
            wrong = "array of %d elements where its shared count field says %d"
            wrong = f"raise TransportError({wrong!r} % (len({v}), {n}))"
            around["before"].append(f"if len({v}) != {n}: {wrong}")
        if self.exactly is not None:
            wrong = f"%d {self.what} where exactly {self.exactly} are due"
            wrong = f"raise TransportError({wrong!r} % {n})"
            around["check"].append(f"if {n} != {self.exactly}: {wrong}")
        if not self.numeric:
            read = f"{v}, offset = f{at}.read(data, offset, {n})"
            return head + [_Atom(v, None, 0, f"f{at}.write({v}, parts)", take=read, **around)]
        overrun = f"{self.what} of %d elements overruns the frame body"
        return head + [_Atom(
            v, "%d" + self.element.codes, f"{n} * {self.stride}", "*" + v, key=n, width=n,
            overrun=f"{overrun!r} % {n}", **around,
        )]  # fmt: skip

    def write(self, value, parts) -> None:
        parts.extend(map(self.rows.pack, value))

    def read(self, data, offset, count):
        # The bound every array passes before anything is allocated for it.
        if count * self.element.min_size > len(data) - offset:
            raise TransportError(f"{self.what} of {count} elements overruns the frame body")
        items = []
        unpack = self.rows.unpack
        for _ in range(count):
            item, offset = unpack(data, offset)
            items.append(item)
        if self.unique and len({self.unique(item) for item in items}) != count:
            raise TransportError(f"duplicate {self.what} key")
        return tuple(items), offset

    def size(self, value) -> int:
        if self.stride is not None:
            return self.min_size + len(value) * self.stride
        return self.min_size + sum(map(self.element.size, value))

    def coerce(self, value):
        items = value if self.numeric else map(self.element.coerce, value)
        return (frozenset if self.unordered else tuple)(items)


class _Record(_Field):
    """``T…`` side by side; the value is a row (tuple) with one entry per T,
    or the bare value of a ``bare`` record of one.

    ``pack(value) -> bytes`` and ``unpack(data, offset) -> (value, offset)``
    are compiled from the field types' atoms on first use (``source`` keeps
    the generated text).  Adjacent fused atoms form a *run*: packed by one
    ``Struct.pack`` whose format follows from the run's *shape* — its array
    lengths and union arms — and is looked up in :data:`_PLANS` under that
    shape; unpacked by one ``unpack_from`` per stretch whose shape is known
    before it is read, i.e. a new one after each count or tag.  Every
    stretch is bounded against the bytes that are there *before* its plan is
    looked up, so a forged count costs neither memory nor a cache entry.
    """

    def __init__(self, *kinds, bare=False):
        self.kinds, self.bare = kinds, bare
        self.variable = [(kind, at) for at, kind in enumerate(kinds) if kind.fixed is None]
        self.fixed_part = sum(kind.fixed or 0 for kind in kinds)
        self.min_size = sum(kind.min_size for kind in kinds)
        self.fixed = None if self.variable else self.fixed_part

    @cached_property
    def pack(self):
        self._compile()  # binds both on the instance
        return self.pack

    @cached_property
    def unpack(self):
        self._compile()
        return self.unpack

    def _bind(self, env):
        """How generated code gets at the value: the statements that bind
        ``v0 …`` from it when packing, the expression that makes it from them
        when unpacking, the shared-count variable of each count-less array,
        and the type byte of a frame."""
        row = "v0" if self.bare else "".join(f"v{at}, " for at in range(len(self.kinds)))
        return [f"{row} = value"], f"({row})", {}, None

    def _compile(self) -> None:
        env = dict(TransportError=TransportError, _PLANS=_PLANS, _plan=_plan)  # + the atoms'
        bind, made, shared, head = self._bind(env)
        pieces = []  # in wire order: a list of atoms per run, a lone atom per step
        for at, kind in enumerate(self.kinds):
            env[f"f{at}"] = kind
            for atom in kind.atoms(at, env, shared.get(at)):
                if atom.fmt is None:
                    pieces.append(atom)
                elif pieces and isinstance(pieces[-1], list):
                    pieces[-1].append(atom)
                else:
                    pieces.append([atom])
        if head is not None and not (pieces and isinstance(pieces[0], list)):
            pieces.insert(0, [])  # nothing fuses with the prefix: a run of its own
        joined = len(pieces) > 1 or isinstance(pieces[0], _Atom)

        def plan(atoms, prefix=""):
            """Source for the Struct of ``atoms`` at the shape the code has at hand."""
            fmt = "!" + prefix + "".join(atom.fmt for atom in atoms)
            run, keys = next(_RUN_IDS), dict.fromkeys(atom.key for atom in atoms if atom.key)
            if not keys:
                env[f"P{run}"] = struct.Struct(fmt)
                return f"P{run}"
            key = f"({run}, {', '.join(keys)})"
            fills = ", ".join(atom.by for atom in atoms if atom.by)
            return f"(_PLANS.get({key}) or _plan({key}, {fmt!r} % ({fills},)))"

        pack, last, unpack = [], [], []
        for piece in pieces:
            if isinstance(piece, _Atom):
                pack += [*piece.before, piece.arg]
                unpack += [*piece.check, piece.take, *piece.after]
                continue
            lines = [line for atom in piece for line in atom.before]
            args = [atom.arg for atom in piece]
            if head is not None and piece is pieces[0]:
                # A frame's first run also packs the length prefix and the type
                # byte — last, when the sizes of the other parts are known.
                size = f"plan.size - {LENGTH_PREFIX_BYTES}" + " + sum(map(len, parts))" * joined
                call = f"plan.pack({', '.join([size, str(head), *args])})"
                last = [*lines, f"plan = {plan(piece, 'IB')}"]
                last.append(f"parts[0] = {call}" if joined else f"return {call}")
            else:
                call = f"{plan(piece)}.pack({', '.join(args)})"
                pack += [*lines, f"parts.append({call})" if joined else f"return {call}"]
            stretch, bound = [], set()
            for atom in piece:
                if atom.key in bound:  # decoded by this very stretch: close it first
                    unpack += self._unpack_stretch(stretch, plan(stretch))
                    stretch, bound = [], set()
                stretch.append(atom)
                bound.add(atom.var)
            if stretch:
                unpack += self._unpack_stretch(stretch, plan(stretch))
        if joined:
            pack.insert(0, "parts = [b'']" if last else "parts = []")
            last.append("return b''.join(parts)")
        lines = ["def pack(value):", *bind, *pack, *last]
        lines += ["def unpack(data, offset):", *unpack, f"return {made}, offset"]
        self.source = "\n".join(line if line[:4] == "def " else " " + line for line in lines)
        exec(self.source, env)
        self.pack, self.unpack = env["pack"], env["unpack"]

    @staticmethod
    def _unpack_stretch(atoms, plan):
        """Source that bounds, unpacks and regroups one stretch of a run."""
        overrun = next((atom.overrun for atom in atoms if atom.overrun), repr(_TRUNCATED))
        lines = [line for atom in atoms for line in atom.check]
        lines.append(f"end = offset + {_total(atom.nbytes for atom in atoms)}")
        lines.append(f"if end > len(data): raise TransportError({overrun})")
        numbers = f"{plan}.unpack_from(data, offset)"
        if all(atom.width == 1 and not atom.take for atom in atoms):
            lines.append(f"{''.join(atom.var + ', ' for atom in atoms)} = {numbers}")
        elif len(atoms) == 1:
            lines.append(f"{atoms[0].var} = {(atoms[0].take or '%s') % numbers}")
        else:
            lines.append(f"numbers = {numbers}")
            widths = [atom.width for atom in atoms]
            for index, atom in enumerate(atoms):
                picked = f"numbers[{_total(widths[:index])}]"
                if atom.width != 1 or atom.take:
                    picked = f"{picked[:-1]}:{_total(widths[: index + 1])}]"
                lines.append(f"{atom.var} = {(atom.take or '%s') % picked}")
        lines.append("offset = end")
        return lines + [line for atom in atoms for line in atom.after]

    def size(self, row) -> int:
        return self.fixed_part + sum(field.size(row[at]) for field, at in self.variable)

    def coerce(self, row):
        return tuple(
            kind.coerce(value) for kind, value in zip(self.kinds, row, strict=True)
        )


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
_u32s = _Array(_u32, _u32)
_options = _Array(_u8, _string, _string)
_communication = _counters(CommunicationStats)


# ----------------------------------------------------------------------
# The frame table
# ----------------------------------------------------------------------
class _Frame(_Record):
    """One row of the frame table: a message class and its record.

    ``fields`` pairs each wire field, in wire order, with the attribute it
    carries — dotted when the attribute sits on a nested object, whose class
    ``nested`` names (``result=QueryResult``).  The generated code reads the
    attributes straight off the message and builds it back with
    ``cls(attribute=…)``.
    """

    def __init__(self, cls, fields=(), **nested):
        self.cls, self.name, self.fields, self.nested = cls, cls.__name__, fields, nested
        super().__init__(*(kind for _, kind in fields))
        self.arrays = [(name, kind) for name, kind in fields if isinstance(kind, _Array)]
        # wire_size() = base + each variable-width field, straight off the message
        self.base = LENGTH_PREFIX_BYTES + 1 + self.fixed_part
        self.sized = [
            (operator.attrgetter(name), kind) for name, kind in fields if kind.fixed is None
        ]
        # insq_codec_seconds{op, frame} handles, made on first use (an idle
        # frame type leaves no empty series in the registry).
        self.encode_seconds = self.decode_seconds = None

    def _bind(self, env):
        env["cls"] = self.cls
        lengths = {name: at for at, (name, kind) in enumerate(self.fields) if kind is _length}
        values = {name: at for at, (name, kind) in enumerate(self.fields)}  # the later wins
        bind, shared = [f"{part} = value.{part}" for part in self.nested], {}
        keywords = {"": []}  # of the message's constructor, then of each nested object's
        for at, (name, kind) in enumerate(self.fields):
            if kind is _length:
                continue
            if isinstance(kind, _Array) and kind.count is None:
                shared[at] = f"v{lengths[kind.counted_by or name]}"
            part, _, attribute = name.rpartition(".")
            bind.append(f"v{at} = {part or 'value'}.{attribute}")
            keywords.setdefault(part, []).append(f"{attribute}=v{at}")
        bind += [f"v{at} = len(v{values[name]})" for name, at in lengths.items()]
        for part, nested_cls in self.nested.items():
            env["new_" + part] = nested_cls
            keywords[""].append(f"{part}=new_{part}({', '.join(keywords[part])})")
        return bind, f"cls({', '.join(keywords[''])})", shared, self.head

    def timer(self, op: str):
        """This frame's latency histogram for ``op``, kept on the row."""
        handle = _obs_histogram("insq_codec_seconds", op=op, frame=self.name)
        setattr(self, op + "_seconds", handle)
        return handle


# fmt: off
#: The layout every kind's response starts with — ``result.*`` flattened
#: behind the envelope, ``knn`` and ``knn_distances`` sharing one count,
#: the guard set as a sorted array.
_RESPONSE = (
    ("query_id", _i32), ("objects_shipped", _u32), ("round_trips", _u32), ("epoch", _u32),
    ("result.timestamp", _i32), ("result.action", _enum("update action", _ACTIONS)),
    ("result.was_valid", _bool), ("result.knn", _length), ("result.knn", _Array(None, _u32)),
    ("result.knn_distances", _Array(None, _f64, counted_by="result.knn")),
    ("result.guard_objects", _Array(_u32, _u32, unordered=True)),
)
_QUERY_ID = (("query_id", _i32),)
_OPEN = (("k", _u32), ("rho", _f64), ("position", _position), ("options", _options))

#: type byte → message class and fields.  Type bytes, field order and every
#: enum order are append-only: WALs and peers written by older builds must
#: keep decoding (tests/transport/golden/ holds them to it).
_FRAMES = {
    0x01: _Frame(PositionUpdate, (("query_id", _maybe_id), ("position", _position))),
    0x02: _Frame(KNNResponse, _RESPONSE, result=QueryResult),
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
    # 0x13 and 0x14 carried the retired process pool's index deltas and
    # their acks: they stay unknown and must not be reused.
    0x15: _Frame(OpenQuery, (("kind", _string),) + _OPEN),
    0x16: _Frame(
        InfluentialResponse, _RESPONSE + (("result.sites", _u32s),), result=InfluentialResult
    ),
    0x17: _Frame(RegionEvent, _RESPONSE + (
        ("result.event", _enum("region event", _REGION_EVENTS)), ("result.departed", _u32s),
    ), result=RegionResult),
    0x18: _Frame(MetricsRequest),
    0x19: _Frame(MetricsSnapshot, (
        ("counters", _Array(_u32, _string, _string, _u64)),
        ("gauges", _Array(_u32, _string, _string, _f64)),
        # Reject here a bucket count other than the shared bounds' and a
        # repeated key, so a buggy or hostile peer gets a typed error at the
        # socket instead of a crash wherever the snapshot is read.
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
    _frame.head = _tag


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
    try:
        data = frame.pack(message)
    except (struct.error, OverflowError, TypeError, ValueError, AttributeError) as error:
        raise TransportError(
            f"field out of range or mistyped encoding {frame.name}: {error}"
        )
    if started is not None:
        (frame.encode_seconds or frame.timer("encode")).observe_since(started)
    return data


def _decode_body(body) -> Any:
    if not body:
        raise TransportError("empty frame body")
    frame = _FRAMES.get(body[0])
    if frame is None:
        raise TransportError(f"unknown frame type 0x{body[0]:02x}")
    started = start_timer()
    message, end = frame.unpack(body, 1)
    if end != len(body):
        raise TransportError(f"frame body has {len(body) - end} trailing bytes")
    if started is not None:
        (frame.decode_seconds or frame.timer("decode")).observe_since(started)
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
        if not self._buffer and len(data) >= LENGTH_PREFIX_BYTES:
            # Exactly one frame and nothing pending — every request and reply
            # of a request/response peer: decode it where it lies.
            (length,) = _LENGTH.unpack_from(data)
            if len(data) - LENGTH_PREFIX_BYTES == length <= self._max_frame_bytes:
                return [(_decode_body(memoryview(data)[LENGTH_PREFIX_BYTES:]), len(data))]
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
