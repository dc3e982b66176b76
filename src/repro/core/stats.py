"""Cost accounting for moving-kNN processors and servers.

The evaluation (``benchmarks/``) compares methods along the axes the paper's
introduction identifies: construction overhead, validation overhead,
recomputation frequency and client/server communication.  Every processor
owns a :class:`ProcessorStats` instance and increments it as it works; the
simulation harness reads it out after a run.

:class:`CommunicationStats` makes the paper's *headline* metric — messages
and objects shipped over the wire — a first-class quantity.  The serving
engine accounts every client/server exchange into one (per query and in
aggregate): registrations, position updates that had to contact the server,
the data-update stream, the per-epoch invalidation notifications and
session teardown.  The ``repro.service`` message layer
(:class:`~repro.service.messages.PositionUpdate`,
:class:`~repro.service.messages.KNNResponse`,
:class:`~repro.service.messages.UpdateBatch`) reports its payloads in the
same units, so the counters are testably equal whether a workload is driven
through :class:`~repro.service.session.Session` handles or through the raw
server API.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterator

from repro.obs.clock import clock as _clock


@dataclass
class CommunicationStats:
    """Messages and data objects exchanged between clients and the server.

    The INSQ system's stated goal is minimal communication cost, so the
    serving engine counts every exchange explicitly instead of leaving the
    number to be estimated from retrieval counters after a run.  Directions
    are named from the client's point of view:

    Attributes:
        uplink_messages: client → server messages (query registration,
            position updates that had to contact the server, object-update
            batches from the data-owner stream, session teardown).
        uplink_objects: object states carried by uplink messages (the
            insert/delete/move records of the data-update stream; query
            positions are not data objects and count as payload 0).
        downlink_messages: server → client messages (retrieval responses
            and the per-epoch invalidation notifications pushed to every
            registered query).
        downlink_objects: data objects carried by downlink payloads — the
            paper's communication-cost proxy (``|R| + |I(R)|`` per
            retrieval, plus incremental fetches).
        uplink_bytes: bytes actually sent client → server, as measured by
            the ``repro.transport`` wire layer (its codec's ``wire_size``
            is exact, so measured and predicted bytes agree).  Stays 0 for
            in-process serving, where no bytes cross a boundary.
        downlink_bytes: bytes actually sent server → client (same source).
    """

    # Append-only, and this order is the wire format: the transport codec
    # ships these fields in declaration order (``int`` as u64), so a new
    # counter goes last and none is ever reordered, retyped or removed.
    uplink_messages: int = 0
    uplink_objects: int = 0
    downlink_messages: int = 0
    downlink_objects: int = 0
    uplink_bytes: int = 0
    downlink_bytes: int = 0

    @property
    def messages(self) -> int:
        """Total messages exchanged in either direction."""
        return self.uplink_messages + self.downlink_messages

    @property
    def objects_transmitted(self) -> int:
        """Total object states shipped over the wire in either direction."""
        return self.uplink_objects + self.downlink_objects

    @property
    def bytes_transmitted(self) -> int:
        """Total wire bytes in either direction (0 for in-process serving)."""
        return self.uplink_bytes + self.downlink_bytes

    def merge(self, other: "CommunicationStats") -> None:
        """Accumulate another stats object into this one."""
        _merge(self, other)

    def snapshot(self) -> "CommunicationStats":
        """An independent copy (for before/after deltas around one call)."""
        return replace(self)

    def as_dict(self) -> Dict[str, int]:
        """A plain dictionary of every counter and total (for reports)."""
        return {
            **_counters(self),
            "messages": self.messages,
            "objects_transmitted": self.objects_transmitted,
            "bytes_transmitted": self.bytes_transmitted,
        }


@dataclass
class ProcessorStats:
    """Mutable cost counters for one processor over one simulation run.

    Attributes:
        timestamps: number of timestamps processed (including the first).
        validations: number of validation checks performed.
        local_reorders: answer changes composed purely from client-held data.
        incremental_updates: updates that fetched a small amount of data
            (counted separately from full recomputations).
        full_recomputations: full answer + guard recomputations at the server.
        ins_refreshes: guard-set refreshes triggered by data-object updates
            that were absorbed from diagram deltas (no kNN recomputation).
        absorbed_updates: settles (one per timestamp that found deltas
            pending, however many epochs they span) whose deltas left R and
            I(R) as they were, so they cost the client nothing.
        transmitted_objects: total data objects sent from server to client
            (the paper's communication cost proxy).
        distance_computations: point-to-point (or network) distance
            evaluations performed by the client for validation and reordering.
        index_node_accesses: 0 for every processor: it counted R-tree
            nodes, and no processor keeps an R-tree.  Kept until the serving
            and baseline digests, which hash every integer field, are
            re-recorded.
        settled_vertices: Dijkstra-settled vertices (road-network mode only).
        construction_seconds: wall-clock time spent building guard structures
            (safe regions, INS sets, candidate lists).
        validation_seconds: wall-clock time spent checking validity at each
            timestamp.
        maintenance_seconds: server-side wall-clock time spent applying
            data-update epochs to the live index.
    """

    # Append-only, this order is the wire format (``float`` ships as f64).
    timestamps: int = 0
    validations: int = 0
    local_reorders: int = 0
    incremental_updates: int = 0
    full_recomputations: int = 0
    ins_refreshes: int = 0
    absorbed_updates: int = 0
    transmitted_objects: int = 0
    distance_computations: int = 0
    index_node_accesses: int = 0
    settled_vertices: int = 0
    construction_seconds: float = 0.0
    validation_seconds: float = 0.0
    maintenance_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def communication_events(self) -> int:
        """Number of timestamps at which any server communication happened."""
        return self.incremental_updates + self.full_recomputations

    @property
    def recomputation_rate(self) -> float:
        """Full recomputations per processed timestamp."""
        return self.full_recomputations / self.timestamps if self.timestamps else 0.0

    @property
    def total_seconds(self) -> float:
        """Total measured processing time (construction + validation)."""
        return self.construction_seconds + self.validation_seconds

    # ------------------------------------------------------------------
    # Updating helpers
    # ------------------------------------------------------------------
    @contextmanager
    def timed(self, field: str) -> Iterator[None]:
        """Context manager adding the elapsed time to the timer ``field``
        (``"construction_seconds"``, ``"validation_seconds"``, ...)."""
        start = _clock()
        try:
            yield
        finally:
            setattr(self, field, getattr(self, field) + (_clock() - start))

    def merge(self, other: "ProcessorStats") -> None:
        """Accumulate another stats object into this one (for sweeps)."""
        _merge(self, other)

    def as_dict(self) -> Dict[str, float]:
        """A plain dictionary of every counter and derived rate (for reports)."""
        return {
            **_counters(self),
            "communication_events": self.communication_events,
            "total_seconds": self.total_seconds,
            "recomputation_rate": self.recomputation_rate,
        }


# The field list is the dataclass's own, so no counter can be left out.
def _counters(stats) -> Dict[str, float]:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _merge(stats, other) -> None:
    for f in fields(stats):
        setattr(stats, f.name, getattr(stats, f.name) + getattr(other, f.name))
