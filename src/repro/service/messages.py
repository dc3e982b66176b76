"""The typed client/server message protocol of the service layer.

INSQ is a communication-minimising system, so the service front door speaks
in explicit messages whose cost is part of their type: every message is one
wire exchange, and :meth:`payload_size` reports how many *object states* it
carries.  Positions and object identifiers are not object states — a
message that ships only those has payload 0; what makes the paper's metric
move is data objects crossing the server/client boundary (the ``|R| +
|I(R)|`` of a retrieval, the incremental fetches, the insert/move records
of the data-owner stream).

Three message kinds cover the protocol:

* :class:`PositionUpdate` — client → server: "I moved here" (payload 0).
* :class:`KNNResponse` — server → client: the answer at that position,
  annotated with the round trips and objects the step actually cost (a
  locally validated step cost nothing; the response object then merely
  reports the client-side answer).
* :class:`UpdateBatch` — data owners → server: a burst of object
  insertions, deletions and relocations applied as one data epoch
  (payload = one record per mutation).

The units are exactly those of
:class:`~repro.core.stats.CommunicationStats`, which the serving engine
accumulates per session and in aggregate — so what the protocol reports per
message and what the engine reports per run are testably consistent.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Tuple

from repro.core.objects import QueryResult, UpdateAction, immutable
from repro.core.stats import CommunicationStats

__all__ = [
    "CommunicationStats",
    "KNNResponse",
    "PositionUpdate",
    "UpdateBatch",
]


@immutable
class PositionUpdate:
    """A client's position report for one timestamp.

    Attributes:
        query_id: the session's query identifier (None while registering —
            the server assigns the id in its response).
        position: the new query position (:class:`~repro.geometry.point.
            Point` on the plane, :class:`~repro.roadnet.location.
            NetworkLocation` on a road network).
    """

    query_id: Any
    position: Any

    def payload_size(self) -> int:
        """Object states carried: a position is not a data object — 0."""
        return 0


@immutable
class KNNResponse:
    """The answer to one :class:`PositionUpdate`.

    Wraps the processor's :class:`~repro.core.objects.QueryResult` and
    annotates it with what the step cost over the wire: ``round_trips``
    server contacts (0 when the client validated its held answer locally)
    shipping ``objects_shipped`` data objects in total.

    Attributes:
        query_id: the answering session's query identifier.
        result: the underlying per-timestamp answer.
        objects_shipped: data objects sent server → client for this step.
        round_trips: server contacts this step needed (each is one uplink
            request plus one downlink response).
        epoch: the server's data epoch when the answer was produced.
    """

    query_id: int
    result: QueryResult
    objects_shipped: int
    round_trips: int
    epoch: int

    def payload_size(self) -> int:
        """Data objects this response (and its incremental fetches) shipped."""
        return self.objects_shipped

    # -- QueryResult conveniences (the fields clients read most) ---------
    @property
    def knn(self) -> Tuple[int, ...]:
        """The reported k nearest neighbour object indexes, nearest first."""
        return self.result.knn

    @property
    def knn_distances(self) -> Tuple[float, ...]:
        """Distance to each reported neighbour, in ``knn`` order."""
        return self.result.knn_distances

    @property
    def knn_set(self) -> FrozenSet[int]:
        """The reported kNN set, order-insensitive."""
        return self.result.knn_set

    @property
    def guard_objects(self) -> FrozenSet[int]:
        """The safe guarding objects the client holds after this step."""
        return self.result.guard_objects

    @property
    def action(self) -> UpdateAction:
        """What the processor had to do at this timestamp."""
        return self.result.action

    @property
    def was_valid(self) -> bool:
        """True when the previously reported answer was still valid."""
        return self.result.was_valid

    @property
    def k(self) -> int:
        """Number of reported neighbours."""
        return self.result.k

    def describe(self) -> str:
        """One-line human-readable description of the answer."""
        return self.result.describe()


@immutable
class UpdateBatch:
    """A burst of data-object mutations applied as one data epoch.

    The batch is metric-agnostic: on the Euclidean side inserts are
    :class:`~repro.geometry.point.Point` positions and a move is ``(object
    index, new Point)`` (applied as delete + reinsert, the plane's native
    relocation); on the road side inserts are vertex ids and a move is
    ``(object index, new vertex)``.

    Attributes:
        inserts: positions/vertices for new objects.
        deletes: object indexes to remove.
        moves: ``(object index, destination)`` relocations.
    """

    inserts: Tuple[Any, ...] = ()
    deletes: Tuple[int, ...] = ()
    moves: Tuple[Tuple[int, Any], ...] = ()

    def __new__(cls, inserts=(), deletes=(), moves=()):
        # Normalise arbitrary iterables into tuples so batches are hashable
        # value objects whatever the caller built them from.
        moves = tuple([(index, target) for index, target in moves])
        return tuple.__new__(cls, (tuple(inserts), tuple(deletes), moves))

    @property
    def is_empty(self) -> bool:
        """True when the batch carries no mutation at all."""
        return not (self.inserts or self.deletes or self.moves)

    def payload_size(self) -> int:
        """Object records in the batch *as written*: one per mutation.

        What the engine bills into
        :attr:`~repro.core.stats.CommunicationStats.uplink_objects` is the
        records it actually receives: on the road side a move is one native
        relocation record, so the bill equals this value; on the Euclidean
        side :meth:`~repro.service.service.KNNService.apply` decomposes
        each move into delete + reinsert before the engine sees it, so a
        move is billed as *two* records there (and a raw caller performing
        the same decomposition by hand is billed identically).
        """
        return len(self.inserts) + len(self.deletes) + len(self.moves)
