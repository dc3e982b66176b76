"""The generic multi-query serving engine.

The paper's system is a *server*: one shared, expensive index answers many
concurrent moving kNN queries while the underlying data objects churn.  The
Euclidean :class:`~repro.core.server.MovingKNNServer` and the road-network
:class:`~repro.core.road_server.MovingRoadKNNServer` are two metric-specific
instances of the same machine, and this module is that machine:

* **query lifecycle** — registration hands out monotonically increasing
  query identifiers; every registered query owns one processor (answer,
  prefetched set, guard set) initialised before it is admitted, so a
  failing first answer never leaves a zombie query behind;
* **epoch counter** — every mutation batch (a single insert/delete/move
  counts as a batch of one) advances one data epoch, so clients can cheaply
  detect whether the data set changed since they last looked;
* **invalidation dispatch** — the engine pushes each epoch's *repair delta*
  (the objects whose Voronoi neighbour sets changed, plus the removed
  objects) to every registered processor, which settles it lazily on its
  next timestamp: a removal inside its prefetched set costs one retrieval,
  a delta elsewhere in its held pool an I(R)-only refresh, and a delta
  outside its pool nothing at all.  The pre-delta behaviour — flag every
  query for a full refresh on every epoch, regardless of where the update
  landed — survives as the ``"flag"`` fallback mode and as the oracle of
  the randomized delta-equivalence tests;
* **population guard** — a mutation that would leave fewer objects than
  some registered query's ``k`` requires fails loudly at the mutation
  instead of deep inside that query's next retrieval;
* **aggregate statistics** — cost counters summed across queries for
  capacity planning;
* **communication accounting** — every client/server exchange is counted
  into a :class:`~repro.core.stats.CommunicationStats`, per query and in
  aggregate, so the paper's headline metric (messages and objects shipped
  over the wire) is measured at the point where the exchanges happen
  instead of estimated from retrieval counters afterwards.  A registration
  costs one uplink request plus the initial retrieval response; a position
  update costs one round trip per server contact it actually needed (a
  locally validated timestamp is free); a mutation batch costs one uplink
  message carrying its object records plus one invalidation notification
  per registered query; closing a query costs one uplink message.  The
  ``repro.service`` layer reports the same numbers through its typed
  message protocol — and because the accounting lives here, a workload
  driven through raw server calls produces identical counters.

Subclasses provide the metric-specific 20%: constructing the shared index,
building a processor for a new query, and translating object mutations into
index repairs that report their deltas.
"""

from __future__ import annotations

import abc
import threading
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    TypeVar,
)

from repro.errors import ConfigurationError, QueryError
from repro.core.objects import QueryResult
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.obs.metrics import counter as _obs_counter, enabled as _obs_enabled

PositionT = TypeVar("PositionT")

# Engine-level observability: the epoch counter, and per-outcome
# retrieval counters derived from the ProcessorStats deltas the update
# already computed — reading them adds nothing to the serving work.
_EPOCHS_TOTAL = _obs_counter("insq_epochs_total")

#: ProcessorStats field → outcome label of ``insq_retrievals_total``.
_OUTCOME_FIELDS = (
    ("absorbed_updates", "absorbed"),
    ("ins_refreshes", "refreshed"),
    ("full_recomputations", "recomputed"),
    ("incremental_updates", "incremental"),
    ("local_reorders", "reordered"),
    ("validations", "validated"),
)
_OUTCOME_COUNTERS = tuple(
    _obs_counter("insq_retrievals_total", outcome=label)
    for _, label in _OUTCOME_FIELDS
)
_outcomes = attrgetter(*(field for field, _ in _OUTCOME_FIELDS))


class ServableProcessor(Protocol[PositionT]):
    """What the engine needs from a registered query's processor."""

    def update(self, position: PositionT) -> QueryResult: ...

    def notify_data_update(
        self, changed: Iterable[int], removed: Iterable[int]
    ) -> None: ...

    def invalidate(self) -> None: ...

    @property
    def stats(self) -> ProcessorStats: ...

    @property
    def last_position(self) -> Optional[PositionT]: ...


#: A registration record: any object exposing ``query_id``, ``k`` and a
#: ``processor`` satisfying :class:`ServableProcessor` (the servers use
#: frozen dataclasses).
RecordT = TypeVar("RecordT")


class ServingEngine(abc.ABC, Generic[PositionT, RecordT]):
    """Generic moving-query serving engine (see the module docstring).

    Args:
        invalidation: how data-object updates reach the registered queries.
            ``"delta"`` (default) pushes the repair delta so each query pays
            only for updates that touched its held pool; ``"flag"`` restores
            the blanket pre-delta contract (every query refreshes fully on
            every epoch), kept as a fallback and as the equivalence oracle.
    """

    INVALIDATION_MODES = ("delta", "flag")

    #: Server-side wall-clock time spent applying update epochs to the live
    #: index (the maintenance leader's cost) and applying shipped repair
    #: deltas (the read-replica's cost).  Class-level defaults so engines
    #: pickled before these timers existed keep restoring cleanly; the
    #: metric servers accumulate onto instance attributes.
    maintenance_seconds: float = 0.0
    delta_apply_seconds: float = 0.0

    def __init__(self, invalidation: str = "delta"):
        if invalidation not in self.INVALIDATION_MODES:
            raise ConfigurationError(
                f"invalidation must be one of {self.INVALIDATION_MODES}, got {invalidation!r}"
            )
        self._invalidation = invalidation
        self._queries: Dict[int, RecordT] = {}
        self._next_query_id = 0
        self._epoch = 0
        # Communication accounting: one aggregate (it keeps the history of
        # unregistered queries) plus one live record per registered query.
        # The lock keeps the counters exact when a ShardedDispatcher
        # advances different queries from different worker threads.
        self._communication = CommunicationStats()
        self._comm_by_query: Dict[int, CommunicationStats] = {}
        self._comm_by_kind: Dict[str, CommunicationStats] = {}
        self._comm_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the full serving state (for ``repro.durability`` snapshots).

        Everything the engine holds — index, registered processors with
        their prefetched/guard sets, epoch, communication counters — is
        picklable except the accounting lock, which is stripped here and
        recreated on restore.  A restored engine therefore continues
        *bit-identically*: same answers, same counters, same future query
        id assignments.
        """
        state = self.__dict__.copy()
        state["_comm_lock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Snapshots taken before per-kind accounting existed restore with an
        # empty kind ledger; it repopulates as exchanges are billed.
        self.__dict__.setdefault("_comm_by_kind", {})
        self._comm_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def invalidation(self) -> str:
        """The invalidation mode (``"delta"`` or ``"flag"``)."""
        return self._invalidation

    @property
    @abc.abstractmethod
    def object_count(self) -> int:
        """Number of active data objects in the shared index."""

    @property
    def query_count(self) -> int:
        """Number of currently registered queries."""
        return len(self._queries)

    @property
    def epoch(self) -> int:
        """The current data epoch.

        Incremented once per mutation batch (a single object update counts
        as a batch of one), so clients can cheaply detect whether the data
        set changed since they last looked.
        """
        return self._epoch

    def query_ids(self) -> List[int]:
        """Identifiers of the registered queries (a snapshot list)."""
        return list(self._queries)

    def __iter__(self) -> Iterator[RecordT]:
        """Iterate over a *snapshot* of the registration records.

        Unregistering a query (or closing a :class:`~repro.service.session.
        Session`) while iterating must not raise ``RuntimeError: dictionary
        changed size during iteration``, so the records are copied out
        before iteration starts.
        """
        return iter(tuple(self._queries.values()))

    @property
    def communication(self) -> CommunicationStats:
        """Aggregate client/server communication over the engine's lifetime.

        Includes exchanges of queries that have since been unregistered.
        The returned object is the engine's live accumulator — read it or
        :meth:`~repro.core.stats.CommunicationStats.snapshot` it, do not
        mutate it.
        """
        return self._communication

    def communication_for(self, query_id: int) -> CommunicationStats:
        """Live communication record of one registered query."""
        if query_id not in self._comm_by_query:
            raise QueryError(f"unknown query {query_id}")
        return self._comm_by_query[query_id]

    def per_query_communication(self) -> Dict[int, CommunicationStats]:
        """Communication counters per registered query (snapshots)."""
        return {
            query_id: record.snapshot()
            for query_id, record in self._comm_by_query.items()
        }

    def communication_by_kind(self) -> Dict[str, CommunicationStats]:
        """Communication counters per query *kind* (snapshots).

        Buckets exchanges by the kind of the query they were billed to
        (``"knn"``, ``"influential"``, ``"region"``, ...).  Only per-query
        exchanges are bucketed: the mutation stream's uplink messages and
        exchanges billed after a query closed (e.g. its goodbye-ack bytes)
        belong to no kind and appear in the aggregate only.
        """
        with self._comm_lock:
            return {kind: record.snapshot() for kind, record in self._comm_by_kind.items()}

    def kind_for(self, query_id: int) -> str:
        """The registered query kind of ``query_id`` (``"knn"`` by default)."""
        if query_id not in self._queries:
            raise QueryError(f"unknown query {query_id}")
        return getattr(self._queries[query_id], "kind", "knn")

    def _kind_bucket(self, query_id: int) -> Optional[CommunicationStats]:
        """The per-kind accumulator of a *registered* query (lock held)."""
        record = self._queries.get(query_id)
        if record is None:
            return None
        kind = getattr(record, "kind", "knn")
        bucket = self._comm_by_kind.get(kind)
        if bucket is None:
            bucket = self._comm_by_kind[kind] = CommunicationStats()
        return bucket

    def _account(
        self,
        query_id: Optional[int],
        uplink_messages: int = 0,
        uplink_objects: int = 0,
        downlink_messages: int = 0,
        downlink_objects: int = 0,
        uplink_bytes: int = 0,
        downlink_bytes: int = 0,
    ) -> None:
        """Add one exchange to the aggregate (and one query's) counters."""
        delta = CommunicationStats(
            uplink_messages=uplink_messages,
            uplink_objects=uplink_objects,
            downlink_messages=downlink_messages,
            downlink_objects=downlink_objects,
            uplink_bytes=uplink_bytes,
            downlink_bytes=downlink_bytes,
        )
        with self._comm_lock:
            self._communication.merge(delta)
            if query_id is not None:
                record = self._comm_by_query.get(query_id)
                if record is not None:
                    record.merge(delta)
                bucket = self._kind_bucket(query_id)
                if bucket is not None:
                    bucket.merge(delta)

    def account_wire_bytes(
        self,
        query_id: Optional[int],
        uplink_bytes: int = 0,
        downlink_bytes: int = 0,
    ) -> None:
        """Bill wire bytes measured by a transport onto the counters.

        The engine itself counts *messages* and *object states* — the units
        the in-process and over-the-wire surfaces share.  When a
        ``repro.transport`` server actually serialises those messages, it
        reports the measured frame sizes here so the byte counters sit
        alongside the message/object counts they correspond to.  Billing to
        a ``query_id`` that has already been unregistered (e.g. the bytes
        of the final close acknowledgement) silently lands in the aggregate
        only, mirroring how the goodbye message itself is accounted.
        """
        self._account(
            query_id, uplink_bytes=uplink_bytes, downlink_bytes=downlink_bytes
        )

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def _admit(self, make_record: Callable[[int], RecordT]) -> int:
        """Register an already-initialised query and return its identifier.

        ``make_record`` receives the allocated query id and returns the
        registration record (which must expose ``processor`` and ``k``).
        Callers initialise the processor *before* admitting it, so a failing
        first answer cannot leave a zombie query behind that inflates counts
        and receives deltas forever.
        """
        query_id = self._next_query_id
        self._next_query_id += 1
        record = make_record(query_id)
        self._queries[query_id] = record
        self._comm_by_query[query_id] = CommunicationStats()
        # Registration communication: one uplink request, and the initial
        # retrieval the processor performed while initialising (its stats
        # already carry the round trips and the |R| + |I(R)| payload).
        stats = record.processor.stats
        self._account(
            query_id,
            uplink_messages=1,
            downlink_messages=max(1, stats.communication_events),
            downlink_objects=stats.transmitted_objects,
        )
        return query_id

    def unregister_query(self, query_id: int) -> None:
        """Remove a query (raises QueryError when it does not exist).

        The goodbye message is the query's last accounted exchange; its
        communication history stays in the engine-wide aggregate.
        """
        if query_id not in self._queries:
            raise QueryError(f"unknown query {query_id}")
        self._account(query_id, uplink_messages=1)
        del self._queries[query_id]
        del self._comm_by_query[query_id]

    def _processor(self, query_id: int) -> ServableProcessor[PositionT]:
        if query_id not in self._queries:
            raise QueryError(f"unknown query {query_id}")
        return self._queries[query_id].processor

    def update_position(self, query_id: int, position: PositionT) -> QueryResult:
        """Advance one query to its next position and return its answer.

        Communication is accounted from what the processor actually did:
        each server contact (a retrieval or an incremental fetch) is one
        uplink request plus one downlink response carrying the fetched
        objects; a timestamp validated from client-held state exchanges
        nothing.
        """
        processor = self._processor(query_id)
        return self._accounted_update(query_id, processor, position)

    def answer(self, query_id: int) -> QueryResult:
        """Re-answer a query at its current position without moving it.

        Useful right after a data-object update when the client wants the
        refreshed result before its next movement.
        """
        processor = self._processor(query_id)
        if processor.last_position is None:
            raise QueryError(f"query {query_id} has no known position")
        return self._accounted_update(query_id, processor, processor.last_position)

    def _accounted_update(
        self,
        query_id: int,
        processor: ServableProcessor[PositionT],
        position: PositionT,
    ) -> QueryResult:
        stats = processor.stats
        contacts_before = stats.communication_events
        objects_before = stats.transmitted_objects
        before = _outcomes(stats) if _obs_enabled() else None
        result = processor.update(position)
        round_trips = stats.communication_events - contacts_before
        if round_trips:
            self._account(
                query_id,
                uplink_messages=round_trips,
                downlink_messages=round_trips,
                downlink_objects=stats.transmitted_objects - objects_before,
            )
        if before is not None:
            for counter, was, now in zip(_OUTCOME_COUNTERS, before, _outcomes(stats)):
                if now != was:
                    counter.inc(now - was)
        return result

    # ------------------------------------------------------------------
    # Epoch orchestration
    # ------------------------------------------------------------------
    @staticmethod
    def _dedup_active_deletes(
        deletes: Iterable[int], is_active: Callable[[int], bool]
    ) -> List[int]:
        """Filter a deletion list to active objects, deduped in input order.

        Shared by both servers' ``batch_update`` so the population guard
        counts each doomed object once and ``deleted_indexes`` comes back
        in the order the caller asked for.
        """
        seen = set()
        delete_list: List[int] = []
        for index in deletes:
            if is_active(index) and index not in seen:
                seen.add(index)
                delete_list.append(index)
        return delete_list

    def _check_population(self, resulting_count: int) -> None:
        """Reject a mutation that would starve a registered query.

        Every registered query needs ``k < population`` (one guard object
        must exist); checking at the mutation makes the violation fail at
        its cause instead of deep inside that query's next retrieval.
        """
        for registered in self._queries.values():
            if registered.k >= resulting_count:
                raise QueryError(
                    f"update would leave {resulting_count} data objects, too few "
                    f"for query {registered.query_id} with k={registered.k}"
                )

    def _commit_epoch(
        self, changed: Iterable[int], removed: Iterable[int] = (), payload: int = 1
    ) -> int:
        """Advance the data epoch and dispatch the invalidation round.

        In ``"delta"`` mode every registered processor receives the repair
        delta and settles it lazily (shared-state invalidation: nothing is
        copied).  In ``"flag"`` mode the delta is discarded and every
        processor is forced to refresh fully on its next timestamp.
        Returns the new epoch number.

        Communication: the mutation batch arrives as one uplink message
        carrying ``payload`` object records (the insert/delete/move stream
        from the data owners), and the server pushes one invalidation
        notification to every registered query — the ids it carries are not
        object states, so the notification payload is zero; the objects a
        query then fetches are charged to its own next update.
        """
        self._epoch += 1
        _EPOCHS_TOTAL.inc()
        if self._invalidation == "flag":
            for registered in self._queries.values():
                registered.processor.invalidate()
        else:
            for registered in self._queries.values():
                registered.processor.notify_data_update(changed, removed)
        with self._comm_lock:
            self._communication.uplink_messages += 1
            self._communication.uplink_objects += payload
            self._communication.downlink_messages += len(self._queries)
            for query_id, record in self._comm_by_query.items():
                record.downlink_messages += 1
                bucket = self._kind_bucket(query_id)
                if bucket is not None:
                    bucket.downlink_messages += 1
        return self._epoch

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def aggregate_stats(self) -> ProcessorStats:
        """Sum of the cost counters of every registered query.

        The engine's own server-side maintenance timers ride along in the
        ``maintenance_seconds`` / ``delta_apply_seconds`` fields (they are
        per-engine, not per-query, so they are injected once here rather
        than merged from the processors).
        """
        total = ProcessorStats()
        for registered in self._queries.values():
            total.merge(registered.processor.stats)
        total.maintenance_seconds += self.maintenance_seconds
        total.delta_apply_seconds += self.delta_apply_seconds
        return total

    def stats_for(self, query_id: int) -> ProcessorStats:
        """Cost counters of one registered query."""
        return self._processor(query_id).stats

    def per_query_stats(self) -> Dict[int, ProcessorStats]:
        """Cost counters per registered query."""
        return {
            query_id: registered.processor.stats
            for query_id, registered in self._queries.items()
        }
