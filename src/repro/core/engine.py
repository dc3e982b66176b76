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
* **the mutation API** — ``batch_update(inserts, deletes, moves)`` times
  the index repair, guards the population and commits the epoch the same
  way on either metric; ``insert_object`` / ``delete_object`` /
  ``move_object`` are batches of one;
* **epoch counter** — every mutation batch (a single insert/delete/move
  counts as a batch of one) advances one data epoch, so clients can cheaply
  detect whether the data set changed since they last looked;
* **invalidation dispatch** — the engine pushes each epoch's *repair delta*
  (the objects whose Voronoi neighbour sets changed, plus the removed
  objects) to every registered processor, which settles it lazily on its
  next timestamp (:mod:`repro.core.ins` describes the three outcomes).
  Processors share the index's live object storage, so an update never
  copies the n-object list into each registered query;
* **population guard** — a mutation that would leave fewer objects than
  some registered query's ``k`` requires fails loudly at the mutation
  instead of deep inside that query's next retrieval;
* **accounting** — cost counters summed across queries, and every
  client/server exchange counted into a
  :class:`~repro.core.stats.CommunicationStats`, per query, per kind and
  in aggregate, where the exchange happens (see :meth:`register_query`,
  :meth:`update_position` and :meth:`_commit_epoch` for what each costs).
  Because the accounting lives here, a workload driven through raw server
  calls bills exactly what the ``repro.service`` message protocol reports.

Subclasses provide the metric-specific rest: constructing the shared index,
building a processor for a new query, the index's batch repair (which
reports its delta), and what moving an object means.
"""

from __future__ import annotations

import abc
import threading
import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Any,
    Dict,
    FrozenSet,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, GeometryError, QueryError
from repro.core.objects import QueryResult, immutable
from repro.core.processor import MovingKNNProcessor, PositionT
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.obs.clock import clock as _clock
from repro.obs.metrics import (
    REGISTRY as _REGISTRY,
    counter as _obs_counter,
    histogram as _obs_histogram,
)
from repro.obs.trace import TRACER as _TRACER

# Index-maintenance latency, re-homed: one clock read pair feeds both the
# legacy maintenance_seconds accumulator (always) and this registry
# histogram (when observability is enabled).
_METRICS = ("euclidean", "road")
_MAINTENANCE_SECONDS = {m: _obs_histogram("insq_maintenance_seconds", metric=m) for m in _METRICS}

# Engine-level observability: the epoch counter, and the per-outcome
# retrieval counters — a pulled series, read from the registered queries'
# ProcessorStats when the registry is scraped, so an update pays nothing.
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
_NO_OUTCOMES = (0,) * len(_OUTCOME_FIELDS)


class _OutcomeLedger:
    """One engine's part of ``insq_retrievals_total``: the stats of its
    registered queries, and their totals this process already counts.  It
    holds no processor, so outliving its engine costs a few records."""

    def __init__(self, lock: threading.Lock, stats: Dict[int, ProcessorStats]):
        self.lock, self.stats = lock, stats
        self.published = self._totals()
        _LEDGERS.add(self)

    def _totals(self) -> List[int]:
        rows = map(_outcomes, tuple(self.stats.values()))
        return [sum(column) for column in zip(_NO_OUTCOMES, *rows)]

    def admit(self, query_id: int, stats: ProcessorStats) -> None:
        """Count ``stats`` as ``query_id``'s from here on: what the query
        did registering is no retrieval outcome."""
        with self.lock:
            self.stats[query_id] = stats
            self.published = [was + now for was, now in zip(self.published, _outcomes(stats))]

    def publish(self, closing: Optional[int] = None) -> None:
        """Count what the queries did since the last publish, then stop
        counting the ``closing`` query (if one is given)."""
        with self.lock:
            totals = self._totals()
            for counter, was, now in zip(_OUTCOME_COUNTERS, self.published, totals):
                if now > was:
                    counter.inc(now - was)
            if closing is not None:
                gone = _outcomes(self.stats.pop(closing))
                totals = [was - now for was, now in zip(totals, gone)]
            self.published = totals

    def retire(self) -> None:
        """The engine is gone: leave its open queries to the next collection.
        Publishing here could wait forever on this ledger's lock, held by
        the collection on this thread whose allocations freed the engine."""
        if self.stats:
            _RETIRED.add(self)


#: Every live engine's ledger, and those of engines freed since the last
#: collection (kept alive by ``_RETIRED`` until it publishes them).
_LEDGERS: "weakref.WeakSet[_OutcomeLedger]" = weakref.WeakSet()
_RETIRED: set = set()


def _publish_outcomes() -> None:
    retired = set(_RETIRED)
    for ledger in list(_LEDGERS):
        ledger.publish()
    _RETIRED.difference_update(retired)


_REGISTRY.collect(_publish_outcomes)


# Snapshots pickle this record with its ``__dict__``, which a row cannot load.
@dataclass(frozen=True)
class RegisteredQuery:
    """Bookkeeping record of one registered moving query.

    ``kind`` names the continuous query kind (``"knn"`` for the classic
    moving-kNN query; see :mod:`repro.queries.kinds` for the registry), and
    ``processor`` is whichever :class:`~repro.core.processor.
    MovingKNNProcessor` that kind builds on the engine's metric, and
    ``first_answer`` the answer it computed at registration (timestamp 0).
    """

    query_id: int
    k: int
    rho: float
    processor: MovingKNNProcessor
    kind: str = "knn"
    first_answer: Optional[QueryResult] = None


@immutable
class BatchUpdateResult:
    """Outcome of one :meth:`ServingEngine.batch_update` epoch.

    Attributes:
        new_indexes: object indexes assigned to the inserted objects, in
            input order.
        deleted_indexes: object indexes that were actually deleted.
        changed_objects: surviving objects whose Voronoi neighbour sets
            changed (the delta pushed to the registered queries).
        epoch: the data epoch after applying the batch (monotonically
            increasing; one step per mutation batch, however large).
        payload: the object records the batch carried — what its epoch
            bills as uplink objects.
    """

    new_indexes: Tuple[int, ...]
    deleted_indexes: Tuple[int, ...]
    changed_objects: FrozenSet[int]
    epoch: int
    payload: int


class ServingEngine(abc.ABC, Generic[PositionT]):
    """Generic moving-query serving engine (see the module docstring)."""

    #: ``"euclidean"`` or ``"road"``: set by the metric subclass.
    metric: str

    #: Server-side wall-clock time spent applying update epochs to the live
    #: index.  A class-level default so engines pickled before this timer
    #: existed keep restoring cleanly; an engine accumulates onto an
    #: instance attribute.
    maintenance_seconds: float = 0.0

    def __init__(self):
        self._queries: Dict[int, RegisteredQuery] = {}
        self._next_query_id = 0
        self._epoch = 0
        # Communication accounting: one aggregate (it keeps the history of
        # unregistered queries) plus one live record per registered query.
        # The lock keeps the counters exact when a KNNServer's
        # per-connection threads bill wire bytes outside its service lock.
        self._communication = CommunicationStats()
        self._comm_by_query: Dict[int, CommunicationStats] = {}
        self._comm_by_kind: Dict[str, CommunicationStats] = {}
        self._comm_lock = threading.Lock()
        self._open_ledger()

    def _open_ledger(self) -> None:
        self._ledger = _OutcomeLedger(
            self._comm_lock,
            {query_id: record.processor.stats for query_id, record in self._queries.items()},
        )
        weakref.finalize(self, self._ledger.retire)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle the full serving state (for ``repro.durability`` snapshots).

        All of it but the accounting lock, recreated on restore, and the
        outcome ledger, rebuilt on restore from the restored stats — work
        done before the snapshot was counted by the process that did it.
        A restored engine continues *bit-identically*: same answers, same
        counters, same future query id assignments.
        """
        state = self.__dict__.copy()
        state["_comm_lock"] = None
        del state["_ledger"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Snapshots taken before per-kind accounting existed restore with an
        # empty kind ledger; it repopulates as exchanges are billed.
        self.__dict__.setdefault("_comm_by_kind", {})
        self._comm_lock = threading.Lock()
        self._open_ledger()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def index(self) -> Any:
        """The shared server-side index (VoR-tree or network Voronoi diagram)."""

    @property
    def object_count(self) -> int:
        """Number of active data objects in the shared index."""
        return len(self.index)

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

    def __iter__(self) -> Iterator[RegisteredQuery]:
        """Iterate over a *snapshot* of the registration records (closing a
        session while iterating must not change the dict under the loop)."""
        return iter(tuple(self._queries.values()))

    @property
    def communication(self) -> CommunicationStats:
        """Aggregate client/server communication over the engine's lifetime,
        unregistered queries' included (the live accumulator: read or
        snapshot it, do not mutate it)."""
        return self._communication

    def communication_for(self, query_id: int) -> CommunicationStats:
        """Live communication record of one registered query."""
        record = self._comm_by_query.get(query_id)
        if record is None:
            raise QueryError(f"unknown query {query_id}")
        return record

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
        return self._record(query_id).kind

    def _kind_bucket(self, query_id: int) -> Optional[CommunicationStats]:
        """The per-kind accumulator of a *registered* query (lock held)."""
        record = self._queries.get(query_id)
        if record is None:
            return None
        bucket = self._comm_by_kind.get(record.kind)
        if bucket is None:
            bucket = self._comm_by_kind[record.kind] = CommunicationStats()
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
        """Add one exchange to the aggregate, its query's and its kind's
        counters (a query no longer registered has only the aggregate)."""
        with self._comm_lock:
            for record in (
                self._communication,
                self._comm_by_query.get(query_id),
                self._kind_bucket(query_id),
            ):
                if record is not None:
                    record.uplink_messages += uplink_messages
                    record.uplink_objects += uplink_objects
                    record.downlink_messages += downlink_messages
                    record.downlink_objects += downlink_objects
                    record.uplink_bytes += uplink_bytes
                    record.downlink_bytes += downlink_bytes

    def account_wire_bytes(
        self,
        query_id: Optional[int],
        uplink_bytes: int = 0,
        downlink_bytes: int = 0,
    ) -> None:
        """Bill the frame sizes a ``repro.transport`` server measured beside
        the messages and objects the engine counted.  Bytes billed to a
        query already unregistered (its close acknowledgement) land in the
        aggregate only, like the goodbye message itself."""
        self._account(
            query_id, uplink_bytes=uplink_bytes, downlink_bytes=downlink_bytes
        )

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def register_query(
        self, position: PositionT, k: int, rho: float = 1.6, kind: str = "knn"
    ) -> int:
        """Register a new continuous query and compute its first answer.

        ``kind`` selects the continuous query kind; the metric subclass
        builds the processor.  Returns the query identifier used for
        subsequent position updates.
        """
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        if k >= self.object_count:
            raise ConfigurationError(
                f"k={k} must be smaller than the number of data objects ({self.object_count})"
            )
        processor = self._build_processor(kind, k, rho)
        # Initialize before admitting: a failing first answer (bad
        # location, unreachable region) must not leave a zombie query
        # behind that inflates counts and receives deltas forever.
        first_answer = processor.initialize(position)
        query_id = self._next_query_id
        self._next_query_id += 1
        self._queries[query_id] = RegisteredQuery(query_id, k, rho, processor, kind, first_answer)
        self._comm_by_query[query_id] = CommunicationStats()
        self._ledger.admit(query_id, processor.stats)
        # Registration communication: one uplink request, and the initial
        # retrieval the processor performed while initialising (its stats
        # already carry the round trips and the |R| + |I(R)| payload).
        stats = processor.stats
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
        self._ledger.publish(closing=query_id)
        del self._queries[query_id]
        del self._comm_by_query[query_id]

    def _build_processor(self, kind: str, k: int, rho: float) -> MovingKNNProcessor[PositionT]:
        """Build the processor of a ``kind`` query against the shared index."""
        # Imported lazily: the registry imports processor modules that
        # import this module's engine machinery.
        from repro.queries.kinds import query_kind

        strategy = query_kind(kind)
        if strategy.metric not in (None, self.metric):
            raise ConfigurationError(
                f"continuous {kind!r} queries are "
                f"{'Euclidean' if strategy.metric == 'euclidean' else 'road'}-only; "
                f"the {self.metric} metric serves kind='knn' sessions"
            )
        return strategy.build_processor(self, k=k, rho=rho)

    def _record(self, query_id: int) -> RegisteredQuery:
        if query_id not in self._queries:
            raise QueryError(f"unknown query {query_id}")
        return self._queries[query_id]

    def update_position(self, query_id: int, position: PositionT) -> QueryResult:
        """Advance one query to its next position and return its answer.

        Communication is accounted from what the processor actually did:
        each server contact (a retrieval or an incremental fetch) is one
        uplink request plus one downlink response carrying the fetched
        objects; a timestamp validated from client-held state exchanges
        nothing.
        """
        registered = self._queries.get(query_id)
        if registered is None:
            raise QueryError(f"unknown query {query_id}")
        processor = registered.processor
        stats = processor.stats
        contacts = stats.incremental_updates + stats.full_recomputations
        objects = stats.transmitted_objects
        result = processor.update(position)
        round_trips = stats.incremental_updates + stats.full_recomputations - contacts
        if round_trips:
            self._account(
                query_id,
                uplink_messages=round_trips,
                downlink_messages=round_trips,
                downlink_objects=stats.transmitted_objects - objects,
            )
        return result

    def answer(self, query_id: int) -> QueryResult:
        """Re-answer a query at its current position without moving it.

        Useful right after a data-object update when the client wants the
        refreshed result before its next movement.
        """
        position = self._record(query_id).processor.last_position
        if position is None:
            raise QueryError(f"query {query_id} has no known position")
        return self.update_position(query_id, position)

    # ------------------------------------------------------------------
    # Data-object updates
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _repair_batch(
        self, inserts: list, deletes: List[int], moves: list
    ) -> Tuple[List[int], List[int], Iterable[int]]:
        """Index repair for one burst: ``(new_indexes, deleted, changed)``."""

    def _split_moves(self, moves: list) -> Tuple[list, List[int], list]:
        """A batch's moves as ``(inserts, deletes, native moves)`` index records."""
        return [], [], moves

    def _maintain(self, repair, *args):
        """Run one index repair under the server-side maintenance timers."""
        start = _clock()
        result = repair(*args)
        elapsed = _clock() - start
        self.maintenance_seconds += elapsed
        _MAINTENANCE_SECONDS[self.metric].observe(elapsed)
        _TRACER.add("index.maintain", start, elapsed, metric=self.metric)
        return result

    def insert_object(self, target: Any) -> int:
        """Insert a data object (a Point, or a road vertex); returns its index.

        A batch of one (:meth:`batch_update`): the shared index absorbs the
        insert with a local repair and every registered query receives the
        repair delta.
        """
        return self.batch_update(inserts=(target,)).new_indexes[0]

    def delete_object(self, index: int) -> bool:
        """Delete a data object (returns False when already gone).

        A batch of one (:meth:`batch_update`).

        Raises:
            QueryError: when the deletion would leave fewer objects than
                some registered query's ``k`` requires — failing loudly at
                the mutation instead of at that query's next timestamp.
        """
        return bool(self.batch_update(deletes=(index,)).deleted_indexes)

    def move_object(self, index: int, target: Any) -> BatchUpdateResult:
        """Relocate data object ``index`` to ``target``: a batch of one move.

        On a road network the object keeps its index; on the plane it is
        deleted and reinserted under a new one (two object records).
        """
        return self.batch_update(moves=((index, target),))

    def batch_update(
        self,
        inserts: Sequence[Any] = (),
        deletes: Iterable[int] = (),
        moves: Iterable[Tuple[int, Any]] = (),
    ) -> BatchUpdateResult:
        """Apply a burst of object inserts, moves and deletes as one data epoch.

        A heavy traffic stream batches its object updates; applying them
        together triggers one index patch (or, for very large bursts, one
        rebuild) and one invalidation round instead of one per object.
        Deletions always refer to pre-existing object indexes (inactive and
        repeated ones are skipped); insertions are registered first, so a
        burst may replace the whole population as long as one object
        survives.

        Raises:
            QueryError: when the surviving population would be too small
                for some registered query's ``k`` (nothing is applied).
        """
        move_inserts, move_deletes, move_list = self._split_moves(list(moves))
        insert_list = [*inserts, *move_inserts]
        # Active objects only, each once, in the order asked for.
        is_active = self.index.is_active
        delete_list = [i for i in dict.fromkeys([*deletes, *move_deletes]) if is_active(i)]
        self._check_population(self.object_count + len(insert_list) - len(delete_list))
        try:
            new_indexes, deleted, changed = self._maintain(
                self._repair_batch, insert_list, delete_list, move_list
            )
        except GeometryError as error:
            # Refused: no epoch, but the sessions hear of any list it changed.
            if error.delta is not None:
                self._dispatch(frozenset(error.delta[2]), frozenset(error.delta[1]))
            raise
        payload = len(insert_list) + len(delete_list) + len(move_list)
        changed = frozenset(changed)
        if new_indexes or deleted or changed:
            self._commit_epoch(changed, deleted, payload=payload)
        return BatchUpdateResult(tuple(new_indexes), tuple(deleted), changed, self._epoch, payload)

    # ------------------------------------------------------------------
    # Epoch orchestration
    # ------------------------------------------------------------------
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
    ) -> None:
        """Advance the data epoch and dispatch the invalidation round.

        Every registered processor receives the repair delta, frozen once,
        and settles it lazily (nothing is copied per session; an INS session
        the delta misses keeps none).

        Communication: the mutation batch arrives as one uplink message
        carrying ``payload`` object records (the insert/delete/move stream
        from the data owners), and the server pushes one invalidation
        notification to every registered query — the ids it carries are not
        object states, so the notification payload is zero; the objects a
        query then fetches are charged to its own next update.
        """
        self._epoch += 1
        _EPOCHS_TOTAL.inc()
        self._dispatch(frozenset(changed), frozenset(removed))
        with self._comm_lock:
            self._communication.uplink_messages += 1
            self._communication.uplink_objects += payload
            self._communication.downlink_messages += len(self._queries)
            for query_id, record in self._comm_by_query.items():
                record.downlink_messages += 1
                bucket = self._kind_bucket(query_id)
                if bucket is not None:
                    bucket.downlink_messages += 1

    def _dispatch(self, changed: FrozenSet[int], removed: FrozenSet[int]) -> None:
        """Hand every registered processor the delta."""
        for registered in self._queries.values():
            registered.processor.notify_data_update(changed, removed)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------
    def aggregate_stats(self) -> ProcessorStats:
        """Sum of the cost counters of every registered query.

        The engine's own server-side maintenance timer rides along in the
        ``maintenance_seconds`` field (it is per-engine, not per-query, so
        it is injected once here rather than merged from the processors).
        """
        total = ProcessorStats()
        for registered in self._queries.values():
            total.merge(registered.processor.stats)
        total.maintenance_seconds += self.maintenance_seconds
        return total

    def stats_for(self, query_id: int) -> ProcessorStats:
        """Cost counters of one registered query."""
        return self._record(query_id).processor.stats

    def per_query_stats(self) -> Dict[int, ProcessorStats]:
        """Cost counters per registered query."""
        return {
            query_id: registered.processor.stats
            for query_id, registered in self._queries.items()
        }
