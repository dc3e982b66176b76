"""The road-network multi-query moving-kNN server.

The road counterpart of :class:`~repro.core.server.MovingKNNServer` and,
like it, a thin metric-specific subclass of the generic
:class:`~repro.core.engine.ServingEngine`: one shared, incrementally
maintained :class:`~repro.roadnet.network_voronoi.NetworkVoronoiDiagram`
(the expensive structure — a whole-graph multi-source Dijkstra to build)
serves every registered :class:`INSRoadProcessor` client, and the engine
owns the query lifecycle, the epoch counter, the population guard and the
invalidation dispatch.  This module contributes only the road 20%:

* constructing the shared diagram and the per-query processors (each with
  its own ``k``, ``ρ``, validation mode and Theorem 2 region),
* translating object mutations (:meth:`MovingRoadKNNServer.insert_object`,
  :meth:`~MovingRoadKNNServer.delete_object`,
  :meth:`~MovingRoadKNNServer.move_object`,
  :meth:`~MovingRoadKNNServer.batch_update`) into *local* repair floods —
  O(cells touched) per update, with a whole burst applied as one epoch.

**Invalidation is delta-scoped** — the contract this server pioneered and
the engine now shares with the Euclidean side: every repair reports the
objects whose Voronoi neighbour sets changed, the engine pushes exactly
that delta to each registered query, and a client settles it lazily on its
next timestamp (removal inside its prefetched set → one retrieval; delta
elsewhere in its held pool → I(R) + Theorem 2 region refreshed from the
repaired diagram; delta outside its pool → free, counted as an absorbed
update).
Processors share the diagram's live vertex-assignment view, so an update
never copies the n-object list into each registered query.  The blanket
refresh-everyone behaviour survives as ``invalidation="flag"``, the
fallback mode and the oracle of the randomized delta-equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, QueryError
from repro.core.engine import ServingEngine
from repro.core.ins_road import INSRoadProcessor
from repro.obs.clock import clock as _clock
from repro.obs.metrics import histogram as _obs_histogram
from repro.obs.trace import TRACER as _TRACER
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import SearchStats

# Index-maintenance latency, re-homed: one clock read pair feeds both the
# legacy maintenance_seconds/delta_apply_seconds accumulators (always) and
# these registry histograms (when observability is enabled).
_MAINTENANCE_SECONDS = _obs_histogram("insq_maintenance_seconds", metric="road")
_DELTA_APPLY_SECONDS = _obs_histogram("insq_delta_apply_seconds", metric="road")


@dataclass(frozen=True)
class RegisteredRoadQuery:
    """Bookkeeping record of one registered moving road query."""

    query_id: int
    k: int
    rho: float
    validation_mode: str
    processor: INSRoadProcessor
    kind: str = "knn"


@dataclass(frozen=True)
class RoadBatchUpdateResult:
    """Outcome of one :meth:`MovingRoadKNNServer.batch_update` epoch.

    Attributes:
        new_indexes: object indexes assigned to the inserted objects, in
            input order.
        deleted_indexes: object indexes that were actually deleted.
        changed_objects: surviving objects whose Voronoi neighbour sets
            changed (the delta pushed to the registered queries).
        epoch: the data epoch after applying the batch (monotonically
            increasing; one step per mutation batch, however large).
    """

    new_indexes: Tuple[int, ...]
    deleted_indexes: Tuple[int, ...]
    changed_objects: FrozenSet[int]
    epoch: int


class MovingRoadKNNServer(ServingEngine[NetworkLocation, RegisteredRoadQuery]):
    """Serve many concurrent moving kNN queries over one road-side data set.

    Args:
        network: the road network shared by every query.
        object_vertices: initial vertex of each data object.
        maintenance: update-maintenance mode of the shared network Voronoi
            diagram (``"incremental"`` or ``"rebuild"``; see
            :class:`NetworkVoronoiDiagram`).
        stats: optional search-effort accumulator shared with the diagram's
            construction and repairs.
        invalidation: ``"delta"`` (default) pushes each epoch's repair
            delta to the registered queries; ``"flag"`` restores the
            blanket refresh-everyone contract (see
            :class:`~repro.core.engine.ServingEngine`).
    """

    def __init__(
        self,
        network: RoadNetwork,
        object_vertices: Sequence[int],
        maintenance: str = "incremental",
        stats: Optional[SearchStats] = None,
        invalidation: str = "delta",
    ):
        super().__init__(invalidation=invalidation)
        self._network = network
        self._search_stats = stats if stats is not None else SearchStats()
        self._voronoi = NetworkVoronoiDiagram(
            network, list(object_vertices), self._search_stats, maintenance=maintenance
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> RoadNetwork:
        """The shared road network."""
        return self._network

    @property
    def voronoi(self) -> NetworkVoronoiDiagram:
        """The shared server-side network Voronoi diagram."""
        return self._voronoi

    @property
    def search_stats(self) -> SearchStats:
        """Search effort spent building and repairing the shared diagram."""
        return self._search_stats

    @property
    def maintenance(self) -> str:
        """The shared diagram's maintenance mode (``"incremental"``/``"rebuild"``)."""
        return self._voronoi.maintenance

    @property
    def object_count(self) -> int:
        """Number of active data objects."""
        return self._voronoi.object_count()

    def object_vertex(self, index: int) -> int:
        """The vertex data object ``index`` currently sits on."""
        return self._voronoi.object_vertex(index)

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def register_query(
        self,
        position: NetworkLocation,
        k: int,
        rho: float = 1.6,
        validation_mode: str = "restricted",
        kind: str = "knn",
    ) -> int:
        """Register a new moving query and compute its first answer.

        Returns the query identifier used for subsequent position updates.
        The non-kNN continuous kinds are Euclidean-only for now: their safe
        regions are planar constructions (order-k Voronoi cells, Voronoi
        neighbour lists on the plane) with no network-metric counterpart in
        this codebase yet.
        """
        if kind != "knn":
            raise ConfigurationError(
                f"continuous {kind!r} queries are Euclidean-only; the road "
                "metric serves kind='knn' sessions"
            )
        processor = INSRoadProcessor(
            self._network,
            self._voronoi.vertex_assignments,
            k,
            rho=rho,
            validation_mode=validation_mode,
            voronoi=self._voronoi,
        )
        # Initialize before admitting: a failing first answer (bad
        # location, unreachable region) must not leave a zombie query
        # behind.
        processor.initialize(position)
        return self._admit(
            lambda query_id: RegisteredRoadQuery(
                query_id=query_id,
                k=k,
                rho=rho,
                validation_mode=validation_mode,
                processor=processor,
            )
        )

    # ------------------------------------------------------------------
    # Data-object updates
    # ------------------------------------------------------------------
    def insert_object(self, vertex: int) -> int:
        """Insert a data object at ``vertex``; returns its object index.

        The shared diagram absorbs the insert with a local repair flood and
        every registered query receives the repair delta — no per-query
        state is copied.
        """
        start = _clock()
        index, changed = self._voronoi.insert_object(vertex)
        elapsed = _clock() - start
        self.maintenance_seconds += elapsed
        _MAINTENANCE_SECONDS.observe(elapsed)
        _TRACER.add("index.maintain", start, elapsed, metric="road")
        self._commit_epoch(changed, payload=1)
        return index

    def delete_object(self, index: int) -> bool:
        """Delete data object ``index`` (returns False when already gone).

        Raises:
            QueryError: when the deletion would leave fewer objects than
                some registered query's ``k`` requires — failing loudly at
                the mutation instead of at that query's next timestamp.
        """
        if not self._voronoi.is_active(index):
            return False
        self._check_population(self._voronoi.object_count() - 1)
        start = _clock()
        changed = self._voronoi.remove_object(index)
        elapsed = _clock() - start
        self.maintenance_seconds += elapsed
        _MAINTENANCE_SECONDS.observe(elapsed)
        _TRACER.add("index.maintain", start, elapsed, metric="road")
        self._commit_epoch(changed, (index,), payload=1)
        return True

    def move_object(self, index: int, vertex: int) -> FrozenSet[int]:
        """Move data object ``index`` to ``vertex``.

        Returns the set of objects whose neighbour sets changed (the moved
        object included), which is also the delta pushed to the queries.
        """
        start = _clock()
        changed = self._voronoi.move_object(index, vertex)
        elapsed = _clock() - start
        self.maintenance_seconds += elapsed
        _MAINTENANCE_SECONDS.observe(elapsed)
        _TRACER.add("index.maintain", start, elapsed, metric="road")
        if not changed:
            return frozenset()
        self._commit_epoch(changed, payload=1)
        return frozenset(changed)

    def batch_update(
        self,
        inserts: Sequence[int] = (),
        deletes: Iterable[int] = (),
        moves: Iterable[Tuple[int, int]] = (),
    ) -> RoadBatchUpdateResult:
        """Apply a burst of object inserts, moves and deletes as one epoch.

        A heavy traffic stream batches its object updates; applying them
        together triggers one diagram patch (or, for very large bursts, one
        rebuild) and one invalidation round instead of one per object.

        Raises:
            QueryError: when the surviving population would be too small
                for some registered query's ``k``.
        """
        insert_list = list(inserts)
        move_list = list(moves)
        delete_list = self._dedup_active_deletes(deletes, self._voronoi.is_active)
        self._check_population(
            self._voronoi.object_count() + len(insert_list) - len(delete_list)
        )
        start = _clock()
        new_indexes, deleted, changed = self._voronoi.batch_update(
            insert_list, delete_list, move_list
        )
        elapsed = _clock() - start
        self.maintenance_seconds += elapsed
        _MAINTENANCE_SECONDS.observe(elapsed)
        _TRACER.add("index.maintain", start, elapsed, metric="road")
        if new_indexes or deleted or changed:
            self._commit_epoch(
                changed,
                deleted,
                payload=len(insert_list) + len(delete_list) + len(move_list),
            )
        return RoadBatchUpdateResult(
            new_indexes=tuple(new_indexes),
            deleted_indexes=tuple(deleted),
            changed_objects=frozenset(changed),
            epoch=self._epoch,
        )

    # ------------------------------------------------------------------
    # Leader/replica delta replication
    # ------------------------------------------------------------------
    def begin_delta_capture(self) -> None:
        """Start recording the repair delta of the next update epoch.

        Installed by the maintenance leader before applying a batch; the
        shared diagram records which keys its repair floods touch (see
        :meth:`NetworkVoronoiDiagram.begin_delta_capture`).
        """
        self._voronoi.begin_delta_capture()

    def export_delta(self, result: RoadBatchUpdateResult, batch) -> Dict[str, object]:
        """The :class:`~repro.transport.codec.IndexDelta` fields of the
        epoch that :meth:`batch_update` just applied (as plain kwargs).

        ``payload`` reproduces what the epoch billed as uplink objects:
        one record per insert and per deduplicated deletion (the result
        lengths) plus one per move record of the originating
        :class:`~repro.service.messages.UpdateBatch`.
        """
        sections = self._voronoi.export_delta()
        return {
            "epoch": result.epoch,
            "payload": len(result.new_indexes)
            + len(result.deleted_indexes)
            + len(batch.moves),
            "new_indexes": tuple(result.new_indexes),
            "deleted_indexes": tuple(result.deleted_indexes),
            "changed": tuple(sorted(result.changed_objects)),
            **sections,
        }

    def apply_remote_delta(self, delta) -> None:
        """Apply a maintenance leader's repair delta as this engine's epoch.

        The read-replica path of ``replication="delta"``: the shared
        diagram is patched from the shipped delta (no repair floods run)
        and the epoch commits with the same changed/removed/payload values
        the leader committed, so answers, counters and epoch stay
        bit-identical to a replica that re-ran the batch.  A delta for the
        current epoch is a no-op (the leader's batch did not commit).
        """
        if delta.epoch == self._epoch:
            return
        if delta.epoch != self._epoch + 1:
            raise QueryError(
                f"index delta for epoch {delta.epoch} cannot apply at epoch "
                f"{self._epoch} — replicas diverged"
            )
        start = _clock()
        self._voronoi.apply_remote_delta(delta)
        elapsed = _clock() - start
        self.delta_apply_seconds += elapsed
        _DELTA_APPLY_SECONDS.observe(elapsed)
        _TRACER.add("delta.apply", start, elapsed, metric="road")
        self._commit_epoch(
            frozenset(delta.changed), delta.deleted_indexes, payload=delta.payload
        )
