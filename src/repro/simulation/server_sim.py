"""Drive a multi-query service through a concurrent workload.

Where :func:`repro.simulation.simulator.simulate` runs *one* processor along
*one* trajectory, this module drives a whole serving system: M concurrent
query streams advance over one shared index while a mixed object-update
stream (inserts, deletes, moves — see
:class:`repro.workloads.scenarios.ChurnSpec`) mutates the data set between
timestamps, each batch applied as a single data epoch.  This is the "heavy
traffic" shape of the system: many clients, one index, continuous churn.

The driver runs through the ``repro.service`` front door: it opens one
metric-agnostic :class:`~repro.service.service.KNNService` per run
(:meth:`~repro.service.service.KNNService.from_scenario` accepts either
scenario flavour), holds a :class:`~repro.service.session.Session` per
query stream, ships the churn as typed
:class:`~repro.service.messages.UpdateBatch` messages, and — with
``workers > 1`` — shards the session set across a
:class:`~repro.service.dispatch.ShardedDispatcher` thread pool between
epochs.  Sharding is deterministic: ``workers=4`` produces bit-identical
answers to ``workers=1`` (the PR4 benchmark asserts this on the headline
stream).

:func:`simulate_server` returns a :class:`ServerSimulationRun` with
per-query result streams, the aggregate cost counters, the run's
:class:`~repro.core.stats.CommunicationStats` (messages and objects over
the wire — the paper's headline metric, now measured rather than estimated)
and (optionally) brute-force correctness checking of every reported answer
— the hook the randomized delta-vs-flag equivalence tests and the serving
benchmarks are built on.

Since PR 5 the same driver also runs over a real transport
(``transport="tcp"``/``"unix"``: a loopback
:class:`~repro.transport.server.KNNServer` serving
:class:`~repro.transport.client.RemoteSession` handles, byte counters
included; ``transport="process"``: a
:class:`~repro.transport.procpool.ProcessShardedDispatcher` with one
engine shard per worker process).  The transports are drop-in by
construction, so a transport-backed run returns bit-identical answers and
identical message/object counters to the in-process run it mirrors — the
equivalence suite in ``tests/transport/`` holds that together.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.core.objects import QueryResult
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.geometry.point import Point
from repro.obs.clock import clock as _clock
from repro.roadnet.shortest_path import distances_from_location
from repro.service import KNNService, ShardedDispatcher, UpdateBatch
from repro.simulation.simulator import check_knn_answer
from repro.workloads.scenarios import (
    EuclideanServerScenario,
    RoadServerScenario,
)

ServerScenario = Union[EuclideanServerScenario, RoadServerScenario]


@dataclass
class ServerSimulationRun:
    """The outcome of driving one service through one server scenario.

    Attributes:
        scenario: the scenario name.
        invalidation: the engine's invalidation mode (``"delta"``/``"flag"``).
        results: per query id, one :class:`QueryResult` per timestamp.
        epochs: data epochs applied by the update stream.
        update_counts: applied object mutations by kind
            (``{"inserts": ..., "deletes": ..., "moves": ...}``).
        aggregate: cost counters summed over every registered query.
        communication: messages and objects exchanged over the wire during
            the run (registration included, session teardown excluded —
            the sessions are still open when the run is read out).
        elapsed_seconds: wall-clock time of the whole run (index
            construction excluded, update stream included).
        workers: shards the session set was advanced across (1 = lockstep).
        mismatches: ``(timestamp, query_id)`` pairs whose reported answer
            was provably wrong against the brute-force oracle (only
            populated when ``check_answers=True``).
        transport: how the sessions reached the engine — ``"local"``
            (in-process method calls), ``"tcp"``/``"unix"`` (a loopback
            socket server; the communication counters then include real
            wire bytes) or ``"process"`` (multi-process engine shards).
        per_session_communication: per-session counters at the end of the
            run (snapshots, keyed like ``results``) — the breakdown
            ``insq serve --per-session`` prints.
        wire_bytes_sent, wire_bytes_received: the client's *measured*
            billable traffic over a socket transport (0 elsewhere).
        wire_bytes_predicted_sent, wire_bytes_predicted_received: the
            codec's :func:`~repro.transport.codec.wire_size` predictions
            for the same frames — equal to the measured numbers by the
            codec's exactness contract (the PR5 benchmark asserts it).
        respawns: shard workers respawned after a crash mid-run
            (``transport="process"`` with a ``wal_dir`` only).
        kills_injected: worker kills the fault plan actually delivered.
        drains: graceful shard drain-and-handoff restarts performed
            mid-run (scheduled :class:`~repro.testing.faults.ShardDrain`
            events; ``transport="process"`` with a ``wal_dir`` only).
        handoff_seconds: per drain, wall-clock seconds from the drain
            request to the reconciled replacement shard.
        replication: how index maintenance reached the engine shards —
            ``"recompute"`` (every shard re-ran each update batch) or
            ``"delta"`` (the maintenance leader shipped its repair delta
            to the read replicas; ``transport="process"`` only).  The
            split between the modes shows up in ``aggregate``:
            ``maintenance_seconds`` is time spent running index
            maintenance (on every recomputing shard), ``delta_apply_
            seconds`` time spent patching replicas from shipped deltas.
    """

    scenario: str
    invalidation: str
    results: Dict[int, List[QueryResult]]
    epochs: int
    update_counts: Dict[str, int]
    aggregate: ProcessorStats
    communication: CommunicationStats
    elapsed_seconds: float
    workers: int = 1
    mismatches: List[Tuple[int, int]] = field(default_factory=list)
    transport: str = "local"
    per_session_communication: Dict[int, CommunicationStats] = field(
        default_factory=dict
    )
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    wire_bytes_predicted_sent: int = 0
    wire_bytes_predicted_received: int = 0
    respawns: int = 0
    kills_injected: int = 0
    drains: int = 0
    handoff_seconds: List[float] = field(default_factory=list)
    replication: str = "recompute"

    @property
    def timestamps(self) -> int:
        """Timestamps every query stream was advanced through."""
        return min(len(stream) for stream in self.results.values()) if self.results else 0

    @property
    def is_correct(self) -> bool:
        """True when no oracle mismatch was recorded."""
        return not self.mismatches


def build_server(
    scenario: ServerScenario,
    maintenance: str = "incremental",
    invalidation: str = "delta",
):
    """Construct the matching (empty) server engine for a server scenario."""
    if isinstance(scenario, EuclideanServerScenario):
        return MovingKNNServer(
            scenario.points, maintenance=maintenance, invalidation=invalidation
        )
    return MovingRoadKNNServer(
        scenario.network,
        scenario.object_vertices,
        maintenance=maintenance,
        invalidation=invalidation,
    )


def _population_floor(sessions) -> int:
    """Smallest population the update stream must leave behind."""
    max_k = max((session.k for session in sessions), default=1)
    return max_k + 2


def _euclidean_churn_batch(
    active: List[int],
    floor: int,
    scenario: EuclideanServerScenario,
    rng: random.Random,
    counts: Dict[str, int],
) -> Optional[UpdateBatch]:
    """One mixed update epoch: inserts, deletes and relocation moves.

    ``active`` must be the engine's native-order active index list — the
    seeded sampling below consumes it positionally, so every transport
    (in-process, loopback socket, process shards) realises the exact same
    update stream from the same scenario seed.
    """
    churn = scenario.churn
    removable = max(0, len(active) - floor)
    deletes = rng.sample(active, min(churn.deletes, removable))
    excluded = set(deletes)
    remaining = [index for index in active if index not in excluded]
    move_victims = rng.sample(remaining, min(churn.moves, len(remaining)))
    new_points = [
        Point(rng.uniform(0.0, scenario.extent), rng.uniform(0.0, scenario.extent))
        for _ in range(churn.inserts + len(move_victims))
    ]
    inserts = new_points[: churn.inserts]
    destinations = new_points[churn.inserts :]
    batch = UpdateBatch(
        inserts=inserts,
        deletes=deletes,
        moves=tuple(zip(move_victims, destinations)),
    )
    if batch.is_empty:
        return None
    counts["inserts"] += len(inserts)
    counts["deletes"] += len(deletes)
    counts["moves"] += len(move_victims)
    return batch


def _road_churn_batch(
    active: List[int],
    floor: int,
    scenario: RoadServerScenario,
    rng: random.Random,
    counts: Dict[str, int],
) -> Optional[UpdateBatch]:
    """One mixed update epoch: inserts, deletes and vertex relocations."""
    churn = scenario.churn
    vertices = scenario.network.vertices()
    removable = max(0, len(active) - floor)
    deletes = rng.sample(active, min(churn.deletes, removable))
    excluded = set(deletes)
    remaining = [index for index in active if index not in excluded]
    move_victims = rng.sample(remaining, min(churn.moves, len(remaining)))
    # Draw moves before inserts: this preserves the exact update streams
    # the pre-service driver realised from the same scenario seeds.
    moves = [(index, rng.choice(vertices)) for index in move_victims]
    inserts = [rng.choice(vertices) for _ in range(churn.inserts)]
    batch = UpdateBatch(inserts=inserts, deletes=deletes, moves=moves)
    if batch.is_empty:
        return None
    counts["inserts"] += len(batch.inserts)
    counts["deletes"] += len(deletes)
    counts["moves"] += len(batch.moves)
    return batch


def _euclidean_oracle(service: KNNService, position: Point) -> Dict[int, float]:
    tree = service.engine.index
    return {
        index: position.distance_to(tree.point(index))
        for index in tree.active_indexes()
    }


def _road_oracle(service: KNNService, position) -> Dict[int, float]:
    import math

    engine = service.engine
    vertex_distances = distances_from_location(engine.network, position)
    return {
        index: vertex_distances.get(engine.object_vertex(index), math.inf)
        for index in engine.index.active_indexes()
    }


def simulate_server(
    scenario: ServerScenario,
    invalidation: str = "delta",
    maintenance: str = "incremental",
    check_answers: bool = False,
    oracle_tolerance: float = 1e-7,
    server=None,
    workers: int = 1,
    transport: Optional[str] = None,
    wal_dir: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    wal_fsync: Optional[str] = None,
    wal_segment_bytes: Optional[int] = None,
    faults=None,
    replication: str = "recompute",
    serving_hook=None,
    step_delay: float = 0.0,
) -> ServerSimulationRun:
    """Drive M concurrent query streams interleaved with the update stream.

    Timestamp 0 opens one session per query at its trajectory's start.  At
    every later timestamp the update stream first applies one mixed
    mutation batch (when the scenario's churn interval says so — one data
    epoch, one invalidation round), then every session advances one step
    and its answer is recorded (and, with ``check_answers=True``, verified
    against a brute-force oracle over the current population, tie-aware).

    Args:
        scenario: a Euclidean or road server scenario.
        invalidation: ``"delta"`` (delta-scoped invalidation, the default)
            or ``"flag"`` (blanket refresh-everyone fallback).
        maintenance: index maintenance mode (``"incremental"``/``"rebuild"``).
        check_answers: verify every reported answer against brute force
            (unavailable over ``transport="process"`` — the engines live
            in the workers).
        oracle_tolerance: tie tolerance of the correctness check.
        server: optionally reuse an existing (query-free) server engine
            built for this scenario; when omitted one is constructed
            (in-process and socket transports only).
        workers: shard the session set across this many dispatcher threads
            (in-process/socket transports) or worker *processes*
            (``transport="process"``); any value yields bit-identical
            answers.
        transport: ``None``/``"local"`` for in-process serving,
            ``"tcp"``/``"unix"`` to serve the run through a loopback
            :class:`~repro.transport.server.KNNServer` socket (sessions
            become :class:`~repro.transport.client.RemoteSession` handles
            and the counters gain real wire bytes), or ``"process"`` for
            one engine shard per worker process.
        wal_dir: when set, the run is served durably — every
            state-changing exchange is appended to a write-ahead log under
            this directory (per-shard subdirectories over
            ``transport="process"``), recoverable afterwards with
            :func:`repro.durability.recover_service`.
        snapshot_every: checkpoint the durable engine every this many WAL
            records (in-process/socket transports only; ``None`` keeps the
            initial snapshot and replays the whole log on recovery).
        wal_fsync: WAL fsync policy (``"always"``/``"group"``/``"batch"``/
            ``"off"``); ``None`` keeps each layer's default (``"batch"``
            in-process, ``"off"`` for process shards — surviving worker
            kills needs no fsync, only machine crashes do).
        wal_segment_bytes: rotate the WAL into sealed segments at roughly
            this size (``None`` keeps one growing file).
        faults: a :class:`repro.testing.faults.FaultPlan` of deterministic
            worker kills and graceful shard drains, injected at update
            epochs.  Requires ``transport="process"`` (only worker
            processes can be killed or drained) and ``wal_dir`` (a
            replaced worker rejoins by replaying its log).
        replication: shard maintenance mode over ``transport="process"``
            — ``"recompute"`` (default; every shard re-runs each update
            batch) or ``"delta"`` (shard 0 runs the maintenance once and
            ships its repair delta to the read replicas; bit-identical
            answers and counters, one geometry run per epoch).  Other
            transports hold one engine, so only ``"recompute"`` applies.
        serving_hook: optional callable invoked once the run's serving
            side exists, with the live :class:`~repro.service.service.
            KNNService` (in-process/socket transports) or the
            :class:`~repro.transport.procpool.ProcessShardedDispatcher`
            (``transport="process"``).  Whatever it returns, if callable,
            runs as cleanup after the workload (before teardown).  The
            CLI mounts its scrape endpoints through this seam — the
            workload loop itself never changes.
        step_delay: sleep this many seconds after every advanced
            timestamp (default 0: no pacing).  Lets an operator (or the
            scrape-reconciliation test) observe a run mid-stream
            deterministically; the wall-clock sleeps happen outside every
            timed section.

    Returns:
        A :class:`ServerSimulationRun`.
    """
    transport_name = "local" if transport is None else transport
    if faults is not None and transport_name != "process":
        raise ConfigurationError(
            "fault injection kills worker processes, so it requires "
            f"transport='process', got transport={transport_name!r}"
        )
    if replication != "recompute" and transport_name != "process":
        raise ConfigurationError(
            "replication='delta' ships repair deltas between engine shards, "
            f"so it requires transport='process', got transport={transport_name!r}"
        )
    if transport_name == "process":
        if server is not None:
            raise ConfigurationError(
                "transport='process' builds one engine replica per worker; "
                "a pre-built server cannot be supplied"
            )
        if check_answers:
            raise ConfigurationError(
                "check_answers is unavailable over transport='process': the "
                "engines live in the worker processes (the transport "
                "equivalence suite checks answers against the in-process run "
                "instead)"
            )
        return _simulate_over_processes(
            scenario,
            invalidation,
            maintenance,
            workers,
            wal_dir,
            wal_fsync,
            wal_segment_bytes,
            faults,
            replication,
            serving_hook,
            step_delay,
        )
    if transport_name not in ("local", "tcp", "unix"):
        raise ConfigurationError(
            "transport must be None, 'local', 'tcp', 'unix' or 'process', "
            f"got {transport!r}"
        )
    euclidean = isinstance(scenario, EuclideanServerScenario)
    if server is None:
        server = build_server(
            scenario, maintenance=maintenance, invalidation=invalidation
        )
    else:
        # A supplied server must actually be the run the caller asked for:
        # a mode mismatch or leftover registered queries would silently
        # corrupt mode-vs-mode comparisons and aggregate counters.
        if server.invalidation != invalidation:
            raise ConfigurationError(
                f"supplied server runs invalidation={server.invalidation!r}, "
                f"but the simulation asked for {invalidation!r}"
            )
        if server.maintenance != maintenance:
            raise ConfigurationError(
                f"supplied server runs maintenance={server.maintenance!r}, "
                f"but the simulation asked for {maintenance!r}"
            )
        if server.query_count:
            raise ConfigurationError(
                f"supplied server already has {server.query_count} registered "
                "queries; simulate_server needs a query-free server"
            )
    if wal_dir is not None:
        from repro.durability import DurableKNNService

        durability_options = {}
        if wal_fsync is not None:
            durability_options["fsync"] = wal_fsync
        service = DurableKNNService(
            server,
            wal_dir,
            snapshot_every=snapshot_every,
            segment_bytes=wal_segment_bytes,
            **durability_options,
        )
    else:
        service = KNNService(server)
    rng = random.Random(scenario.seed + 977)
    counts = {"inserts": 0, "deletes": 0, "moves": 0}
    make_churn_batch = _euclidean_churn_batch if euclidean else _road_churn_batch
    oracle = _euclidean_oracle if euclidean else _road_oracle

    # Over a socket transport the run is served loopback: the engine (and
    # its oracle/churn view) stays in this process, but every session
    # exchange crosses the wire through RemoteSession handles.
    socket_server = None
    remote = None
    tempdir = None
    open_session = service.open_session
    apply_batch = service.apply
    if transport_name in ("tcp", "unix"):
        from repro.transport import KNNServer, connect

        if transport_name == "unix":
            tempdir = tempfile.mkdtemp(prefix="insq-sim-")
            socket_server = KNNServer(
                service, path=os.path.join(tempdir, "insq.sock")
            ).start()
        else:
            socket_server = KNNServer(service).start()
        remote = connect(socket_server.address)
        open_session = remote.open_session
        apply_batch = remote.apply

    results: Dict[int, List[QueryResult]] = {}
    mismatches: List[Tuple[int, int]] = []
    comm_start = service.communication.snapshot()
    hook_cleanup = None
    try:
        started = _clock()
        # Session registration computes each query's first answer (timestamp
        # 0); the recorded streams start at timestamp 1.
        sessions = [
            open_session(trajectory[0], k=k, rho=scenario.rho)
            for trajectory, k in zip(scenario.trajectories, scenario.ks)
        ]
        for session in sessions:
            results[session.query_id] = []
        epochs_before = service.epoch
        floor = _population_floor(sessions)
        if serving_hook is not None:
            hook_cleanup = serving_hook(service)
        with ShardedDispatcher(workers=workers) as dispatcher:
            for step in range(1, scenario.timestamps):
                if step_delay > 0:
                    time.sleep(step_delay)
                if scenario.churn.interval and step % scenario.churn.interval == 0:
                    batch = make_churn_batch(
                        service.active_object_indexes(), floor, scenario, rng, counts
                    )
                    if batch is not None:
                        apply_batch(batch)
                responses = dispatcher.advance(
                    [
                        (session, trajectory[step])
                        for session, trajectory in zip(sessions, scenario.trajectories)
                    ]
                )
                for session, trajectory, response in zip(
                    sessions, scenario.trajectories, responses
                ):
                    results[session.query_id].append(response.result)
                    if check_answers:
                        # Check against the *registered* k (not the answer's
                        # own length) so an under-filled answer cannot pass
                        # vacuously.
                        all_distances = oracle(service, trajectory[step])
                        if not check_knn_answer(
                            response.knn, all_distances, session.k, oracle_tolerance
                        ):
                            mismatches.append((step, session.query_id))
        elapsed = _clock() - started
        communication = service.communication.snapshot()
        # Report only this run's traffic: a reused engine may carry history.
        for name in (
            "uplink_messages",
            "uplink_objects",
            "downlink_messages",
            "downlink_objects",
            "uplink_bytes",
            "downlink_bytes",
        ):
            setattr(
                communication,
                name,
                getattr(communication, name) - getattr(comm_start, name),
            )
        per_session = service.engine.per_query_communication()
        aggregate = service.aggregate_stats()
        epochs = service.epoch - epochs_before
        wire = (0, 0, 0, 0)
        if remote is not None:
            wire = (
                remote.bytes_sent,
                remote.bytes_received,
                remote.predicted_bytes_sent,
                remote.predicted_bytes_received,
            )
    finally:
        if callable(hook_cleanup):
            hook_cleanup()
        if remote is not None:
            remote.close()
        if socket_server is not None:
            socket_server.stop()
        if tempdir is not None:
            shutil.rmtree(tempdir, ignore_errors=True)
        if wal_dir is not None:
            # Release the log file without logging goodbyes: the sessions
            # stay open in the WAL, so the run's durable state can still be
            # recovered (and re-attached to) afterwards.
            service.close_wal()
    return ServerSimulationRun(
        scenario=scenario.name,
        invalidation=service.invalidation,
        results=results,
        epochs=epochs,
        update_counts=counts,
        aggregate=aggregate,
        communication=communication,
        elapsed_seconds=elapsed,
        workers=workers,
        mismatches=mismatches,
        transport=transport_name,
        per_session_communication=per_session,
        wire_bytes_sent=wire[0],
        wire_bytes_received=wire[1],
        wire_bytes_predicted_sent=wire[2],
        wire_bytes_predicted_received=wire[3],
    )


def _simulate_over_processes(
    scenario: ServerScenario,
    invalidation: str,
    maintenance: str,
    workers: int,
    wal_dir: Optional[str] = None,
    wal_fsync: Optional[str] = None,
    wal_segment_bytes: Optional[int] = None,
    faults=None,
    replication: str = "recompute",
    serving_hook=None,
    step_delay: float = 0.0,
) -> ServerSimulationRun:
    """The ``transport="process"`` body: shard the engine across processes.

    Every worker holds a full engine replica built from the scenario;
    sessions are pinned ``i mod workers`` and update batches are broadcast
    (see :class:`~repro.transport.procpool.ProcessShardedDispatcher`).
    Results are keyed by the sessions' global open-order ids, which equal
    the query ids an in-process run assigns — so run comparisons are
    key-compatible across transports.

    With ``wal_dir`` every worker logs to its own ``shard-<i>``
    subdirectory, and a worker that dies (or is killed by the ``faults``
    plan) is respawned and rejoins by replaying that log — the run
    completes with bit-identical answers and counters.
    """
    from repro.transport import ProcessShardedDispatcher, ServiceSpec

    euclidean = isinstance(scenario, EuclideanServerScenario)
    make_churn_batch = _euclidean_churn_batch if euclidean else _road_churn_batch
    spec = ServiceSpec.from_scenario(
        scenario, maintenance=maintenance, invalidation=invalidation
    )
    rng = random.Random(scenario.seed + 977)
    counts = {"inserts": 0, "deletes": 0, "moves": 0}
    results: Dict[int, List[QueryResult]] = {}
    with ProcessShardedDispatcher(
        spec,
        workers=workers,
        wal_dir=wal_dir,
        wal_fsync=wal_fsync if wal_fsync is not None else "off",
        wal_segment_bytes=wal_segment_bytes,
        faults=faults,
        replication=replication,
    ) as pool:
        started = _clock()
        sessions = [
            pool.open_session(trajectory[0], k=k, rho=scenario.rho)
            for trajectory, k in zip(scenario.trajectories, scenario.ks)
        ]
        for session in sessions:
            results[session.global_id] = []
        floor = _population_floor(sessions)
        hook_cleanup = serving_hook(pool) if serving_hook is not None else None
        try:
            for step in range(1, scenario.timestamps):
                if step_delay > 0:
                    time.sleep(step_delay)
                if scenario.churn.interval and step % scenario.churn.interval == 0:
                    batch = make_churn_batch(
                        list(pool.active_object_indexes()), floor, scenario, rng, counts
                    )
                    if batch is not None:
                        pool.apply(batch)
                responses = pool.advance(
                    [
                        (session, trajectory[step])
                        for session, trajectory in zip(sessions, scenario.trajectories)
                    ]
                )
                for session, response in zip(sessions, responses):
                    results[session.global_id].append(response.result)
        finally:
            if callable(hook_cleanup):
                hook_cleanup()
        elapsed = _clock() - started
        communication = pool.communication()
        per_session = pool.per_session_communication()
        aggregate = pool.aggregate_stats()
        epochs = pool.epoch
        respawns = pool.respawns
        kills_injected = pool.kills_injected
        drains = pool.drains
        handoff_seconds = list(pool.handoff_seconds)
    return ServerSimulationRun(
        scenario=scenario.name,
        invalidation=invalidation,
        results=results,
        epochs=epochs,
        update_counts=counts,
        aggregate=aggregate,
        communication=communication,
        elapsed_seconds=elapsed,
        workers=workers,
        mismatches=[],
        transport="process",
        per_session_communication=per_session,
        respawns=respawns,
        kills_injected=kills_injected,
        drains=drains,
        handoff_seconds=handoff_seconds,
        replication=replication,
    )
