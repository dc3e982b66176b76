"""Drive a serving engine: the paper's methods side by side, or a
multi-query service through a concurrent workload.

:func:`run_methods` is how the paper's methods are compared: one engine
over one data set, one query per method (INS is the ``knn`` kind, the
order-k safe region the ``region`` kind, the baselines the kinds of
:func:`repro.baselines.baseline_kinds`), every query advanced along the
same trajectory on the engine's one index.

:func:`simulate_server` drives a whole serving system: M concurrent
query streams advance over one shared index while a mixed object-update
stream (inserts, deletes, moves — see
:class:`repro.workloads.scenarios.ChurnSpec`) mutates the data set between
timestamps, each batch applied as a single data epoch.  This is the "heavy
traffic" shape of the system: many clients, one index, continuous churn.

:func:`simulate_server` is one player for one stream.  The stream is data:
:func:`~repro.workloads.scenarios.update_stream` computes every
:class:`~repro.service.messages.UpdateBatch` (and the object indexes it must
create) from the scenario alone, and the trajectories are the scenario's.
It serves the :class:`~repro.service.service.KNNService` it is given (in
memory or durable), or :func:`~repro.service.service.open_service` on the
scenario's objects — in process, or behind a loopback
:class:`~repro.transport.server.KNNServer` reached through
:func:`~repro.transport.client.connect` (``"tcp"``/``"unix"``; the
counters then include real wire bytes) — and one loop replays the stream
through it: open the sessions, and per timestamp apply that timestamp's
batch (checking the engine created exactly the indexes the stream
predicts), then advance every session.  The transports are drop-in
by construction, so every front door returns bit-identical answers and
identical message/object counters — the equivalence suite in
``tests/transport/`` holds that together.

:func:`simulate_server` returns a :class:`ServerRun` with
per-query result streams, the aggregate cost counters, the run's
:class:`~repro.core.stats.CommunicationStats` (messages and objects over
the wire — the paper's headline metric, measured rather than estimated)
and, with ``check_answers=True``, a brute-force check of every reported
answer against the oracle's own model of the population, advanced by the
same stream — never read from the engine under test.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.core.engine import ServingEngine
from repro.core.objects import QueryResult
from repro.core.stats import CommunicationStats, ProcessorStats
from repro.obs.clock import clock as _clock
from repro.roadnet.shortest_path import distances_from_location
from repro.service import KNNService, UpdateBatch, open_service
from repro.workloads.scenarios import Scenario, update_stream


def run_methods(
    engine: ServingEngine, trajectory: Sequence[Any], methods: Mapping[str, Tuple[str, int, float]]
) -> Dict[str, Dict[str, Any]]:
    """Serve one query per method along ``trajectory`` on ``engine``.

    ``methods`` maps a report name to the query's ``(kind, k, rho)``.  Every
    query opens at the trajectory's first position, in the mapping's order,
    and each later timestamp advances them all in turn.  Returns one row per
    report name: ``method``, ``answers`` (one
    :class:`~repro.core.objects.QueryResult` per timestamp, the first answer
    included), ``knn_changes`` (answers whose member set differs from the
    previous one's), ``invalid_timestamps`` (later answers whose held answer
    was invalid), ``elapsed_seconds`` (the wall clock of this method's own
    calls, registration included), then every counter of its
    :class:`~repro.core.stats.ProcessorStats`.
    """
    query_ids: Dict[str, int] = {}
    elapsed: Dict[str, float] = {}
    for name, (kind, k, rho) in methods.items():
        started = _clock()
        query_ids[name] = engine.register_query(trajectory[0], k, rho=rho, kind=kind)
        elapsed[name] = _clock() - started
    first = {record.query_id: record.first_answer for record in engine}
    answers = {name: [first[query_id]] for name, query_id in query_ids.items()}
    for position in trajectory[1:]:
        for name, query_id in query_ids.items():
            started = _clock()
            answers[name].append(engine.update_position(query_id, position))
            elapsed[name] += _clock() - started
    stats = engine.per_query_stats()
    rows = {}
    for name, query_id in query_ids.items():
        results = answers[name]
        rows[name] = {
            "method": name,
            "answers": results,
            "knn_changes": sum(
                before.knn_set != after.knn_set for before, after in zip(results, results[1:])
            ),
            "invalid_timestamps": sum(not result.was_valid for result in results[1:]),
            "elapsed_seconds": elapsed[name],
            **stats[query_id].as_dict(),
        }
    return rows


def check_knn_answer(
    reported: Sequence[int],
    all_distances: Dict[int, float],
    k: int,
    tolerance: float = 1e-7,
) -> bool:
    """Tie-aware correctness check of a reported kNN answer.

    The answer is accepted when it has exactly ``k`` distinct members, none
    of them is farther than the true k-th smallest distance (within
    ``tolerance``, relative to the distance scale), and every object strictly
    closer than the true k-th distance is included.  A plain set comparison
    would flag legitimate alternative answers on a grid, where exact
    distance ties are common.
    """
    members = set(reported)
    if len(reported) != k or len(members) != k:
        return False
    ordered = sorted(all_distances.values())
    if len(ordered) < k:
        return False
    kth = ordered[k - 1]
    slack = tolerance * max(kth, 1.0)
    for index in members:
        if index not in all_distances or all_distances[index] > kth + slack:
            return False
    return all(
        distance >= kth - slack or index in members
        for index, distance in all_distances.items()
    )


@dataclass
class ServerRun:
    """The outcome of driving one service through one scenario.

    Attributes:
        scenario: the scenario name.
        results: per query id, one :class:`QueryResult` per timestamp.
        epochs: data epochs applied by the update stream.
        update_counts: applied object mutations by kind
            (``{"inserts": ..., "deletes": ..., "moves": ...}``).
        aggregate: cost counters summed over every registered query.
        communication: messages and objects exchanged over the wire during
            the run (registration included, session teardown excluded —
            the sessions are still open when the run is read out).
        elapsed_seconds: wall-clock time of the whole run (the service's
            construction excluded, update stream included).
        mismatches: ``(timestamp, query_id)`` pairs whose reported answer
            was provably wrong against the brute-force oracle (only
            populated when ``check_answers=True``).
        transport: how the sessions reached the engine — ``"local"``
            (in-process method calls) or ``"tcp"``/``"unix"`` (a loopback
            socket server; the communication counters then include real
            wire bytes).
        per_session_communication: per-session counters at the end of the
            run (snapshots, keyed like ``results``) — the breakdown
            ``insq serve --per-session`` prints.
    """

    scenario: str
    results: Dict[int, List[QueryResult]]
    epochs: int
    update_counts: Dict[str, int]
    aggregate: ProcessorStats
    communication: CommunicationStats
    elapsed_seconds: float
    mismatches: List[Tuple[int, int]] = field(default_factory=list)
    transport: str = "local"
    per_session_communication: Dict[int, CommunicationStats] = field(
        default_factory=dict
    )

    @property
    def timestamps(self) -> int:
        """Timestamps every query stream was advanced through."""
        return min(len(stream) for stream in self.results.values()) if self.results else 0

    @property
    def is_correct(self) -> bool:
        """True when no oracle mismatch was recorded."""
        return not self.mismatches


def _advance_model(
    model: Dict[int, Any], batch: UpdateBatch, new_indexes: Tuple[int, ...], road: bool
) -> None:
    """Apply one epoch to the oracle's own ``index -> position`` model."""
    for index in batch.deletes:
        del model[index]
    placed = list(batch.inserts)
    for index, target in batch.moves:
        if road:
            model[index] = target
        else:
            del model[index]
            placed.append(target)
    model.update(zip(new_indexes, placed))


def _model_distances(
    scenario: Scenario, model: Dict[int, Any], position: Any
) -> Dict[int, float]:
    """Every modelled object's distance from ``position`` (brute force)."""
    if scenario.metric == "euclidean":
        return {index: position.distance_to(point) for index, point in model.items()}
    reach = distances_from_location(scenario.network, position)
    return {index: reach.get(vertex, math.inf) for index, vertex in model.items()}


def simulate_server(
    scenario: Scenario,
    service: Optional[KNNService] = None,
    check_answers: bool = False,
    transport: str = "local",
    step_delay: float = 0.0,
) -> ServerRun:
    """Drive M concurrent query streams interleaved with the update stream.

    Timestamp 0 opens one session per query at its trajectory's start.  At
    every later timestamp the update stream first applies one mixed
    mutation batch (when the scenario's churn interval says so — one data
    epoch, one invalidation round), then every session advances one step
    and its answer is recorded (and, with ``check_answers=True``, verified
    against a brute-force oracle over the current population, tie-aware).

    The run leaves ``service`` as it ends: its sessions stay open.  Over a
    socket the loopback server is drained (the sessions are parked, not
    closed, and a durable service is checkpointed and its log released),
    so no goodbye lands on the bill after the run has been read out.

    Args:
        scenario: the run to replay.
        service: the service to serve it on — fresh: no session opened and
            no data epoch applied yet, holding the scenario's objects.
            ``None`` opens :func:`~repro.service.service.open_service` on
            the scenario (delta invalidation, in memory).
        check_answers: verify every reported answer against brute force
            over the oracle's own model of the population (any transport).
        transport: ``"local"`` for in-process serving, ``"tcp"``/``"unix"``
            to serve the run through a loopback
            :class:`~repro.transport.server.KNNServer` socket (sessions
            become :class:`~repro.transport.client.RemoteSession` handles
            and the counters gain real wire bytes).
        step_delay: sleep this many seconds before every advanced
            timestamp (default 0: no pacing).  Lets an operator (or the
            scrape-reconciliation test) observe a run mid-stream
            deterministically; the wall-clock sleeps happen outside every
            timed section.

    Returns:
        A :class:`ServerRun`.

    Raises:
        ConfigurationError: for an unknown transport, or a service that
            already has sessions or data epochs (the stream's predicted
            object indexes and the oracle's model would both be wrong).
    """
    if transport not in ("local", "tcp", "unix"):
        raise ConfigurationError(
            f"transport must be 'local', 'tcp' or 'unix', got {transport!r}"
        )
    if service is None:
        service = open_service(scenario.metric, scenario.objects, scenario.network)
    elif service.session_count or service.epoch:
        raise ConfigurationError(
            f"simulate_server needs a fresh service, got {service.session_count} "
            f"open session(s) at epoch {service.epoch}"
        )
    stream = update_stream(scenario)
    road = scenario.metric == "road"
    model = dict(enumerate(scenario.objects))
    counts = {"inserts": 0, "deletes": 0, "moves": 0}
    # Keyed by open order: the query ids a fresh engine assigns.
    results: Dict[int, List[QueryResult]] = {
        query_id: [] for query_id in range(scenario.query_count)
    }
    mismatches: List[Tuple[int, int]] = []
    with contextlib.ExitStack() as teardown:
        front = service
        if transport != "local":
            from repro.transport import KNNServer, connect

            if transport == "unix":
                tempdir = tempfile.mkdtemp(prefix="insq-sim-")
                teardown.callback(shutil.rmtree, tempdir, ignore_errors=True)
                socket_server = KNNServer(
                    service, path=os.path.join(tempdir, "insq.sock")
                ).start()
            else:
                socket_server = KNNServer(service).start()
            teardown.callback(socket_server.stop)
            front = connect(socket_server.address)
            teardown.callback(front.close)
            # Runs first: the parked sessions stay open, so the client's
            # close finds no server to say goodbye to.
            teardown.callback(socket_server.drain)

        started = _clock()
        # Session registration computes each query's first answer (timestamp
        # 0); the recorded streams start at timestamp 1.
        sessions = [
            front.open_session(trajectory[0], k=k, rho=scenario.rho)
            for trajectory, k in zip(scenario.trajectories, scenario.ks)
        ]
        for step in range(1, scenario.timestamps):
            if step_delay > 0:
                time.sleep(step_delay)
            if stream[step] is not None:
                batch, new_indexes = stream[step]
                applied = front.apply(batch)
                if tuple(applied.new_indexes) != new_indexes:
                    raise AssertionError(
                        f"timestamp {step}: the engine assigned "
                        f"{tuple(applied.new_indexes)}, the update stream "
                        f"predicted {new_indexes}"
                    )
                counts["inserts"] += len(batch.inserts)
                counts["deletes"] += len(batch.deletes)
                counts["moves"] += len(batch.moves)
                if check_answers:
                    _advance_model(model, batch, new_indexes, road)
            positions = [trajectory[step] for trajectory in scenario.trajectories]
            responses = [
                session.update(position)
                for session, position in zip(sessions, positions)
            ]
            for query_id, (session, position, response) in enumerate(
                zip(sessions, positions, responses)
            ):
                results[query_id].append(response.result)
                # Check against the *registered* k (not the answer's own
                # length) so an under-filled answer cannot pass vacuously.
                if check_answers and not check_knn_answer(
                    response.knn, _model_distances(scenario, model, position), session.k
                ):
                    mismatches.append((step, query_id))
        elapsed = _clock() - started
        return ServerRun(
            scenario=scenario.name,
            results=results,
            epochs=service.epoch,
            update_counts=counts,
            aggregate=service.aggregate_stats(),
            communication=service.communication.snapshot(),
            elapsed_seconds=elapsed,
            mismatches=mismatches,
            transport=transport,
            per_session_communication=service.per_session_communication(),
        )
