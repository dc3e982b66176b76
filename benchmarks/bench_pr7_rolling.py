"""PR7 — no downtime: rolling restarts, drain-and-handoff, group commit.

PR 7 made the durable serving system restartable *under traffic*: a
process shard can be drained (sessions checkpointed and parked, a
replacement worker replays the shard WAL and rejoins), the socket server
drains on SIGTERM/SIGHUP and a successor re-adopts the parked sessions,
and the WAL gained a group-commit fsync policy that batches concurrent
acknowledgement barriers into one fsync.  This benchmark prices all three
on the PR6-sized headline stream — M = 64 concurrent k = 8 sessions over
n = 2000 uniform objects, 200 mixed update epochs — and writes
``BENCH_PR7.json`` at the repository root:

* **wal-always / wal-group** — a multi-writer WAL hammer: 8 threads
  append concurrently and every append waits for its durability barrier
  before "acknowledging" (:meth:`~repro.durability.wal.WriteAheadLog.wait_durable`).
  Both policies make every acknowledged record crash-durable; ``"group"``
  must reach that bar with at least 2x fewer fsyncs.
* **shard-steady / shard-rolled** — the headline stream over
  ``transport="process"`` with 4 WAL-backed shard workers.  The rolled
  run executes :meth:`repro.testing.FaultPlan.rolling`: every shard is
  drained and replaced by a log-replaying successor mid-stream, one at a
  time, while the other shards keep serving.  The completed rolled run
  must be *bit-identical* to the steady run — answers, aggregate bill,
  per-session bills — with zero sessions dropped; the drain-to-rejoin
  handoff latency is reported per shard.
* **tcp-continuous / tcp-restarted** — the same stream served over a real
  TCP :class:`~repro.transport.server.KNNServer`.  The restarted run
  drains the server at mid-stream epoch 100 (sessions parked in the
  orphan pool, WAL checkpointed), starts a successor over
  ``recover_service`` with ``adopt_sessions=True``, re-attaches every
  session by query id and finishes the run.  Answers and counters must
  match the never-restarted run exactly.

The wall clocks are honest: the hammers really fsync, the rolled run
really forks replacement workers and replays shard logs, the restarted
run really rebuilds the engine from disk.  The run fails only on
correctness (and on the fsync-batching floor), never on speed.

Run standalone (``python benchmarks/bench_pr7_rolling.py``, add
``--smoke`` for a tiny-N sanity run) or via pytest
(``pytest benchmarks/bench_pr7_rolling.py``).
"""

import argparse
import json
import os
import pathlib
import shutil
import tempfile
import threading
import time

from repro.geometry.point import Point
from repro.durability import DurableKNNService, WriteAheadLog, recover_service
from repro.service.messages import PositionUpdate
from repro.simulation.report import format_table
from repro.simulation.server_sim import build_server, simulate_server
from repro.testing import FaultPlan
from repro.transport import KNNServer, connect
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    update_stream,
)

from benchmarks.conftest import emit_table

QUERIES = 64
OBJECT_COUNT = 2_000
K = 8
UPDATE_EPOCHS = 200
#: One mixed batch per timestamp: 1 insert, 1 delete, 1 move.
CHURN = ChurnSpec(interval=1, inserts=1, deletes=1, moves=1)
STEP_LENGTH = 20.0
WORKERS = 4
#: Rolling schedule: shard i drains after epoch ROLL_START + i*ROLL_STRIDE,
#: spreading the four handoffs evenly across the 200-epoch stream.
ROLL_START = 25
ROLL_STRIDE = 50
#: The TCP leg's single graceful restart fires after this epoch.
TCP_DRAIN_EPOCH = 100

#: WAL hammer shape: concurrent writers, appends per writer.
HAMMER_WRITERS = 8
HAMMER_APPENDS = 400

SMOKE_QUERIES = 6
SMOKE_OBJECT_COUNT = 150
SMOKE_UPDATE_EPOCHS = 12
SMOKE_WORKERS = 2
SMOKE_ROLL_START = 3
SMOKE_ROLL_STRIDE = 6
SMOKE_TCP_DRAIN_EPOCH = 6
SMOKE_HAMMER_APPENDS = 40

#: Where the machine-readable result lands (committed with the PR so the
#: perf trajectory accumulates release over release).
RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR7.json"

COUNTER_FIELDS = (
    "uplink_messages",
    "uplink_objects",
    "downlink_messages",
    "downlink_objects",
)


def build_scenario(smoke: bool = False):
    """The headline benchmark workload (update epochs = timestamps - 1)."""
    return euclidean_server_scenario(
        data="uniform",
        churn=CHURN,
        queries=SMOKE_QUERIES if smoke else QUERIES,
        object_count=SMOKE_OBJECT_COUNT if smoke else OBJECT_COUNT,
        k=3 if smoke else K,
        steps=(SMOKE_UPDATE_EPOCHS if smoke else UPDATE_EPOCHS),
        step_length=STEP_LENGTH,
        seed=71,
    )


def answer_stream(run):
    """Every reported answer of a run, in a comparable canonical form."""
    return {
        query_id: [(result.knn, result.knn_distances) for result in stream]
        for query_id, stream in run.results.items()
    }


def counters(run):
    return {field: getattr(run.communication, field) for field in COUNTER_FIELDS}


def per_session(run):
    return {
        query_id: stats.as_dict()
        for query_id, stats in run.per_session_communication.items()
    }


# ----------------------------------------------------------------------
# Leg 1: the group-commit hammer
# ----------------------------------------------------------------------
def hammer_wal(path, policy, writers, per_writer):
    """Concurrent append+ack-barrier writers against one log.

    Returns ``(wall_seconds, fsyncs, fully_durable)`` — every writer
    treats :meth:`wait_durable` as its acknowledgement gate, so both
    policies deliver the same promise: an acked append survives a crash.
    """
    log = WriteAheadLog(path, fsync=policy)
    gate = threading.Barrier(writers + 1)

    def work(writer):
        gate.wait()
        message = PositionUpdate(
            query_id=writer, position=Point(float(writer), 0.0)
        )
        for _ in range(per_writer):
            seq = log.append(message)
            log.wait_durable(seq)

    threads = [
        threading.Thread(target=work, args=(writer,)) for writer in range(writers)
    ]
    for thread in threads:
        thread.start()
    gate.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    fully_durable = (
        log.synced_seq == log.last_seq
        and log.append_count == writers * per_writer
    )
    fsyncs = log.fsync_count
    log.close()
    return elapsed, fsyncs, fully_durable


# ----------------------------------------------------------------------
# Leg 3: the TCP graceful-restart driver
# ----------------------------------------------------------------------
class _StreamDriver:
    """The client side of the headline stream, one timestamp at a time.

    The update stream and the trajectories live outside the server, so
    draining and restarting the server mid-run leaves the stream's future
    untouched — the same split ``simulate_server`` realises internally.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.stream = update_stream(scenario)
        self.answers = {}
        self.sessions = []

    def open_sessions(self, service):
        self.sessions = [
            service.open_session(trajectory[0], k=k, rho=self.scenario.rho)
            for trajectory, k in zip(self.scenario.trajectories, self.scenario.ks)
        ]
        for session in self.sessions:
            self.answers[session.query_id] = []

    def run(self, service, start, stop):
        scenario = self.scenario
        for step in range(start, stop):
            if self.stream[step] is not None:
                batch, new_indexes = self.stream[step]
                assert tuple(service.apply(batch).new_indexes) == new_indexes
            for session, trajectory in zip(self.sessions, scenario.trajectories):
                response = session.update(trajectory[step])
                self.answers[session.query_id].append(
                    (response.knn, response.knn_distances)
                )


def tcp_run(wal_dir, scenario, drain_at=None):
    """Drive the stream over TCP; optionally drain + restart mid-way.

    Returns ``(wall_seconds, answers, aggregate, per_session,
    sessions_parked)`` read through the final connection.
    """
    service = DurableKNNService(build_server(scenario), wal_dir, wire_billing=True)
    server = KNNServer(service).start()
    remote = connect(server.address)
    driver = _StreamDriver(scenario)
    stop = scenario.timestamps
    parked = True
    started = time.perf_counter()
    driver.open_sessions(remote)
    try:
        if drain_at is None:
            driver.run(remote, 1, stop)
        else:
            driver.run(remote, 1, drain_at)
            session_specs = [
                (session.query_id, session.k) for session in driver.sessions
            ]
            server.drain()
            parked = sorted(server.orphans) == sorted(
                query_id for query_id, _ in session_specs
            )
            try:
                remote._stream.close()
            except Exception:
                pass
            service = recover_service(wal_dir, wire_billing=True)
            server = KNNServer(service, adopt_sessions=True).start()
            remote = connect(server.address)
            driver.sessions = [
                remote.attach_session(query_id, k=k) for query_id, k in session_specs
            ]
            driver.run(remote, drain_at, stop)
        elapsed = time.perf_counter() - started
        aggregate = remote.communication().as_dict()
        sessions = {
            query_id: stats.as_dict()
            for query_id, stats in remote.per_session_communication().items()
        }
    finally:
        try:
            remote.close()
        except Exception:
            pass
        server.stop()
        service.close_wal()
    return elapsed, driver.answers, aggregate, sessions, parked


def run_benchmark(smoke: bool = False):
    """Hammer the WAL, roll the shards, restart the TCP server.

    Returns ``(rows, checks)`` where ``checks`` carries the no-downtime
    verdicts (rolled/restarted runs vs their uninterrupted twins) and the
    group-commit fsync floor.
    """
    scenario = build_scenario(smoke=smoke)
    workers = SMOKE_WORKERS if smoke else WORKERS
    roll = FaultPlan.rolling(
        workers,
        start_epoch=SMOKE_ROLL_START if smoke else ROLL_START,
        stride=SMOKE_ROLL_STRIDE if smoke else ROLL_STRIDE,
    )
    drain_epoch = SMOKE_TCP_DRAIN_EPOCH if smoke else TCP_DRAIN_EPOCH
    appends = SMOKE_HAMMER_APPENDS if smoke else HAMMER_APPENDS

    tempdir = tempfile.mkdtemp(prefix="insq-bench-pr7-")
    try:
        hammer = {}
        for policy in ("always", "group"):
            path = os.path.join(tempdir, f"hammer-{policy}", "wal.log")
            hammer[policy] = hammer_wal(path, policy, HAMMER_WRITERS, appends)
        steady = simulate_server(
            scenario,
            transport="process",
            workers=workers,
            wal_dir=os.path.join(tempdir, "steady"),
            wal_fsync="group",
        )
        rolled = simulate_server(
            scenario,
            transport="process",
            workers=workers,
            wal_dir=os.path.join(tempdir, "rolled"),
            wal_fsync="group",
            faults=roll,
        )
        tcp_plain = tcp_run(os.path.join(tempdir, "tcp-plain"), scenario)
        tcp_rolled = tcp_run(
            os.path.join(tempdir, "tcp-rolled"), scenario, drain_at=drain_epoch
        )
    finally:
        shutil.rmtree(tempdir, ignore_errors=True)

    total_appends = HAMMER_WRITERS * appends
    handoffs = rolled.handoff_seconds
    rows = [
        {
            "run": "wal-always",
            "writers": HAMMER_WRITERS,
            "appends": total_appends,
            "wall_s": round(hammer["always"][0], 3),
            "fsyncs": hammer["always"][1],
            "drains": 0,
            "handoff_ms": 0.0,
        },
        {
            "run": "wal-group",
            "writers": HAMMER_WRITERS,
            "appends": total_appends,
            "wall_s": round(hammer["group"][0], 3),
            "fsyncs": hammer["group"][1],
            "drains": 0,
            "handoff_ms": 0.0,
        },
        {
            "run": "shard-steady",
            "writers": workers,
            "appends": 0,
            "wall_s": round(steady.elapsed_seconds, 3),
            "fsyncs": 0,
            "drains": steady.drains,
            "handoff_ms": 0.0,
        },
        {
            "run": "shard-rolled",
            "writers": workers,
            "appends": 0,
            "wall_s": round(rolled.elapsed_seconds, 3),
            "fsyncs": 0,
            "drains": rolled.drains,
            "handoff_ms": round(
                1000.0 * max(handoffs) if handoffs else 0.0, 1
            ),
        },
        {
            "run": "tcp-continuous",
            "writers": 1,
            "appends": 0,
            "wall_s": round(tcp_plain[0], 3),
            "fsyncs": 0,
            "drains": 0,
            "handoff_ms": 0.0,
        },
        {
            "run": "tcp-restarted",
            "writers": 1,
            "appends": 0,
            "wall_s": round(tcp_rolled[0], 3),
            "fsyncs": 0,
            "drains": 1,
            "handoff_ms": 0.0,
        },
    ]
    checks = {
        "group_acks_fully_durable": hammer["group"][2] and hammer["always"][2],
        "group_at_least_halves_fsyncs": (
            hammer["group"][1] * 2 <= hammer["always"][1]
        ),
        "every_shard_drained_once": rolled.drains == workers,
        "rolled_answers_bit_identical": (
            answer_stream(rolled) == answer_stream(steady)
        ),
        "rolled_counters_identical": counters(rolled) == counters(steady),
        "rolled_per_session_identical": per_session(rolled) == per_session(steady),
        "zero_sessions_dropped": sorted(rolled.results) == sorted(steady.results),
        "tcp_drain_parked_every_session": tcp_rolled[4],
        "tcp_restart_answers_bit_identical": tcp_rolled[1] == tcp_plain[1],
        "tcp_restart_counters_identical": (
            tcp_rolled[2] == tcp_plain[2] and tcp_rolled[3] == tcp_plain[3]
        ),
    }
    stats = {
        "handoff_ms_mean": round(
            1000.0 * sum(handoffs) / len(handoffs), 1
        )
        if handoffs
        else 0.0,
        "handoff_ms_worst": round(1000.0 * max(handoffs), 1) if handoffs else 0.0,
    }
    return rows, {**checks, **stats}


CHECK_NAMES = (
    "group_acks_fully_durable",
    "group_at_least_halves_fsyncs",
    "every_shard_drained_once",
    "rolled_answers_bit_identical",
    "rolled_counters_identical",
    "rolled_per_session_identical",
    "zero_sessions_dropped",
    "tcp_drain_parked_every_session",
    "tcp_restart_answers_bit_identical",
    "tcp_restart_counters_identical",
)


def write_result(rows, checks) -> None:
    by_run = {row["run"]: row for row in rows}
    always, group = by_run["wal-always"], by_run["wal-group"]
    RESULT_PATH.write_text(
        json.dumps(
            {
                "bench": "pr7_rolling",
                "cpu_count": os.cpu_count(),
                "n": OBJECT_COUNT,
                "queries": QUERIES,
                "k": K,
                "updates": UPDATE_EPOCHS,
                "workers": WORKERS,
                "hammer_writers": HAMMER_WRITERS,
                "hammer_appends": always["appends"],
                "fsync_always": always["fsyncs"],
                "fsync_group": group["fsyncs"],
                "fsync_reduction_ratio": round(
                    always["fsyncs"] / max(group["fsyncs"], 1), 1
                ),
                "wal_always_wall_seconds": always["wall_s"],
                "wal_group_wall_seconds": group["wall_s"],
                "shard_steady_wall_seconds": by_run["shard-steady"]["wall_s"],
                "shard_rolled_wall_seconds": by_run["shard-rolled"]["wall_s"],
                "shard_drains": by_run["shard-rolled"]["drains"],
                "tcp_continuous_wall_seconds": by_run["tcp-continuous"]["wall_s"],
                "tcp_restarted_wall_seconds": by_run["tcp-restarted"]["wall_s"],
                **checks,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def test_pr7_rolling(run_once):
    rows, checks = run_once(run_benchmark)
    for name in CHECK_NAMES:
        assert checks[name], name
    write_result(rows, checks)
    emit_table(
        "PR7_rolling",
        format_table(
            rows,
            title=(
                f"PR7: rolling restarts, drain-and-handoff, group commit "
                f"(M={QUERIES} sessions, n={OBJECT_COUNT}, k={K}, "
                f"{UPDATE_EPOCHS} update epochs, {WORKERS} shard workers)"
            ),
        ),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny-N sanity run")
    args = parser.parse_args()
    rows, checks = run_benchmark(smoke=args.smoke)
    for row in rows:
        print(row)
    for name, value in checks.items():
        print(f"{name}: {value}")
    if not all(checks[name] for name in CHECK_NAMES):
        raise SystemExit(1)
    if not args.smoke:
        write_result(rows, checks)
        print(f"written to {RESULT_PATH.name}")


if __name__ == "__main__":
    main()
