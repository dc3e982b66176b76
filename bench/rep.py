"""One repetition of one workload, in a fresh process.

The harness starts this module as a child (``run.py --child rep``) so that
every repetition begins from a cold interpreter, owns its peak RSS, and can
be killed on a deadline.  It generates the inputs from the seed, sets the
service up through the public front door, drives the closed loop — per
timestamp one ``apply(UpdateBatch)`` then one ``update`` per session, each
waited for, then one calibration chunk — and writes everything it measured
to a JSON file.

On ``wire-durable`` this process is the client: the engine lives in a
``KNNServer`` child (``bench/server_child.py``) behind loopback TCP, hosting
a ``DurableKNNService``; after the stream the child is SIGKILLed and its WAL
directory is recovered here.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import struct
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench import calibrate, trace
from bench.workloads import RHO, WORKLOADS, Workload, smoke

_clock = time.perf_counter

#: The epoch after which the bill so far is noted, for the known answers.
KNOWN_EPOCH = 200

#: Calibration chunks on each side of set-up.
SETUP_CHUNKS = 7

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


class RepTimeout(Exception):
    """The repetition's own deadline fired."""


def _on_alarm(signum, frame):
    raise RepTimeout("repetition deadline reached")


def resolve(params: Dict[str, Any]) -> Workload:
    workload = WORKLOADS[params["workload"]]
    return smoke(workload) if params["smoke"] else workload


def main(params: Dict[str, Any]) -> int:
    workload = resolve(params)
    expected = workload.ops + (1 if params["wire"] and params["recover"] else 0)
    result: Dict[str, Any] = {"ops_expected": expected, "failed": 0, "errors": []}
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, params["timeout"])
    progress = trace.state()  # .request counts the operations begun
    try:
        _run(params, workload, result, progress)
    except Exception as error:  # the boundary: whatever went wrong is a failed op
        # The operation in flight and everything after it did not happen.
        done = min(max(0, progress.request - 1), expected)
        result["failed"] += expected - done
        result["errors"].append(f"{type(error).__name__}: {error}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    with open(params["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# ----------------------------------------------------------------------
# The repetition
# ----------------------------------------------------------------------
def _run(params, workload: Workload, result, progress) -> None:
    wire, traced = params["wire"], params["traced"]
    # One CPU for the driver and (inherited) the server child.  The closed
    # loop never has two things to run at once, and on a VM every hand-over
    # to an idle second vCPU is a host wake-up whose latency follows the
    # host's load, not the program: unpinned, wire-durable's stream ran
    # 9-21 s in one noisy hour against 7 s pinned or quiet.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_chunks = [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
    started = _clock()
    import repro  # noqa: F401  (timed: set-up includes loading the package)

    import_s = _clock() - started
    from repro.service import open_service

    from bench.generate import generate

    inputs = generate(workload, params["seed"])
    if traced:
        trace.install()

    server = None
    try:
        started = _clock()
        if wire:
            from repro.transport import connect

            server = _Server(params)
            front = connect(server.address, request_timeout=params["timeout"])
            result["setup_s"] = _clock() - started
        else:
            front = open_service(
                metric=workload.metric, objects=inputs.objects, network=inputs.network
            )
            result["setup_s"] = import_s + _clock() - started
        setup_chunks += [calibrate.chunk() for _ in range(SETUP_CHUNKS)]
        result["setup_chunk_s"] = setup_chunks

        stream = _stream(front, inputs, workload, progress, wire)
        answers = stream.pop("answers")
        window = stream.pop("window")
        result.update(stream)
        result["counts"] = _counts(front, answers, wire)
        own = registry_counts() if traced else None
        server_says = None
        if wire:
            if (front.bytes_sent, front.bytes_received) != (
                front.predicted_bytes_sent,
                front.predicted_bytes_received,
            ):
                result["failed"] += 1
                result["errors"].append("measured wire bytes != codec prediction")
            reference = (
                _wire_reference(front, answers, workload) if params["recover"] else None
            )
            if traced:
                server_says = server.dump()
            result["rss_mb"] = server.kill() / 1024.0
            if reference is not None:
                _recover(params, reference, result, progress)
            front.close()
        else:
            result["rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
    finally:
        if server is not None:
            server.kill()

    result["digests"] = _digests(answers)
    if params["oracle"]:
        checked, wrong = _oracle(inputs, workload, answers)
        result["oracle_checked"] = checked
        if wrong:
            result["failed"] += wrong
            result["errors"].append(f"{wrong} of {checked} answers failed the oracle")
    if traced:
        stream_s = result["open_s"] + sum(result["tick_s"])
        _ledger(params, result, window, stream_s, own, server_says)


def _stream(front, inputs, workload: Workload, progress, wire: bool):
    """The closed loop.  ``progress.request`` numbers every operation begun
    (it is also the request id the spans carry)."""
    batches, expected = inputs.batches, inputs.new_indexes
    positions_at = list(zip(*inputs.trajectories))
    update_s: List[float] = []
    epoch_s: List[float] = []
    tick_s: List[float] = []
    answers = []
    known: Dict[str, int] = {}
    ops = 0
    started = _clock()
    sessions = []
    for start, k in zip(positions_at[0], inputs.ks):
        progress.request = ops = ops + 1
        sessions.append(front.open_session(start, k=k, rho=RHO))
    open_s = _clock() - started
    chunk_s = [calibrate.chunk()]
    for step in range(1, workload.epochs + 1):
        tick_started = _clock()
        if batches:
            progress.request = ops = ops + 1
            before = _clock()
            applied = front.apply(batches[step - 1])
            epoch_s.append(_clock() - before)
            if tuple(applied.new_indexes) != expected[step - 1]:
                raise AssertionError(
                    f"epoch {step}: engine assigned {applied.new_indexes}, "
                    f"the generator expected {expected[step - 1]}"
                )
        for session, position in zip(sessions, positions_at[step]):
            progress.request = ops = ops + 1
            before = _clock()
            response = session.update(position)
            update_s.append(_clock() - before)
            answers.append((response.knn, response.knn_distances, response.round_trips))
        tick_s.append(_clock() - tick_started)
        if step == KNOWN_EPOCH:
            if wire:
                known["wire_bytes"] = front.bytes_sent + front.bytes_received
            else:
                communication = front.communication
                known["messages"] = communication.messages
                known["objects"] = communication.objects_transmitted
                known["retrievals"] = front.aggregate_stats().full_recomputations
        chunk_s.append(calibrate.chunk())
    return {
        "window": (started, _clock()),
        "open_s": open_s,
        "tick_s": tick_s,
        "chunk_s": chunk_s,
        "update_s": update_s,
        "epoch_s": epoch_s,
        "answers": answers,
        "known": known,
    }


def _counts(front, answers, wire: bool) -> Dict[str, int]:
    """The exact counters: the paper's communication cost and recomputations."""
    communication = front.communication() if wire else front.communication
    aggregate = front.aggregate_stats()
    return {
        "updates": len(answers),
        "messages": communication.messages,
        "objects": communication.objects_transmitted,
        "recomputes": aggregate.full_recomputations,
        "ins_refreshes": aggregate.ins_refreshes,
        "absorbed_updates": aggregate.absorbed_updates,
        "valid_updates": sum(1 for a in answers if a[2] == 0),
        "wire_bytes": front.bytes_sent + front.bytes_received if wire else 0,
        "retries": front.resends + front.timeouts if wire else 0,
    }


def _digests(answers) -> str:
    """Eight bytes per answer: ids and distances, bit for bit."""
    out = []
    for knn, distances, _ in answers:
        payload = struct.pack(f"<{len(knn)}q{len(distances)}d", *knn, *distances)
        out.append(hashlib.blake2b(payload, digest_size=8).hexdigest())
    return "".join(out)


def _oracle(inputs, workload: Workload, answers):
    from bench.generate import apply_to_model
    from bench.oracle import PlaneOracle, RoadOracle

    road = workload.metric == "road"
    model = dict(enumerate(inputs.objects))
    oracle = RoadOracle(model, inputs.network) if road else PlaneOracle(model)
    checked = wrong = 0
    sessions = workload.sessions
    for step in range(1, workload.epochs + 1):
        if inputs.batches:
            apply_to_model(
                model, inputs.batches[step - 1], inputs.new_indexes[step - 1], road
            )
        for i in range(sessions):
            if (step * 7 + i) % workload.oracle_every:
                continue
            knn, distances, _ = answers[(step - 1) * sessions + i]
            checked += 1
            position = inputs.trajectories[i][step]
            if not oracle.check(step, position, inputs.ks[i], knn, distances):
                wrong += 1
    return checked, wrong


# ----------------------------------------------------------------------
# wire-durable: the server child, its death, and recovery
# ----------------------------------------------------------------------
def _wal_dir(params) -> str:
    return os.path.join(params["tmp"], "wal")


def _server_trace(params) -> str:
    return os.path.join(params["tmp"], "server-trace.jsonl")


class _Server:
    """The ``KNNServer`` child process (see ``bench/server_child.py``)."""

    def __init__(self, params):
        child = dict(
            params, wal_dir=_wal_dir(params), trace_path=_server_trace(params)
        )
        self._process = subprocess.Popen(
            [sys.executable, RUN, "--child", "server", json.dumps(child)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._max_rss_kb: Optional[int] = None
        ready = self._process.stdout.readline().split()
        if len(ready) != 3 or ready[0] != "READY":
            self.kill()
            raise RuntimeError(f"server child did not come up: {ready!r}")
        self.address = (ready[1], int(ready[2]))

    def dump(self) -> Dict[str, Any]:
        """Have the child write its spans; returns its obs registry counts."""
        self._process.stdin.write("dump\n")
        self._process.stdin.flush()
        return json.loads(self._process.stdout.readline())

    def kill(self) -> int:
        """SIGKILL, reap, close the pipes; returns the child's peak RSS (KB)."""
        if self._max_rss_kb is None:
            self._process.kill()
            _, _, usage = os.wait4(self._process.pid, 0)
            self._process.returncode = -signal.SIGKILL
            self._process.stdin.close()
            self._process.stdout.close()
            self._max_rss_kb = usage.ru_maxrss
        return self._max_rss_kb


def _wire_reference(front, answers, workload: Workload):
    """What the live server said about itself just before it dies."""
    return {
        "epoch": front.epoch,
        "aggregate": front.communication().as_dict(),
        "per_session": {
            query_id: stats.as_dict()
            for query_id, stats in front.per_session_communication().items()
        },
        "last_answers": [a[:2] for a in answers[-workload.sessions :]],
        "session_ids": [session.query_id for session in front.sessions()],
    }


def _recover(params, reference, result, progress) -> None:
    """Recover the killed server's WAL directory; timed until the recovered
    state is shown equal to what the server last said."""
    from repro.durability import recover_service, wal_path

    result["wal_bytes"] = os.path.getsize(wal_path(_wal_dir(params)))
    progress.request += 1
    started = _clock()
    service = recover_service(_wal_dir(params), fsync="batch", wire_billing=True)
    try:
        recovered = {session.query_id: session for session in service.sessions()}
        problems = []
        if service.epoch != reference["epoch"]:
            problems.append(f"epoch {service.epoch} != {reference['epoch']}")
        if sorted(recovered) != sorted(reference["session_ids"]):
            problems.append("open sessions differ")
        if service.communication.as_dict() != reference["aggregate"]:
            problems.append("aggregate counters differ")
        per_session = {
            query_id: stats.as_dict()
            for query_id, stats in service.per_session_communication().items()
        }
        if per_session != reference["per_session"]:
            problems.append("per-session counters differ")
        if not problems:
            # Last, because re-answering bills a message.
            for query_id, last in zip(
                reference["session_ids"], reference["last_answers"]
            ):
                response = recovered[query_id].refresh()
                if (response.knn, response.knn_distances) != tuple(last):
                    problems.append(f"session {query_id}: last answer differs")
                    break
        result["recover_s"] = _clock() - started
        result["wal_records"] = service.wal.last_seq
    finally:
        service.close_wal()
    if problems:
        result["failed"] += 1
        result["errors"].append("recovery: " + "; ".join(problems))


# ----------------------------------------------------------------------
# The traced repetition's ledger
# ----------------------------------------------------------------------
def registry_counts() -> Dict[str, float]:
    """The program's own ``repro.obs`` series the trace is reconciled with."""
    from repro.obs import REGISTRY

    snapshot = REGISTRY.snapshot()
    counters = {(name, labels): value for name, labels, value in snapshot.counters}
    return {
        "taken": _clock(),
        "recomputes": counters.get(("insq_retrievals_total", "outcome=recomputed"), 0),
        "epochs": counters.get(("insq_epochs_total", ""), 0),
        "fsyncs": counters.get(("insq_wal_fsyncs_total", ""), 0),
        "encodes": sum(
            sum(buckets)
            for name, labels, buckets, _ in snapshot.histograms
            if name == "insq_codec_seconds" and "op=encode" in labels.split(",")
        ),
    }


def _ledger(params, result, window, stream_s, own, server_says) -> None:
    driver = trace.export("driver")
    server_rows: List[Dict[str, Any]] = []
    if os.path.exists(_server_trace(params)):
        server_rows = trace.read_jsonl(_server_trace(params))
        for row in server_rows:
            row["id"] += len(driver)
            if row["parent"] is not None:
                row["parent"] += len(driver)
    metrics = trace.ledger(driver, server_rows, tuple(window), stream_s, trace.missing)
    replay = trace.Totals(driver, trace.EVERYTHING).total_s.get("recovery.replay", 0.0)
    metrics["recovery.replay_s"] = (
        trace.MISSING if "recovery.replay" in trace.missing else replay
    )
    result["ledger"] = metrics

    # Recovery replays the whole stream through this process's wrappers; the
    # file keeps the recovery spans themselves, not that second copy.
    recovering = [
        (row["start"], row["end"]) for row in driver if row["name"] == "recovery.recover"
    ]
    kept = [
        row
        for row in driver
        if row["name"].startswith("recovery.")
        or not any(low <= row["start"] and row["end"] <= high for low, high in recovering)
    ]
    trace.write_jsonl(params["trace_out"], kept + server_rows)

    # Count-only reconciliation with the program's own series.  The engine
    # host (this process, or the server child) owns the engine counters and
    # the WAL; both ends encode frames.  ``own`` was read before recovery
    # replayed the stream through this process's instruments.
    seen_here = trace.Totals(driver, (float("-inf"), own["taken"])).calls
    seen_there = trace.Totals(server_rows, trace.EVERYTHING).calls
    host, host_says = (seen_there, server_says) if server_says else (seen_here, own)
    pairs = {
        # Each registration retrieves once, outside update_position, where
        # obs does not count it; the engine's own stats count both.
        "core.recomputes": (
            result["counts"]["recomputes"] - resolve(params).sessions,
            host_says["recomputes"],
        ),
        "service.apply_calls": (host.get("service.apply", 0), host_says["epochs"]),
        "wal.fsyncs": (host.get("wal.fsync", 0), host_says["fsyncs"]),
        "codec.encode_calls": (
            seen_here.get("codec.encode", 0) + seen_there.get("codec.encode", 0),
            own["encodes"] + (server_says["encodes"] if server_says else 0),
        ),
    }
    result["crosscheck"] = {
        name: {"trace": seen, "obs": said} for name, (seen, said) in pairs.items()
    }
