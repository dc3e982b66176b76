"""PR5 — over the wire: loopback transport.

PR 5 gave the PR4 message protocol a real wire: a binary codec with exact
size prediction, a socket :class:`~repro.transport.server.KNNServer` and
drop-in :class:`~repro.transport.client.RemoteSession` handles.

This benchmark drives the PR3/PR4-sized headline stream — M = 64
concurrent k = 8 sessions over n = 2000 uniform objects, 200 mixed update
epochs — two ways and writes ``BENCH_PR5.json`` at the repository root:

* **in-process** (the PR4 surface) — the baseline;
* **loopback TCP** — every session exchange crosses a real socket; the
  run must report *bit-identical answers* and *identical message/object
  counters* to the in-process run, plus the thing only a transport can
  measure: bytes, where **measured ≡ codec-predicted** must hold exactly
  (client-side measurement, codec arithmetic, and the engine's byte
  counters all agree).

The wall clocks are reported honestly, with no hidden caps: loopback TCP
pays one round trip per exchange on top of the serving work.  The ratio
is the data; the run fails only on correctness, never on speed.

Run standalone (``python benchmarks/bench_pr5_transport.py``, add
``--smoke`` for a tiny-N sanity run) or via pytest
(``pytest benchmarks/bench_pr5_transport.py``).
"""

import argparse
import json
import os
import pathlib

from repro.simulation.server_sim import simulate_server
from repro.simulation.report import format_table
from repro.workloads.scenarios import ChurnSpec, euclidean_server_scenario

from benchmarks.conftest import emit_table

QUERIES = 64
OBJECT_COUNT = 2_000
K = 8
UPDATE_EPOCHS = 200
#: One mixed batch per timestamp: 1 insert, 1 delete, 1 move.
CHURN = ChurnSpec(interval=1, inserts=1, deletes=1, moves=1)
STEP_LENGTH = 20.0

SMOKE_QUERIES = 6
SMOKE_OBJECT_COUNT = 150
SMOKE_UPDATE_EPOCHS = 12

#: Where the machine-readable result lands (committed with the PR so the
#: perf trajectory accumulates release over release).
RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR5.json"

COUNTER_FIELDS = (
    "uplink_messages",
    "uplink_objects",
    "downlink_messages",
    "downlink_objects",
)


def build_scenario(smoke: bool = False):
    """The PR3/PR4-sized benchmark workload (update epochs = timestamps - 1)."""
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


def run_benchmark(smoke: bool = False):
    """Drive the same stream in-process and over loopback TCP.

    Returns ``(rows, checks)`` where ``checks`` carries the equivalence
    and byte-reconciliation verdicts.
    """
    scenario = build_scenario(smoke=smoke)
    runs = {
        "in-process": simulate_server(scenario),
        "loopback-tcp": simulate_server(scenario, transport="tcp"),
    }
    baseline_name = "in-process"
    baseline = runs[baseline_name]
    rows = []
    for name, run in runs.items():
        comm = run.communication
        rows.append(
            {
                "transport": name,
                "queries": scenario.query_count,
                "n": len(scenario.points),
                "updates": run.epochs,
                "wall_s": round(run.elapsed_seconds, 3),
                "messages": comm.messages,
                "objects": comm.objects_transmitted,
                "wire_bytes": comm.bytes_transmitted,
                "retrievals": run.aggregate.full_recomputations,
            }
        )
    tcp = runs["loopback-tcp"]
    checks = {
        "answers_bit_identical": all(
            answer_stream(run) == answer_stream(baseline) for run in runs.values()
        ),
        "message_object_counters_identical": all(
            counters(run) == counters(baseline) for run in runs.values()
        ),
        "tcp_measured_bytes_match_codec_prediction": (
            tcp.wire_bytes_sent == tcp.wire_bytes_predicted_sent
            and tcp.wire_bytes_received == tcp.wire_bytes_predicted_received
        ),
        "tcp_engine_bytes_match_client_measurement": (
            tcp.communication.uplink_bytes == tcp.wire_bytes_sent
            and tcp.communication.downlink_bytes == tcp.wire_bytes_received
        ),
    }
    return rows, checks


def write_result(rows, checks) -> None:
    by_transport = {row["transport"]: row for row in rows}
    names = list(by_transport)
    base = by_transport[names[0]]
    tcp = by_transport[names[1]]
    RESULT_PATH.write_text(
        json.dumps(
            {
                "bench": "pr5_transport",
                "cpu_count": os.cpu_count(),
                "n": OBJECT_COUNT,
                "queries": QUERIES,
                "k": K,
                "updates": base["updates"],
                "messages": base["messages"],
                "objects_transmitted": base["objects"],
                "inprocess_wall_seconds": base["wall_s"],
                "loopback_tcp_wall_seconds": tcp["wall_s"],
                "loopback_tcp_wire_bytes": tcp["wire_bytes"],
                "loopback_tcp_wall_ratio": round(tcp["wall_s"] / base["wall_s"], 2),
                **checks,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def test_pr5_transport(run_once):
    rows, checks = run_once(run_benchmark)
    assert checks["answers_bit_identical"], "a transport changed an answer"
    assert checks["message_object_counters_identical"], "a transport changed the bill"
    assert checks["tcp_measured_bytes_match_codec_prediction"], (
        "measured wire bytes diverged from the codec's wire_size predictions"
    )
    assert checks["tcp_engine_bytes_match_client_measurement"], (
        "engine byte counters diverged from the client's measurement"
    )
    write_result(rows, checks)
    emit_table(
        "PR5_transport",
        format_table(
            rows,
            title=(
                f"PR5: in-process vs loopback TCP "
                f"(M={QUERIES} sessions, n={OBJECT_COUNT}, k={K}, "
                f"{UPDATE_EPOCHS} update epochs)"
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
    for name, passed in checks.items():
        print(f"{name}: {passed}")
    if not all(checks.values()):
        raise SystemExit(1)
    if not args.smoke:
        write_result(rows, checks)
        print(f"written to {RESULT_PATH.name}")


if __name__ == "__main__":
    main()
