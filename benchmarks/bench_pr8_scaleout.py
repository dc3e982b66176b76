"""PR8 — scale-out for real: maintenance-leader delta shipping.

Before this PR, ``transport="process"`` bought query parallelism by
broadcasting every update batch to all W shard workers, each of which
re-ran the full index-maintenance geometry — W shards paid W× the upkeep
of one, so adding workers made the update path *slower*.  PR 8 elects
shard 0 maintenance leader: it alone applies each
:class:`~repro.service.messages.UpdateBatch`, exports the resulting
repair delta as an :class:`~repro.transport.codec.IndexDelta` frame, and
the dispatcher fans the delta out to the read replicas, which patch
their live indexes directly (``replication="delta"``).

This benchmark prices the claim on the PR6/PR7 headline stream — M = 64
concurrent k = 8 sessions over n = 2000 uniform objects, 200 mixed
update epochs — across a worker-scaling matrix (1, 2, 4 shard workers ×
``recompute``/``delta``) and writes ``BENCH_PR8.json`` at the repository
root:

* every cell must report **bit-identical answers** and identical
  message/object counters (aggregate and per session) to the
  single-worker reference — replication mode is a performance knob, not
  a semantics knob;
* the per-run maintenance split is reported: ``maint_s`` is wall-clock
  spent re-running geometry (summed over every recomputing shard),
  ``apply_s`` wall-clock spent patching replicas from shipped deltas, and
  ``maint_ops`` counts the index repairs every shard ran (the observations
  of the shards' merged ``insq_maintenance_seconds`` histogram) — a
  recompute run's is W times a delta run's, whose replicas run none;
* the acceptance gate: at 4 workers, delta shipping must at least halve
  the recompute run's *total maintenance bill* (``maint+apply``), and
  the delta run's end-to-end wall clock must beat the recompute run's.

The reference stream is query-dominated (64 sessions against one mixed
batch per epoch), so on the 1-CPU bench container cutting the upkeep
bill ~5× only trims the end-to-end wall ~15%.  A second *update-heavy*
leg (4 sessions, 8 inserts + 8 deletes + 8 moves per epoch — maintenance
is the wall) prices the headline claim directly: there the 4-worker
delta run must at least halve the recompute run's wall clock.  The
remaining delta-side cost is structural R-tree mirroring, which replicas
must replay move-for-move to stay bit-identical — only the repeated
Delaunay/Voronoi geometry is eliminated.

The wall clocks are honest — every cell really forks worker processes
and really streams the updates; nothing is mocked.  Run standalone
(``python benchmarks/bench_pr8_scaleout.py``, add ``--smoke`` for a
tiny-N sanity run) or via pytest (``pytest benchmarks/bench_pr8_scaleout.py``).
"""

import argparse
import json
import os
import pathlib

from repro.obs import REGISTRY
from repro.simulation.report import format_table
from repro.simulation.server_sim import simulate_server
from repro.workloads.scenarios import ChurnSpec, euclidean_server_scenario

from benchmarks.conftest import emit_table

QUERIES = 64
OBJECT_COUNT = 2_000
K = 8
UPDATE_EPOCHS = 200
#: One mixed batch per timestamp: 1 insert, 1 delete, 1 move.
CHURN = ChurnSpec(interval=1, inserts=1, deletes=1, moves=1)
STEP_LENGTH = 20.0
WORKER_COUNTS = (1, 2, 4)

#: The update-heavy leg: few sessions, heavy churn — maintenance is the
#: wall, so the leader/replica split shows up end to end.
HEAVY_QUERIES = 4
HEAVY_CHURN = ChurnSpec(interval=1, inserts=8, deletes=8, moves=8)

SMOKE_QUERIES = 6
SMOKE_OBJECT_COUNT = 150
SMOKE_UPDATE_EPOCHS = 12
SMOKE_WORKER_COUNTS = (1, 2)

#: Where the machine-readable result lands (committed with the PR so the
#: perf trajectory accumulates release over release).
RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR8.json"

COUNTER_FIELDS = (
    "uplink_messages",
    "uplink_objects",
    "downlink_messages",
    "downlink_objects",
)


def build_scenario(smoke: bool = False, heavy: bool = False):
    """The headline benchmark workload (update epochs = timestamps - 1)."""
    return euclidean_server_scenario(
        data="uniform",
        churn=HEAVY_CHURN if heavy else CHURN,
        queries=(
            HEAVY_QUERIES if heavy else SMOKE_QUERIES if smoke else QUERIES
        ),
        object_count=SMOKE_OBJECT_COUNT if smoke else OBJECT_COUNT,
        k=3 if smoke else K,
        steps=(SMOKE_UPDATE_EPOCHS if smoke else UPDATE_EPOCHS),
        step_length=STEP_LENGTH,
        seed=73,
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
    """Per-session message/object counters (bytes are transport-shaped)."""
    return {
        query_id: {
            field: value
            for field, value in stats.as_dict().items()
            if "bytes" not in field
        }
        for query_id, stats in run.per_session_communication.items()
    }


def _maintenance_count(snapshot) -> int:
    """Observations of ``insq_maintenance_seconds``: one per index repair."""
    return sum(
        sum(buckets)
        for name, _, buckets, _ in snapshot.histograms
        if name == "insq_maintenance_seconds"
    )


def _serve(scenario, workers, replication):
    """One sharded run, and the index repairs its shards ran."""
    counted = {}

    def hook(pool):
        # Read before teardown; the parent's own registry joins the
        # pool's merge, so it is taken back out.
        return lambda: counted.update(maint_ops=(
            _maintenance_count(pool.metrics_snapshot())
            - _maintenance_count(REGISTRY.snapshot())
        ))

    run = simulate_server(
        scenario,
        transport="process",
        workers=workers,
        replication=replication,
        serving_hook=hook,
    )
    return run, counted["maint_ops"]


def run_benchmark(smoke: bool = False):
    """Sweep the worker × replication matrix over the headline stream.

    Returns ``(rows, checks)``: one row per matrix cell, and the PR's
    acceptance verdicts (equivalence everywhere, the 4-worker delta run
    at least halving the recompute run's maintenance bill).
    """
    scenario = build_scenario(smoke=smoke)
    worker_counts = SMOKE_WORKER_COUNTS if smoke else WORKER_COUNTS
    top = max(worker_counts)

    runs, maint_ops = {}, {}
    for workers in worker_counts:
        for replication in ("recompute", "delta"):
            if workers == 1 and replication == "delta":
                continue  # one shard has nobody to ship to
            cell = ("reference", workers, replication)
            runs[(workers, replication)], maint_ops[cell] = _serve(
                scenario, workers, replication
            )

    heavy_scenario = build_scenario(smoke=smoke, heavy=True)
    heavy = {}
    for replication in ("recompute", "delta"):
        heavy[replication], maint_ops[("update-heavy", top, replication)] = _serve(
            heavy_scenario, top, replication
        )

    reference = runs[(worker_counts[0], "recompute")]
    equivalent = all(
        answer_stream(run) == answer_stream(reference)
        and counters(run) == counters(reference)
        and per_session(run) == per_session(reference)
        for run in runs.values()
    )
    heavy_equivalent = (
        answer_stream(heavy["delta"]) == answer_stream(heavy["recompute"])
        and counters(heavy["delta"]) == counters(heavy["recompute"])
        and per_session(heavy["delta"]) == per_session(heavy["recompute"])
    )

    rows = []
    cells = [
        ("reference", workers, replication, run)
        for (workers, replication), run in sorted(runs.items())
    ] + [
        ("update-heavy", top, replication, heavy[replication])
        for replication in ("recompute", "delta")
    ]
    for leg, workers, replication, run in cells:
        stats = run.aggregate
        maint, apply_s = stats.maintenance_seconds, stats.delta_apply_seconds
        rows.append(
            {
                "leg": leg,
                "workers": workers,
                "replication": replication,
                "wall_s": round(run.elapsed_seconds, 3),
                "maint_s": round(maint, 3),
                "apply_s": round(apply_s, 3),
                "upkeep_s": round(maint + apply_s, 3),
                "maint_ops": maint_ops[(leg, workers, replication)],
            }
        )

    recompute_top = runs[(top, "recompute")]
    delta_top = runs[(top, "delta")]
    recompute_upkeep = (
        recompute_top.aggregate.maintenance_seconds
        + recompute_top.aggregate.delta_apply_seconds
    )
    delta_upkeep = (
        delta_top.aggregate.maintenance_seconds
        + delta_top.aggregate.delta_apply_seconds
    )
    checks = {
        "all_cells_bit_identical": equivalent and heavy_equivalent,
        # Unrounded: patching a tiny replica can take well under a millisecond.
        "delta_apply_s": delta_top.aggregate.delta_apply_seconds,
        "delta_at_least_halves_upkeep": delta_upkeep * 2 <= recompute_upkeep,
        "delta_wall_beats_recompute": (
            delta_top.elapsed_seconds < recompute_top.elapsed_seconds
        ),
        "upkeep_speedup": round(recompute_upkeep / max(delta_upkeep, 1e-9), 1),
        "wall_ratio": round(
            delta_top.elapsed_seconds / recompute_top.elapsed_seconds, 3
        ),
        "update_heavy_wall_ratio": round(
            heavy["delta"].elapsed_seconds
            / heavy["recompute"].elapsed_seconds,
            3,
        ),
        "update_heavy_wall_halved": (
            heavy["delta"].elapsed_seconds * 2
            <= heavy["recompute"].elapsed_seconds
        ),
    }
    return rows, checks


#: Gated on correctness and the structural upkeep floor; the wall-clock
#: ratios are reported, never asserted (repo benchmark convention).
CHECK_NAMES = (
    "all_cells_bit_identical",
    "delta_at_least_halves_upkeep",
    "delta_wall_beats_recompute",
)

#: Smoke runs assert correctness only: a 12-epoch stream over 2 forked
#: workers is all fork latency, so its timings carry no signal.
SMOKE_CHECK_NAMES = ("all_cells_bit_identical",)


def write_result(rows, checks) -> None:
    top = max(WORKER_COUNTS)
    by_cell = {
        (row["leg"], row["workers"], row["replication"]): row for row in rows
    }
    reference_recompute = by_cell[("reference", top, "recompute")]
    reference_delta = by_cell[("reference", top, "delta")]
    RESULT_PATH.write_text(
        json.dumps(
            {
                "bench": "pr8_scaleout",
                "cpu_count": os.cpu_count(),
                "n": OBJECT_COUNT,
                "queries": QUERIES,
                "k": K,
                "updates": UPDATE_EPOCHS,
                "worker_counts": list(WORKER_COUNTS),
                "cells": rows,
                "recompute_top_wall_seconds": reference_recompute["wall_s"],
                "delta_top_wall_seconds": reference_delta["wall_s"],
                "recompute_top_upkeep_seconds": reference_recompute["upkeep_s"],
                "delta_top_upkeep_seconds": reference_delta["upkeep_s"],
                "update_heavy_recompute_wall_seconds": by_cell[
                    ("update-heavy", top, "recompute")
                ]["wall_s"],
                "update_heavy_delta_wall_seconds": by_cell[
                    ("update-heavy", top, "delta")
                ]["wall_s"],
                **checks,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def test_pr8_scaleout(run_once):
    rows, checks = run_once(run_benchmark)
    for name in CHECK_NAMES:
        assert checks[name], name
    write_result(rows, checks)
    emit_table(
        "PR8_scaleout",
        format_table(
            rows,
            title=(
                f"PR8: maintenance-leader delta shipping "
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
    for name, value in checks.items():
        print(f"{name}: {value}")
    names = SMOKE_CHECK_NAMES if args.smoke else CHECK_NAMES
    if not all(checks[name] for name in names):
        raise SystemExit(1)
    if not args.smoke:
        write_result(rows, checks)
        print(f"written to {RESULT_PATH.name}")


if __name__ == "__main__":
    main()
