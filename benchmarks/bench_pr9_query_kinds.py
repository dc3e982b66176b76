"""PR9 — beyond kNN: pricing the continuous-query subsystem.

PR 9 generalises the serving stack from one hard-coded query kind to a
registry (:mod:`repro.queries`): continuous influential-sites monitoring
and continuous order-k region monitoring ride the same sessions, wire
frames and WAL as the classic INS moving-kNN query.  This
benchmark prices the two claims that make the subsystem worth shipping:

* **Delta invalidation carries over.**  For every kind, the engine's
  repair deltas must let the processor absorb churn that provably cannot
  change its answer — and the lazy delta mode must stay bit-identical to
  the blanket ``invalidation="flag"`` oracle while recomputing no more
  often than it.  The matrix leg drives each kind separately under both
  modes (M sessions, seeded walks, one insert + one move every other
  epoch) and reports recomputes / absorptions / wall clock per cell.

* **The wire is kind-blind.**  The mixed leg opens one session of each
  kind on the same service and replays an identical workload in-process
  and over a loopback TCP socket; both paths must report bit-identical
  answers (members, distances, influential sites, region events).

Wall clocks are reported, never asserted (repo benchmark convention);
the gates are the correctness and absorption claims.  Run standalone
(``python benchmarks/bench_pr9_query_kinds.py``, add ``--smoke`` for a
tiny-N sanity run) or via pytest
(``pytest benchmarks/bench_pr9_query_kinds.py``).
"""

import argparse
import json
import os
import pathlib
import random
import time

from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.service import KNNService, UpdateBatch, open_service
from repro.simulation.report import format_table
from repro.transport import KNNServer, connect
from repro.workloads.datasets import uniform_points

from benchmarks.conftest import emit_table

OBJECT_COUNT = 1_200
SESSIONS = 8
K = 4
STEPS = 100
DATA_SEED = 61
WALK_SEED = 67
STEP_LENGTH = 12.0
SPAN = 1_000.0

SMOKE_OBJECT_COUNT = 120
SMOKE_SESSIONS = 2
SMOKE_STEPS = 10

#: The mixed transport leg is small by design: it is a correctness gate,
#: not a timing cell.
MIXED_STEPS = 12
SMOKE_MIXED_STEPS = 6

KINDS = ("knn", "influential", "region")

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PR9.json"


def data_objects(smoke: bool):
    count = SMOKE_OBJECT_COUNT if smoke else OBJECT_COUNT
    return uniform_points(count, extent=SPAN, seed=DATA_SEED)


def step_walk(rng, position):
    """One bounded random-walk step (local motion: safe regions matter)."""
    return Point(
        min(SPAN, max(0.0, position.x + rng.uniform(-STEP_LENGTH, STEP_LENGTH))),
        min(SPAN, max(0.0, position.y + rng.uniform(-STEP_LENGTH, STEP_LENGTH))),
    )


def canonical(kind, response):
    """A response reduced to its comparable payload.

    kNN and influential answers rank members by the *held* guard order,
    which legitimately differs between a run that absorbed a delta and a
    run that recomputed — so those members compare as sets (plus sorted
    distances).  Region answers re-rank on every timestamp, so their
    tuples (and events) compare exactly.
    """
    result = response.result
    if kind == "region":
        return (
            kind,
            tuple(result.knn),
            tuple(result.knn_distances),
            response.event,
            response.departed,
        )
    record = (
        kind,
        frozenset(result.knn),
        tuple(sorted(result.knn_distances)),
    )
    if kind == "influential":
        return record + (response.sites,)
    return record


def drive_kind(kind, invalidation, smoke: bool):
    """Drive M sessions of one kind under one invalidation mode.

    Returns ``(answers, row)`` — the canonical answer stream (the
    flag-mode twin must reproduce it bit for bit) and the reporting row.
    """
    sessions_count = SMOKE_SESSIONS if smoke else SESSIONS
    steps = SMOKE_STEPS if smoke else STEPS
    objects = data_objects(smoke)
    service = KNNService(MovingKNNServer(objects, invalidation=invalidation))
    rng = random.Random(WALK_SEED)
    sessions = []
    positions = {}
    for _ in range(sessions_count):
        start = Point(rng.uniform(0, SPAN), rng.uniform(0, SPAN))
        session = service.open_query(start, kind=kind, k=K)
        sessions.append(session)
        positions[session.query_id] = start
    movable = list(range(len(objects)))
    answers = []
    started = time.perf_counter()
    for step in range(steps):
        for session in sessions:
            position = step_walk(rng, positions[session.query_id])
            positions[session.query_id] = position
            answers.append(canonical(kind, session.update(position)))
        if step % 2 == 1:
            mover = movable.pop(rng.randrange(len(movable)))
            service.apply(
                UpdateBatch(
                    inserts=(Point(rng.uniform(0, SPAN), rng.uniform(0, SPAN)),),
                    moves=(
                        (mover, Point(rng.uniform(0, SPAN), rng.uniform(0, SPAN))),
                    ),
                )
            )
    elapsed = time.perf_counter() - started
    recomputes = absorbed = validations = 0
    for session in sessions:
        stats = service.engine.stats_for(session.query_id)
        recomputes += stats.full_recomputations
        absorbed += stats.absorbed_updates
        validations += stats.validations
    downlink_objects = service.engine.communication.downlink_objects
    service.close()
    row = {
        "kind": kind,
        "invalidation": invalidation,
        "wall_s": round(elapsed, 3),
        "recomputes": recomputes,
        "absorbed": absorbed,
        "validations": validations,
        "downlink_objects": downlink_objects,
    }
    return answers, row


def drive_mixed(opener, applier, steps, object_count):
    """One session per kind on one service, identical seeded workload."""
    rng = random.Random(WALK_SEED + 1)
    sessions = [(kind, opener(Point(SPAN / 2, SPAN / 2), kind=kind, k=3)) for kind in KINDS]
    movable = list(range(object_count))
    positions = {kind: Point(SPAN / 2, SPAN / 2) for kind in KINDS}
    records = []
    for step in range(steps):
        for kind, session in sessions:
            position = step_walk(rng, positions[kind])
            positions[kind] = position
            records.append(canonical(kind, session.update(position)))
        if step % 3 == 2:
            mover = movable.pop(rng.randrange(len(movable)))
            applier(
                UpdateBatch(
                    inserts=(Point(rng.uniform(0, SPAN), rng.uniform(0, SPAN)),),
                    moves=(
                        (mover, Point(rng.uniform(0, SPAN), rng.uniform(0, SPAN))),
                    ),
                )
            )
    return records


def mixed_transport_records(smoke: bool):
    """The mixed workload replayed over every serving path."""
    steps = SMOKE_MIXED_STEPS if smoke else MIXED_STEPS
    objects = data_objects(smoke)

    service = open_service(metric="euclidean", objects=objects)
    in_process = drive_mixed(service.open_query, service.apply, steps, len(objects))
    service.close()

    tcp_service = open_service(metric="euclidean", objects=objects)
    with KNNServer(tcp_service) as server:
        with connect(server.address) as remote:
            over_tcp = drive_mixed(
                remote.open_query, remote.apply, steps, len(objects)
            )

    return {"in_process": in_process, "tcp": over_tcp}


def run_benchmark(smoke: bool = False):
    """The kind × invalidation matrix plus the mixed transport gate.

    Returns ``(rows, checks)``: one row per matrix cell, and the PR's
    acceptance verdicts.
    """
    rows = []
    streams = {}
    by_cell = {}
    for kind in KINDS:
        for invalidation in ("delta", "flag"):
            answers, row = drive_kind(kind, invalidation, smoke)
            streams[(kind, invalidation)] = answers
            by_cell[(kind, invalidation)] = row
            rows.append(row)

    flag_delta_identical = all(
        streams[(kind, "delta")] == streams[(kind, "flag")] for kind in KINDS
    )
    every_kind_absorbs = all(
        by_cell[(kind, "delta")]["absorbed"] > 0 for kind in KINDS
    )
    delta_never_recomputes_more = all(
        by_cell[(kind, "delta")]["recomputes"]
        <= by_cell[(kind, "flag")]["recomputes"]
        for kind in KINDS
    )

    mixed = mixed_transport_records(smoke)
    mixed_identical = mixed["tcp"] == mixed["in_process"]

    checks = {
        "flag_delta_bit_identical": flag_delta_identical,
        "mixed_paths_bit_identical": mixed_identical,
        "every_kind_absorbs": every_kind_absorbs,
        "delta_never_recomputes_more": delta_never_recomputes_more,
        "region_recompute_ratio": round(
            by_cell[("region", "delta")]["recomputes"]
            / max(by_cell[("knn", "delta")]["recomputes"], 1),
            3,
        ),
    }
    return rows, checks


#: Gated on correctness and absorption; wall clocks are reported only.
CHECK_NAMES = (
    "flag_delta_bit_identical",
    "mixed_paths_bit_identical",
    "every_kind_absorbs",
    "delta_never_recomputes_more",
)

#: Smoke runs assert correctness only: a 10-step stream barely churns, so
#: per-kind absorption counts carry no signal at tiny N.
SMOKE_CHECK_NAMES = (
    "flag_delta_bit_identical",
    "mixed_paths_bit_identical",
)


def write_result(rows, checks) -> None:
    by_cell = {(row["kind"], row["invalidation"]): row for row in rows}
    RESULT_PATH.write_text(
        json.dumps(
            {
                "bench": "pr9_query_kinds",
                "cpu_count": os.cpu_count(),
                "n": OBJECT_COUNT,
                "sessions_per_kind": SESSIONS,
                "k": K,
                "steps": STEPS,
                "cells": rows,
                "knn_delta_wall_seconds": by_cell[("knn", "delta")]["wall_s"],
                "influential_delta_wall_seconds": by_cell[
                    ("influential", "delta")
                ]["wall_s"],
                "region_delta_wall_seconds": by_cell[("region", "delta")][
                    "wall_s"
                ],
                **checks,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


def test_pr9_query_kinds(run_once):
    rows, checks = run_once(run_benchmark)
    for name in CHECK_NAMES:
        assert checks[name], name
    write_result(rows, checks)
    emit_table(
        "PR9_query_kinds",
        format_table(
            rows,
            title=(
                f"PR9: continuous query kinds "
                f"(M={SESSIONS} sessions/kind, n={OBJECT_COUNT}, k={K}, "
                f"{STEPS} steps)"
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
