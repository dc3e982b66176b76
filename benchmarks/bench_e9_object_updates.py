"""E9 — data-object updates (insertions and deletions).

Section III's closing remark: "If there are data object updates, we also
update the kNN set and the IS according to the data object updates."  This
experiment drives the INS processor and the naive baseline over the same
trajectory while a stream of insertions and deletions modifies the data set
(1 object inserted every 10 timestamps, 1 deleted every 15), and checks that

* every INS answer remains exactly correct against a brute-force oracle over
  the *current* object population, and
* INS still needs far fewer full recomputations than the naive method even
  though every update batch forces it to refresh its guard structures.
"""

import random

from repro.baselines import NaiveProcessor
from repro.core.ins_euclidean import INSProcessor
from repro.geometry.point import Point
from repro.simulation.report import format_table
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.workloads.datasets import data_space, uniform_points

from benchmarks.conftest import emit_table

OBJECT_COUNT = 2_000
K = 8
STEPS = 300
INSERT_EVERY = 10
DELETE_EVERY = 15


def run_dynamic():
    points = uniform_points(OBJECT_COUNT, extent=10_000.0, seed=91)
    trajectory = random_waypoint_trajectory(
        data_space(), steps=STEPS, step_length=40.0, seed=92
    )
    rng = random.Random(93)

    ins = INSProcessor(list(points), K, rho=1.6)
    naive = NaiveProcessor(list(points), K)

    active = {i: p for i, p in enumerate(points)}
    ins.initialize(trajectory[0])
    naive.initialize(trajectory[0])

    ins_wrong = 0
    inserts = 0
    deletes = 0
    for step, position in enumerate(trajectory[1:], start=1):
        if step % INSERT_EVERY == 0:
            new_point = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            new_index = ins.insert_object(new_point)
            naive.rtree.insert(new_point, new_index)
            active[new_index] = new_point
            inserts += 1
        if step % DELETE_EVERY == 0:
            victim = rng.choice(sorted(active))
            if ins.delete_object(victim):
                naive.rtree.delete(active[victim], victim)
                del active[victim]
                deletes += 1
        result = ins.update(position)
        naive.update(position)
        distances = {i: position.distance_to(p) for i, p in active.items()}
        kth = sorted(distances.values())[K - 1]
        if any(distances[i] > kth + 1e-9 * max(kth, 1.0) for i in result.knn):
            ins_wrong += 1

    rows = []
    for name, processor in (("INS", ins), ("Naive", naive)):
        stats = processor.stats
        rows.append(
            {
                "method": name,
                "timestamps": STEPS + 1,
                "inserts": inserts,
                "deletes": deletes,
                "full_recomputations": stats.full_recomputations,
                "objects_sent": stats.transmitted_objects,
                "elapsed_construct_s": round(stats.construction_seconds, 3),
                "wrong_answers": ins_wrong if name == "INS" else 0,
            }
        )
    return rows


def test_e9_object_updates(run_once):
    rows = run_once(run_dynamic)
    emit_table(
        "E9_object_updates",
        format_table(
            rows,
            title=f"E9: data-object updates (n={OBJECT_COUNT}, k={K}, {STEPS} steps, "
            f"insert every {INSERT_EVERY}, delete every {DELETE_EVERY})",
        ),
    )
    by_method = {row["method"]: row for row in rows}
    assert by_method["INS"]["wrong_answers"] == 0
    assert (
        by_method["INS"]["full_recomputations"]
        < by_method["Naive"]["full_recomputations"]
    )
