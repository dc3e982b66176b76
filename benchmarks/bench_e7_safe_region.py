"""E7 — the maximal-safe-region claim.

The paper argues that the region implicitly defined by the INS guard
objects *is* the order-k Voronoi cell — the largest possible safe region —
so the INS recomputes only when the strict safe-region method would, i.e.
when the kNN set genuinely changes.  This benchmark verifies that claim
empirically: along shared trajectories, the number of timestamps at which
the INS guard check fails matches the number of timestamps at which the
query leaves the exact order-k cell (equivalently, at which the true kNN
set changes), and never exceeds it by more than the discretisation slack.
"""

from repro.core.ins_euclidean import INSProcessor
from repro.baselines import OrderKSafeRegionProcessor
from repro.simulation.report import format_table
from repro.simulation.simulator import simulate
from repro.workloads.scenarios import default_euclidean_scenario

from benchmarks.conftest import emit_table

CONFIGURATIONS = (
    {"object_count": 1_000, "k": 4, "seed": 71},
    {"object_count": 2_000, "k": 8, "seed": 72},
    {"object_count": 3_000, "k": 16, "seed": 73},
)
STEPS = 200


def sweep():
    rows = []
    for configuration in CONFIGURATIONS:
        scenario = default_euclidean_scenario(
            object_count=configuration["object_count"],
            k=configuration["k"],
            rho=1.0,  # rho = 1 isolates the safe-region effect from prefetching
            steps=STEPS,
            step_length=30.0,
            seed=configuration["seed"],
        )
        ins = INSProcessor(scenario.points, scenario.k, rho=1.0)
        strict = OrderKSafeRegionProcessor(scenario.points, scenario.k)
        ins_run = simulate(ins, scenario.trajectory)
        strict_run = simulate(strict, scenario.trajectory)
        rows.append(
            {
                "n": configuration["object_count"],
                "k": configuration["k"],
                "knn_changes": strict_run.knn_changes,
                "ins_invalidations": ins_run.invalid_timestamps,
                "orderk_exits": strict_run.invalid_timestamps,
                "ins_recomputations": ins_run.stats.full_recomputations,
                "orderk_recomputations": strict_run.stats.full_recomputations,
                "ins_elapsed_s": round(ins_run.elapsed_seconds, 3),
                "orderk_elapsed_s": round(strict_run.elapsed_seconds, 3),
            }
        )
    return rows


def test_e7_safe_region_maximality(run_once):
    rows = run_once(sweep)
    emit_table(
        "E7_safe_region",
        format_table(
            rows,
            title="E7: INS guard failures vs exact order-k cell exits (rho = 1)",
        ),
    )
    for row in rows:
        # The INS guard fails exactly when the query leaves the order-k cell
        # (up to the discretisation of the trajectory into timestamps).
        assert row["ins_invalidations"] == row["orderk_exits"]
        # With rho = 1 there is no prefetch buffer, so every invalidation is
        # a recomputation for both methods.
        assert row["ins_recomputations"] == row["orderk_recomputations"]
        # INS achieves this with far less end-to-end time than building the
        # exact polygon after every change.
        assert row["ins_elapsed_s"] <= row["orderk_elapsed_s"]
