"""Tier-1 smoke test for the PR8 scale-out benchmark.

Same rationale as the other benchmark smoke tests: the benchmark modules
are only collected when invoked explicitly, so this drives the ``--smoke``
tiny-N mode inside the default ``pytest -x -q`` run — a regression on the
delta-replication path (leader election, IndexDelta fan-out, replica
patching) fails tier-1 immediately instead of waiting for somebody to run
the benchmark by hand.

Timing assertions are deliberately absent: a 12-epoch stream over freshly
forked workers is all fork latency, so tiny-N wall clocks are noise.  The
smoke run asserts structural invariants only: every matrix cell is
bit-identical to the single-worker reference, the recompute cells report
no delta-apply time, and the delta cells really shipped — their replicas
patched and ran no index repair, so the shards' merged count of repairs
(``maint_ops``) is the recompute cell's divided by the worker count.
"""

import pathlib
import sys

# The benchmarks package lives at the repository root, next to tests/.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks.bench_pr8_scaleout import (
    SMOKE_CHECK_NAMES,
    SMOKE_WORKER_COUNTS,
    run_benchmark as scaleout_benchmark,
)


class TestScaleoutBenchmarkSmoke:
    def test_pr8_scaleout_smoke_equivalence_matrix(self):
        rows, checks = scaleout_benchmark(smoke=True)
        for name in SMOKE_CHECK_NAMES:
            assert checks[name], name
        by_cell = {
            (row["leg"], row["workers"], row["replication"]): row for row in rows
        }
        top = max(SMOKE_WORKER_COUNTS)
        assert ("reference", 1, "recompute") in by_cell
        assert ("reference", top, "delta") in by_cell
        assert ("update-heavy", top, "recompute") in by_cell
        assert ("update-heavy", top, "delta") in by_cell
        for cell, row in by_cell.items():
            if cell[2] == "recompute":
                assert row["apply_s"] == 0.0
        # The delta cells really shipped: replicas patched, nothing more.
        assert checks["delta_apply_s"] > 0.0
        # Only the leader repaired the index; every recomputing shard did.
        for leg in ("reference", "update-heavy"):
            repairs = by_cell[(leg, top, "delta")]["maint_ops"]
            assert repairs > 0
            assert by_cell[(leg, top, "recompute")]["maint_ops"] == top * repairs
