"""Tier-1 smoke test for the PR9 continuous-query-kinds benchmark.

Same rationale as the other benchmark smoke tests: the benchmark modules
are only collected when invoked explicitly, so this drives the ``--smoke``
tiny-N mode inside the default ``pytest -x -q`` run — a regression on the
query-kind registry, a new processor, or the kind-blind wire path fails
tier-1 immediately instead of waiting for somebody to run the benchmark
by hand.

Timing assertions are deliberately absent (tiny-N wall clocks are noise);
the smoke run asserts the structural invariants: the full kind ×
invalidation matrix is present, both modes of every kind report the same
answer stream bit for bit, and the mixed in-process / TCP
replay agrees everywhere.
"""

import pathlib
import sys

# The benchmarks package lives at the repository root, next to tests/.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks.bench_pr9_query_kinds import (
    KINDS,
    SMOKE_CHECK_NAMES,
    run_benchmark as query_kinds_benchmark,
)


class TestQueryKindsBenchmarkSmoke:
    def test_pr9_query_kinds_smoke_matrix(self):
        rows, checks = query_kinds_benchmark(smoke=True)
        for name in SMOKE_CHECK_NAMES:
            assert checks[name], name
        by_cell = {(row["kind"], row["invalidation"]): row for row in rows}
        assert set(by_cell) == {
            (kind, invalidation)
            for kind in KINDS
            for invalidation in ("delta", "flag")
        }
        for row in rows:
            assert row["recomputes"] > 0, row
            # The blanket oracle never absorbs — that is what makes it the
            # oracle; the delta column's absorptions are asserted at full
            # N only (tiny smoke streams may legitimately absorb nothing).
            if row["invalidation"] == "flag":
                assert row["absorbed"] == 0, row
