"""Tier-1 smoke tests for the paper sweep (``benchmarks/paper.py``).

``--smoke`` runs E5 and F3 at tiny sizes with every non-timing check, and a
few cheap experiments rerun at full size must reproduce their committed
``PAPER_TABLE.json`` rows counter for counter — the full sweep (about a
minute) is CI's own step, which diffs the whole table.
"""

import json
import pathlib
import sys

# The benchmarks package lives at the repository root, next to tests/.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks import paper


class TestPaperSweepSmoke:
    def test_smoke_runs_e5_and_f3_and_every_check_passes(self, capsys):
        before = paper.TABLE.read_bytes()
        assert paper.main(["--smoke"]) == 0
        assert paper.TABLE.read_bytes() == before  # --smoke writes nothing
        out = capsys.readouterr().out
        for method in ("INS-road", "V*-road", "Naive-road"):
            assert f"grid8x8 k=4  {method}" in out
        assert "E5.comm_order_ins_vstar_naive" in out
        assert "F3.knn_changes_but_few_recomputations" in out
        assert "False" not in out

    def test_cheap_experiments_reproduce_the_committed_table(self):
        names = ("E5", "E8", "F3", "F4")
        rows = paper.sweep({name: paper.EXPERIMENTS[name] for name in names})
        fresh = [{column: row[column] for column in paper.KEYS + paper.COUNTERS} for row in rows]
        committed = json.loads(paper.TABLE.read_text(encoding="utf-8"))
        assert fresh == [row for row in committed if row["experiment"] in names]

    def test_committed_table_passes_every_counter_check(self):
        committed = json.loads(paper.TABLE.read_text(encoding="utf-8"))
        assert {row["experiment"] for row in committed} == set(paper.EXPERIMENTS)
        results = paper.check(committed, timing=False)
        assert len(results) == sum(1 for check in paper.CHECKS if not check[2])
        assert all(results.values()), [name for name, ok in results.items() if not ok]
