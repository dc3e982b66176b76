"""The benchmark's own smoke test (collected by the repository's root pytest).

Drives ``bench/run.py --smoke``: all five workloads at tiny sizes, one
repetition each way, the oracle on every answer.  It asserts correctness and
names only — never a time — and fails when what the harness prints drifts
from what ``BENCHMARK.json`` declares.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(*arguments):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_smoke_runs_every_workload_and_prints_the_declared_names():
    declared = _declared()
    finished = _run("--smoke", "--seed", "72")
    assert finished.returncode == 0, finished.stderr + finished.stdout
    summary = json.loads(finished.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert list(summary["workloads"]) == [w["name"] for w in declared["workloads"]]
    for name, parts in summary["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            body = parts[section]
            assert body["failed"] == 0 and body["attempted"] >= 1, (name, section)
            assert list(body["metrics"]) == [m["name"] for m in declared[section]]
            for metric, spec in zip(body["metrics"].values(), declared[section]):
                assert metric["unit"] == spec["unit"]
                assert isinstance(metric["value"], (int, float))
    # No wrap point has gone missing, and the trace agrees with repro.obs.
    assert "wrap point" not in finished.stderr, finished.stderr
    for parts in summary["workloads"].values():
        assert parts["per_layer"]["metrics"]["trace.crosscheck_mismatches"]["value"] == 0


def test_driver_contract_one_workload_one_json_line():
    declared = _declared()
    finished = _run(
        "--workload", "wire-durable", "--seed", "5", "--seconds", "0", "--trace", "0",
        "--smoke",
    )
    assert finished.returncode == 0, finished.stderr
    body = json.loads(finished.stdout.strip().splitlines()[-1])
    assert sorted(body) == ["attempted", "correct", "failed", "metrics"]
    assert body["correct"] is True and body["failed"] == 0
    assert list(body["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    leftovers = os.path.join(ROOT, "bench", "out")
    assert not [n for n in os.listdir(leftovers) if n.startswith("rep-")]
