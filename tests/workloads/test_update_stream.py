"""The update stream is data, and it is pinned twice.

:func:`~repro.workloads.scenarios.update_stream` computes every batch of a
server scenario — and the object indexes an engine assigns to it — from the
scenario alone, by modelling index assignment instead of asking an engine.
Two pins hold it to the streams everything else was measured on:

* a literal digest of every ``(batch, new_indexes)`` that
  ``simulate_server`` applied on five scenarios while it still sampled its
  churn victims from the live engine's active-object list;
* equality with the benchmark harness's own generator
  (``bench.generate._churn_stream``) on the smoke-sized ``euclid-stream``
  and ``road-stream`` workloads, whose committed numbers assume that draw
  order.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.workloads.datasets import DEFAULT_EXTENT
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    road_server_scenario,
    update_stream,
)

# The benchmark package lives at the repository root, next to tests/.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

SCENARIOS = {
    "plane-high": lambda: euclidean_server_scenario(
        queries=4, object_count=150, k=3, steps=18, churn="high", extent=1_000.0, seed=3
    ),
    # Deletions against a population that reaches the floor: later batches
    # are clamped to nothing and skipped.
    "plane-floor": lambda: euclidean_server_scenario(
        queries=2,
        object_count=12,
        k=4,
        steps=20,
        churn=ChurnSpec(interval=1, inserts=0, deletes=4, moves=0),
        extent=1_000.0,
        seed=11,
    ),
    "plane-low": lambda: euclidean_server_scenario(steps=60),
    "road-low": lambda: road_server_scenario(
        queries=3, rows=7, columns=7, object_count=16, k=3, steps=14, churn="low", seed=5
    ),
    "road-high": lambda: road_server_scenario(churn="high", steps=60),
}

#: Batches applied and the SHA-256 of ``json.dumps([(repr(batch),
#: list(new_indexes)), ...])``, as recorded from the engine-sampling driver.
PINNED = {
    "plane-high": (18, "26e46e823fbe61cbea3d272ed92dfa11838836d2aeb926671d8f53fc40f54738"),
    "plane-floor": (2, "ac33d13ecb8121e1f3aab1a16e6d8d3eb225a9741ce39639789da2c23ff28087"),
    "plane-low": (15, "8234605a84a4f96cfe4e94b074ebc261f652ca93fb04846a5db70b6238cd2edb"),
    "road-low": (3, "2064e016a64f1c3f099132b2336449efe0efd6db664413c92dbaef3bfc69bfca"),
    "road-high": (60, "44afc80b1f436c192e43ccba699c11565be3c221fcd3dc179a5b28c93d30ab4b"),
}


def _digest(stream):
    applied = [(repr(batch), list(new_indexes)) for batch, new_indexes in filter(None, stream)]
    return len(applied), hashlib.sha256(json.dumps(applied).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stream_matches_the_engine_sampled_stream(name):
    scenario = SCENARIOS[name]()
    stream = update_stream(scenario)
    assert len(stream) == scenario.timestamps
    assert stream[0] is None
    interval = scenario.churn.interval
    assert all(stream[step] is None for step in range(scenario.timestamps) if step % interval)
    assert _digest(stream) == PINNED[name]


def test_no_churn_is_an_empty_stream():
    scenario = euclidean_server_scenario(churn="none", steps=8)
    assert update_stream(scenario) == [None] * scenario.timestamps


@pytest.mark.parametrize("name", ["euclid-stream", "road-stream"])
def test_stream_equals_the_benchmark_generator(name):
    from bench.generate import CITY_SEED, _churn_stream
    from bench.workloads import GRID_SPACING, WORKLOADS, smoke

    workload = smoke(WORKLOADS[name])
    churn = ChurnSpec(1, *workload.churn)
    if workload.metric == "road":
        rows, columns = workload.grid
        scenario = road_server_scenario(
            churn=churn,
            queries=workload.sessions,
            rows=rows,
            columns=columns,
            object_count=workload.objects,
            k=workload.k,
            steps=workload.epochs,
            spacing=GRID_SPACING,
            seed=CITY_SEED,
        )
        targets = scenario.network.vertices()
    else:
        scenario = euclidean_server_scenario(
            churn=churn,
            queries=workload.sessions,
            object_count=workload.objects,
            k=workload.k,
            steps=workload.epochs,
            extent=DEFAULT_EXTENT,
            seed=CITY_SEED,
        )
        targets = DEFAULT_EXTENT
    assert scenario.ks == [workload.k + i % workload.k_cycle for i in range(workload.sessions)]
    batches, new_indexes = _churn_stream(workload, targets, max(scenario.ks))
    assert len(batches) == workload.epochs
    assert update_stream(scenario)[1:] == list(zip(batches, new_indexes))
