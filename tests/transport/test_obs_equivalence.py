"""Observability on/off equivalence: the PR10 zero-semantic-cost bar.

The same server scenario is driven twice — once with the metrics
registry recording (the default) and once fully disabled — and the two
runs must agree **bit for bit**: every kNN answer (ids *and* distances),
every :class:`CommunicationStats` counter including bytes (the transport
is identical, so bytes must match exactly), every aggregate
:class:`ProcessorStats` counter, and the per-session bills.  Covered
across both metrics, both invalidation modes and a real socket transport
— the paths the instruments actually thread through.

This is the discipline every prior PR held new modes to, applied to
observability: instruments may *read* values the serving code computed,
never influence them.
"""

import pytest

import repro.obs as obs
from repro.service import open_service
from repro.simulation.server_sim import simulate_server
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    road_server_scenario,
)

EUCLIDEAN = dict(
    churn=ChurnSpec(interval=2, inserts=1, deletes=1, moves=1),
    queries=4,
    object_count=150,
    k=3,
    steps=10,
    seed=29,
)
ROAD = dict(
    churn=ChurnSpec(interval=2, inserts=1, deletes=1, moves=1),
    queries=3,
    object_count=20,
    k=3,
    steps=8,
    seed=31,
)


def build_scenario(metric):
    if metric == "euclidean":
        return euclidean_server_scenario(**EUCLIDEAN)
    return road_server_scenario(**ROAD)


def answer_streams(run):
    return {
        query_id: [(result.knn, result.knn_distances) for result in stream]
        for query_id, stream in run.results.items()
    }


def run_pair(metric, invalidation="delta", **kwargs):
    """The same run with observability on, then off (state restored)."""
    scenario = build_scenario(metric)

    def served():
        return open_service(scenario.metric, scenario.objects, scenario.network, invalidation)

    obs.reset()
    obs.enable()
    try:
        observed = simulate_server(scenario, served(), **kwargs)
        obs.disable()
        blind = simulate_server(scenario, served(), **kwargs)
    finally:
        obs.enable()
        obs.reset()
    return observed, blind


def _counters_only(stats):
    return {
        key: value
        for key, value in stats.as_dict().items()
        if "seconds" not in key
    }


def assert_bit_identical(observed, blind):
    assert answer_streams(blind) == answer_streams(observed)
    # Identical transport, identical codec: *every* counter must match,
    # bytes included — observability may not add or absorb a single frame.
    assert blind.communication.as_dict() == observed.communication.as_dict()
    # ProcessorStats counters must match exactly; the *_seconds fields
    # are wall-clock measurements (noise by nature), not semantics.
    assert _counters_only(blind.aggregate) == _counters_only(observed.aggregate)
    assert blind.epochs == observed.epochs
    assert blind.update_counts == observed.update_counts
    assert set(blind.per_session_communication) == set(
        observed.per_session_communication
    )
    for query_id, comm in observed.per_session_communication.items():
        assert (
            blind.per_session_communication[query_id].as_dict() == comm.as_dict()
        ), f"session {query_id}"


class TestObsEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "road"])
    @pytest.mark.parametrize("invalidation", ["delta", "flag"])
    def test_in_process(self, metric, invalidation):
        observed, blind = run_pair(metric, invalidation=invalidation)
        assert_bit_identical(observed, blind)

    @pytest.mark.parametrize("metric", ["euclidean", "road"])
    def test_over_tcp(self, metric):
        observed, blind = run_pair(metric, transport="tcp")
        assert_bit_identical(observed, blind)

    def test_disabled_run_accumulates_no_metrics(self):
        scenario = build_scenario("euclidean")
        obs.reset()
        obs.disable()
        try:
            simulate_server(scenario)
            snapshot = obs.REGISTRY.snapshot()
        finally:
            obs.enable()
            obs.reset()
        assert all(value == 0 for _, _, value in snapshot.counters)
        assert all(sum(counts) == 0 for _, _, counts, _ in snapshot.histograms)

    def test_enabled_run_actually_observes(self):
        scenario = build_scenario("euclidean")
        obs.reset()
        obs.enable()
        try:
            simulate_server(scenario, transport="tcp")
            snapshot = obs.REGISTRY.snapshot()
        finally:
            obs.reset()
        counters = {
            (name, labels): value for name, labels, value in snapshot.counters
        }
        assert counters[("insq_epochs_total", "")] > 0
        histograms = {
            (name, labels): sum(counts)
            for name, labels, counts, _ in snapshot.histograms
        }
        assert histograms[("insq_maintenance_seconds", "metric=euclidean")] > 0
        assert histograms[("insq_request_seconds", "frame=PositionUpdate")] > 0
        assert histograms[("insq_codec_seconds", "frame=PositionUpdate,op=decode")] > 0
