"""Transport equivalence: the wire adds bytes, never answers or exchanges.

The PR5 acceptance suite.  For both metrics and both invalidation modes,
the same server scenario is driven

* in-process (the PR4 session surface), and
* over a loopback socket transport (``transport="tcp"``; ``"unix"`` is
  spot-checked separately),

and every run must report **bit-identical kNN answers** (ids *and*
distances) and **identical message/object communication counters**, per
session and in aggregate.  Byte counters are transport-specific by design
(in-process exchanges ship no bytes) and are asserted for presence, not
equality.
"""

import pytest

from repro.service import open_service
from repro.simulation.server_sim import simulate_server
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    road_server_scenario,
)

#: Small but non-trivial: every churn kind fires, several epochs, mixed k.
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

COUNTER_FIELDS = (
    "uplink_messages",
    "uplink_objects",
    "downlink_messages",
    "downlink_objects",
)


def build_scenario(metric):
    if metric == "euclidean":
        return euclidean_server_scenario(**EUCLIDEAN)
    return road_server_scenario(**ROAD)


def answer_streams(run):
    """Every reported answer, in a bit-comparable canonical form."""
    return {
        query_id: [(result.knn, result.knn_distances) for result in stream]
        for query_id, stream in run.results.items()
    }


def message_object_counters(stats):
    return {field: getattr(stats, field) for field in COUNTER_FIELDS}


def assert_equivalent(reference, other):
    assert answer_streams(other) == answer_streams(reference)
    assert message_object_counters(other.communication) == message_object_counters(
        reference.communication
    )
    assert other.epochs == reference.epochs
    assert other.update_counts == reference.update_counts
    # The per-session breakdown agrees too, session by session.
    assert set(other.per_session_communication) == set(
        reference.per_session_communication
    )
    for query_id, comm in reference.per_session_communication.items():
        assert message_object_counters(
            other.per_session_communication[query_id]
        ) == message_object_counters(comm), f"session {query_id}"


class TestLoopbackEquivalence:
    @pytest.mark.parametrize("metric", ["euclidean", "road"])
    @pytest.mark.parametrize("invalidation", ["delta", "flag"])
    def test_tcp_matches_in_process(self, metric, invalidation):
        scenario = build_scenario(metric)

        def served():
            return open_service(
                scenario.metric, scenario.objects, scenario.network, invalidation
            )

        reference = simulate_server(scenario, served(), check_answers=True)
        assert reference.is_correct
        over_tcp = simulate_server(
            scenario, served(), transport="tcp", check_answers=True
        )
        assert over_tcp.is_correct
        assert_equivalent(reference, over_tcp)
        assert reference.communication.bytes_transmitted == 0
        assert over_tcp.communication.bytes_transmitted > 0

    def test_unix_socket_matches_too(self):
        scenario = build_scenario("euclidean")
        reference = simulate_server(scenario)
        over_unix = simulate_server(scenario, transport="unix")
        assert_equivalent(reference, over_unix)

    def test_loopback_run_reports_its_transport(self):
        scenario = build_scenario("euclidean")
        assert simulate_server(scenario).transport == "local"
        assert simulate_server(scenario, transport="tcp").transport == "tcp"
