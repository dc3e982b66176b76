"""Mixed-kind equivalence: every path serves every kind identically.

The PR9 acceptance suite.  One seeded workload opens a kNN, an influential
and a region session side by side on the same service, interleaves their
position updates with data churn (inserts + moves), and must report
**bit-identical answers** — member tuples, distances, influential sites,
region events — and identical per-kind message/object counters

* in-process (the plain service surface),
* over a loopback TCP socket (typed `InfluentialResponse`/`RegionEvent`
  frames crossing the real codec), and
* across a crash-and-recover cycle (the WAL replays the mixed-kind
  session log, including the `OpenQuery` frames).

Byte counters are transport-specific by design and are asserted for
presence, not equality.
"""

import random

import pytest

from repro.core.server import MovingKNNServer
from repro.durability import DurableKNNService, recover_service
from repro.geometry.point import Point
from repro.queries.messages import InfluentialResponse, RegionEvent
from repro.service import KNNService, UpdateBatch, open_service
from repro.transport import KNNServer, connect
from repro.workloads.datasets import uniform_points

OBJECTS = 70
DATA_SEED = 13
WORKLOAD_SEED = 47
STEPS = 9
CHURN_EVERY = 3
#: One session per kind, with deliberately non-uniform k.
KINDS = (("knn", 3), ("influential", 3), ("region", 2))


def data_objects():
    return uniform_points(OBJECTS, seed=DATA_SEED)


def canonical(kind, response):
    """A response reduced to its bit-comparable payload."""
    result = response.result
    record = (
        kind,
        tuple(result.knn),
        tuple(result.knn_distances),
        response.epoch,
    )
    if kind == "influential":
        return record + (response.sites,)
    if kind == "region":
        return record + (response.event, response.departed)
    return record


def kind_counters(engine):
    """Per-kind message/object counters (bytes excluded: transport-specific)."""
    return {
        kind: (
            stats.uplink_messages,
            stats.uplink_objects,
            stats.downlink_messages,
            stats.downlink_objects,
        )
        for kind, stats in engine.communication_by_kind().items()
    }


class MixedWorkload:
    """Drive the same seeded mixed-kind workload against any front door.

    The rng lives on the driver, not the service, so a run can be split
    across a crash: the recovered service resumes at exactly the position
    and churn stream the reference twin sees.
    """

    def __init__(self, seed=WORKLOAD_SEED):
        self.rng = random.Random(seed)
        self.records = []
        self.sessions = []
        # Original object indexes not yet consumed by a move (a Euclidean
        # move deletes its source index, so each one is movable only once).
        self._movable = list(range(OBJECTS))

    def open_sessions(self, opener):
        self.sessions = [
            (kind, opener(Point(50, 50), kind=kind, k=k)) for kind, k in KINDS
        ]

    def rebind(self, service):
        """Re-attach to the same query ids on a recovered service."""
        by_id = {session.query_id: session for session in service.sessions()}
        self.sessions = [
            (kind, by_id[session.query_id]) for kind, session in self.sessions
        ]

    def run(self, applier, start, stop):
        for step in range(start, stop):
            for kind, session in self.sessions:
                position = Point(
                    self.rng.uniform(0, 100), self.rng.uniform(0, 100)
                )
                self.records.append(canonical(kind, session.update(position)))
            if step % CHURN_EVERY == CHURN_EVERY - 1:
                mover = self._movable.pop(self.rng.randrange(len(self._movable)))
                applier(
                    UpdateBatch(
                        inserts=(
                            Point(
                                self.rng.uniform(0, 100),
                                self.rng.uniform(0, 100),
                            ),
                        ),
                        moves=(
                            (
                                mover,
                                Point(
                                    self.rng.uniform(0, 100),
                                    self.rng.uniform(0, 100),
                                ),
                            ),
                        ),
                    )
                )


def in_process_reference():
    service = open_service(metric="euclidean", objects=data_objects())
    workload = MixedWorkload()
    workload.open_sessions(service.open_query)
    workload.run(service.apply, 0, STEPS)
    return service, workload


class TestLoopbackEquivalence:
    def test_tcp_matches_in_process(self):
        reference_service, reference = in_process_reference()

        service = open_service(metric="euclidean", objects=data_objects())
        workload = MixedWorkload()
        with KNNServer(service) as server:
            with connect(server.address) as remote:
                workload.open_sessions(remote.open_query)
                workload.run(remote.apply, 0, STEPS)
                # The typed frames crossed the wire as their own classes.
                assert isinstance(
                    workload.sessions[1][1].last_response, InfluentialResponse
                )
                assert isinstance(workload.sessions[2][1].last_response, RegionEvent)
                # Snapshot before disconnecting: closing the remote sends a
                # goodbye per session, which the in-process twin never does.
                over_tcp = kind_counters(service.engine)

        assert workload.records == reference.records
        assert over_tcp == kind_counters(reference_service.engine)
        assert set(over_tcp) == {"knn", "influential", "region"}
        # Bytes are the one transport-specific dimension.
        assert reference_service.engine.communication.uplink_bytes == 0
        assert service.engine.communication.uplink_bytes > 0
        reference_service.close()

    def test_remote_sessions_report_their_kind(self):
        service = open_service(metric="euclidean", objects=data_objects())
        with KNNServer(service) as server:
            with connect(server.address) as remote:
                with remote.open_query(Point(10, 10), kind="region", k=2) as session:
                    assert session.kind == "region"
                    assert isinstance(session.update(Point(20, 20)), RegionEvent)


class TestCrashRecoverEquivalence:
    @pytest.mark.parametrize("crash_step", [2, 5])
    def test_recovered_mixed_workload_is_bit_identical(self, tmp_path, crash_step):
        reference_service, reference = in_process_reference()

        wal_dir = str(tmp_path / "state")
        service = DurableKNNService(MovingKNNServer(data_objects()), wal_dir)
        workload = MixedWorkload()
        workload.open_sessions(service.open_query)
        workload.run(service.apply, 0, crash_step)

        # Crash: only the file handle goes — nothing says goodbye.
        service.close_wal()
        del service

        recovered = recover_service(wal_dir)
        assert {s.kind for s in recovered.sessions()} == {
            "knn",
            "influential",
            "region",
        }
        workload.rebind(recovered)
        workload.run(recovered.apply, crash_step, STEPS)

        assert workload.records == reference.records
        assert kind_counters(recovered.engine) == kind_counters(
            reference_service.engine
        )
        assert recovered.engine.epoch == reference_service.engine.epoch
        reference_service.close()
        recovered.close()

    def test_reference_twin_is_a_plain_service_too(self):
        """The reference construction used above really is the in-process
        surface: a KNNService over the engine, no durability wrapper."""
        service = KNNService(MovingKNNServer(data_objects()))
        with service.open_query(Point(50, 50), kind="influential", k=3) as session:
            assert session.kind == "influential"
            assert isinstance(session.update(Point(60, 60)), InfluentialResponse)
        service.close()
