"""Shared scenario drivers for the durability suite.

The restart-and-replay oracle needs to crash a service at an *arbitrary*
step and continue afterwards, which ``simulate_server`` (one closed run)
cannot express.  :class:`ScenarioDriver` is the same loop opened up: it
replays the scenario's own update stream
(:func:`~repro.workloads.scenarios.update_stream`, computed from the
scenario alone) but hands the test control over when each step runs and
against which service object — so a test can drive to step *c*, crash the
service, recover a new one from its WAL, re-bind, and finish the run.

Two drivers created from the same scenario apply bit-identical update
streams, and every ``apply`` is checked against the object indexes the
stream predicts.
"""

from repro.service import open_service
from repro.workloads.scenarios import (
    ChurnSpec,
    euclidean_server_scenario,
    road_server_scenario,
    update_stream,
)

#: Small but non-trivial: every churn kind fires, several epochs, mixed k
#: (mirrors the transport-equivalence suite's scale).
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


class ScenarioDriver:
    """Drive one service through a server scenario, one step at a time.

    The driver models the *client side* of a crash: the update stream and
    the trajectories live outside the service, so killing and recovering
    the service mid-run leaves the stream's future untouched — exactly like
    a real client that outlives a crashed server.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.stream = update_stream(scenario)
        self.counts = {"inserts": 0, "deletes": 0, "moves": 0}
        self.answers = {}
        self.sessions = []

    def open_sessions(self, service):
        """Timestamp 0: register every query at its trajectory start."""
        self.sessions = [
            service.open_session(trajectory[0], k=k, rho=self.scenario.rho)
            for trajectory, k in zip(self.scenario.trajectories, self.scenario.ks)
        ]
        for session in self.sessions:
            self.answers[session.query_id] = []

    def rebind(self, service):
        """Point the loop at a recovered service's session handles."""
        recovered = {session.query_id: session for session in service.sessions()}
        self.sessions = [recovered[session.query_id] for session in self.sessions]

    def step(self, service, step):
        """One timestamp: maybe one churn epoch, then advance every session."""
        self.apply_batch(service, step)
        self.advance(service, step)

    def apply_batch(self, service, step):
        """The step's churn epoch, if it has one."""
        if self.stream[step] is not None:
            batch, new_indexes = self.stream[step]
            assert tuple(service.apply(batch).new_indexes) == new_indexes, f"step {step}"
            self.counts["inserts"] += len(batch.inserts)
            self.counts["deletes"] += len(batch.deletes)
            self.counts["moves"] += len(batch.moves)

    def advance(self, service, step):
        """Move every session to its position at ``step``."""
        for session, trajectory in zip(self.sessions, self.scenario.trajectories):
            response = session.update(trajectory[step])
            self.answers[session.query_id].append(
                (response.knn, response.knn_distances)
            )

    def run(self, service, start, stop):
        for step in range(start, stop):
            self.step(service, step)


def counters_of(service):
    """Aggregate + per-session communication, in comparable dict form."""
    return (
        service.communication.as_dict(),
        {
            query_id: stats.as_dict()
            for query_id, stats in service.engine.per_query_communication().items()
        },
    )


def reference_run(metric):
    """Drive the whole scenario on a plain in-process service."""
    scenario = build_scenario(metric)
    service = open_service(scenario.metric, scenario.objects, scenario.network)
    driver = ScenarioDriver(scenario)
    driver.open_sessions(service)
    driver.run(service, 1, scenario.timestamps)
    return driver, service
