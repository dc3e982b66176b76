"""A state machine holds the serving engine's lazy delta rule to brute force.

Each epoch's repair delta reaches every session, and a session re-derives R
or I(R) only when the delta reaches them (``repro.core.ins``).  This suite
checks that rule against an independent model rather than against another
mode of the engine: a hypothesis ``RuleBasedStateMachine`` (model-based
testing in the style of Claessen & Hughes, "QuickCheck", ICFP 2000) drives a
:class:`~repro.service.KNNService` through opens of every kind, moves,
refreshes, closes, churn batches, checkpoints and crashes, and keeps its own
``id -> position`` model of the population by ``update_stream``'s id rules
(a plane move is a delete plus a new id; a road move keeps its id).

Every answer must be a correct kNN set of the model by brute force
(``check_knn_answer``, tie-aware), with each reported distance equal to the
brute-force one exactly; the influential sites must be the reference INS of
the reported members; ``apply`` must return the ids the model predicts; and
a service recovered from a copy of a crashed one's durability directory must
equal it in every bill, its epoch and its active ids.

The population and every inserted or moved-to object come from a drawn
seed, never from drawn coordinates, so sites stay in general position;
query positions are drawn freely.  Tier-1 runs the derandomised profile;
``--hypothesis-profile=default`` explores.
"""

import random
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from influential_reference import influential_neighbor_set_from_points
from repro.durability import open_durable_service, recover_service
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.location import NetworkLocation
from repro.roadnet.shortest_path import distances_from_location
from repro.service import UpdateBatch, open_service
from repro.simulation.server_sim import check_knn_answer
from repro.workloads.datasets import uniform_points

EXTENT = 1_000.0
K_MAX = 4
#: No churn batch takes the population below this: every session's k stays
#: below the population, whatever is open.
FLOOR = K_MAX + 2
NETWORK = grid_network(7, 7, spacing=40.0)

SEEDS = 2**20
seeds = st.integers(min_value=0, max_value=SEEDS - 1)
ks = st.integers(min_value=1, max_value=K_MAX)


class ServiceMachine(RuleBasedStateMachine):
    """The rules and checks both metrics share; a subclass names the metric."""

    metric: str
    kinds = ("knn",)

    # ------------------------------------------------------------------
    # Set-up and teardown
    # ------------------------------------------------------------------
    @initialize(seed=seeds, durable=st.booleans(), opened=st.lists(ks, min_size=1, max_size=4))
    def open(self, seed, durable, opened):
        self.model = dict(enumerate(self.population(seed)))
        self.next_id = len(self.model)
        self.epoch = 0
        #: query id -> (kind, k, last position) of every open session.
        self.open_sessions = {}
        self.directories = []
        if durable:
            directory = tempfile.mkdtemp(prefix="insq-machine-")
            self.directories.append(directory)
            self.service = open_durable_service(
                directory, self.metric, list(self.model.values()), self.network, fsync="off"
            )
        else:
            self.service = open_service(self.metric, list(self.model.values()), self.network)
        # A few kNN sessions from the start, at seeded positions among the
        # objects, so the first churn already has sessions to reach.
        for k, position in zip(opened, self.placed(SEEDS + seed, len(opened))):
            position = self.at(position)
            session = self.service.open_session(position, k=k)
            self.open_sessions[session.query_id] = ("knn", k, position)

    def teardown(self):
        service = getattr(self, "service", None)
        if service is not None and hasattr(service, "close_wal"):
            service.close_wal()
        for directory in getattr(self, "directories", ()):
            shutil.rmtree(directory, ignore_errors=True)

    @property
    def durable(self):
        return hasattr(self.service, "wal")

    def session(self, query_id):
        return next(s for s in self.service.sessions() if s.query_id == query_id)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @rule(k=ks, data=st.data())
    def open_query(self, k, data):
        kind = data.draw(st.sampled_from(self.kinds))
        position = data.draw(self.positions())
        # The first answer is read by a refresh or an update, like a client's.
        session = self.service.open_query(position, kind=kind, k=k)
        self.open_sessions[session.query_id] = (kind, k, position)

    @precondition(lambda self: self.open_sessions)
    @rule(data=st.data())
    def update(self, data):
        query_id = data.draw(st.sampled_from(sorted(self.open_sessions)))
        position = data.draw(self.positions())
        kind, k, _ = self.open_sessions[query_id]
        self.open_sessions[query_id] = (kind, k, position)
        self.check(query_id, self.session(query_id).update(position))

    @rule()
    def refresh(self):
        # Every open session, so each churn is judged wherever it landed.
        for query_id in sorted(self.open_sessions):
            self.check(query_id, self.session(query_id).refresh())

    @precondition(lambda self: self.open_sessions)
    @rule(data=st.data())
    def close(self, data):
        query_id = data.draw(st.sampled_from(sorted(self.open_sessions)))
        self.session(query_id).close()
        del self.open_sessions[query_id]

    @rule(
        seed=seeds,
        inserts=st.integers(min_value=0, max_value=4),
        deletes=st.integers(min_value=0, max_value=3),
        moves=st.integers(min_value=0, max_value=3),
    )
    def churn(self, seed, inserts, deletes, moves):
        rng = random.Random(seed)
        active = sorted(self.model)
        deletes = rng.sample(active, min(deletes, len(active) + inserts - FLOOR))
        gone = set(deletes)
        victims = rng.sample([index for index in active if index not in gone], moves)
        # Seeded apart from the population's seeds and from every other
        # batch's (ids are never reused): no two sites share a position.
        targets = self.placed(SEEDS * self.next_id + seed, inserts + moves)
        batch = UpdateBatch(
            inserts=tuple(targets[:inserts]),
            deletes=tuple(deletes),
            moves=tuple(zip(victims, targets[inserts:])),
        )
        if not (batch.inserts or batch.deletes or batch.moves):
            return
        # The model, by update_stream's id rules: new ids ascend, never
        # reused; a plane move is a delete plus a new id after the inserts.
        for index in deletes:
            del self.model[index]
        placed = list(batch.inserts)
        for index, target in batch.moves:
            if self.metric == "road":
                self.model[index] = target
            else:
                del self.model[index]
                placed.append(target)
        new_indexes = tuple(range(self.next_id, self.next_id + len(placed)))
        self.model.update(zip(new_indexes, placed))
        self.next_id += len(placed)
        self.epoch += 1
        applied = self.service.apply(batch)
        assert tuple(applied.new_indexes) == new_indexes
        moved_away = () if self.metric == "road" else victims
        assert sorted(applied.deleted_indexes) == sorted([*deletes, *moved_away])
        assert applied.epoch == self.epoch

    @precondition(lambda self: self.durable)
    @rule()
    def checkpoint(self):
        self.service.checkpoint()

    @precondition(lambda self: self.durable)
    @rule()
    def crash(self):
        live = self.service
        live.wal.sync()
        copy = tempfile.mkdtemp(prefix="insq-machine-")
        self.directories.append(copy)
        shutil.copytree(live.wal_dir, copy, dirs_exist_ok=True)
        recovered = recover_service(copy, fsync="off")
        live.close_wal()
        self.service = recovered
        assert recovered.communication == live.communication
        assert recovered.per_session_communication() == live.per_session_communication()
        assert recovered.epoch == live.epoch
        assert recovered.active_object_indexes() == live.active_object_indexes()

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    @invariant()
    def the_population_is_the_models(self):
        if hasattr(self, "service"):
            assert self.service.epoch == self.epoch
            assert sorted(self.service.active_object_indexes()) == sorted(self.model)
            assert sorted(s.query_id for s in self.service.sessions()) == sorted(
                self.open_sessions
            )

    def check(self, query_id, response):
        kind, k, position = self.open_sessions[query_id]
        distances = self.distances(position)
        assert check_knn_answer(response.knn, distances, k), (response.knn, k)
        for index, reported in zip(response.knn, response.knn_distances):
            assert reported == distances[index], (index, reported, distances[index])
        if kind == "influential":
            assert set(response.result.sites) == self.influential_sites(response.knn)


class PlaneMachine(ServiceMachine):
    metric = "euclidean"
    network = None
    kinds = ("knn", "influential", "region")

    @staticmethod
    def population(seed):
        # Large enough that most churn misses a session's pool.
        return uniform_points(60, extent=EXTENT, seed=seed)

    @staticmethod
    def placed(seed, count):
        return uniform_points(count, extent=EXTENT, seed=seed) if count else []

    @staticmethod
    def positions():
        coordinates = st.floats(min_value=0.0, max_value=EXTENT)
        return st.builds(Point, coordinates, coordinates)

    @staticmethod
    def at(point):
        return point

    def distances(self, position):
        return {index: position.distance_to(point) for index, point in self.model.items()}

    def influential_sites(self, members):
        ids = sorted(self.model)
        local = {index: place for place, index in enumerate(ids)}
        sites = influential_neighbor_set_from_points(
            [self.model[index] for index in ids], [local[index] for index in members]
        )
        return {ids[place] for place in sites}


class RoadMachine(ServiceMachine):
    metric = "road"
    network = NETWORK

    @staticmethod
    def population(seed):
        return place_objects(NETWORK, 24, seed=seed)

    @staticmethod
    def placed(seed, count):
        rng = random.Random(seed)
        vertices = NETWORK.vertices()
        return [rng.choice(vertices) for _ in range(count)]

    @staticmethod
    def positions():
        return st.sampled_from(NETWORK.edges()).flatmap(
            lambda edge: st.builds(
                NetworkLocation,
                st.just(edge.edge_id),
                st.floats(min_value=0.0, max_value=edge.length),
            )
        )

    @staticmethod
    def at(vertex):
        """The location of ``vertex``: the start of an edge leaving it."""
        edge = next(e for e in NETWORK.edges() if e.u == vertex or e.v == vertex)
        return NetworkLocation(edge.edge_id, 0.0 if edge.u == vertex else edge.length)

    def distances(self, position):
        reach = distances_from_location(NETWORK, position)
        return {index: reach[vertex] for index, vertex in self.model.items()}


BUDGET = settings(max_examples=20, stateful_step_count=25)

TestPlaneMachine = PlaneMachine.TestCase
TestPlaneMachine.settings = BUDGET
TestRoadMachine = RoadMachine.TestCase
TestRoadMachine.settings = BUDGET
