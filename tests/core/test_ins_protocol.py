"""The contract both metrics share, tested once.

Since PR 19 the INS protocol (``repro.core.ins``) and the serving engine's
mutation API (``repro.core.engine``) are written once; the plane and the
road network only plug an index, a retrieval, the held distances and a tie
rule into them.  Every test here runs against a plane fixture and a road
fixture: what must be the same is asserted for both, and the one thing that
must differ — the tie rule — is asserted by literal.
"""

import dataclasses
import random
from typing import Any, Callable

import pytest
from road_reference import SERVERS, VALIDATIONS, FullNetworkRoadServer

from repro.core.ins_euclidean import INSProcessor
from repro.core.ins_road import INSRoadProcessor
from repro.core.objects import UpdateAction
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.roadnet.generators import grid_network, place_objects, random_planar_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.knn import network_knn, object_distances_from_location
from repro.roadnet.location import NetworkLocation
from repro.roadnet.shortest_path import outside_region
from repro.service import KNNService, UpdateBatch, open_service
from repro.trajectory.euclidean import linear_trajectory
from repro.trajectory.road import network_random_walk
from repro.workloads.datasets import uniform_points
from repro.workloads.scenarios import euclidean_server_scenario, update_stream

#: The three ways a pending data-update delta can settle.
OUTCOMES = ("full_recomputations", "ins_refreshes", "absorbed_updates")


@dataclasses.dataclass(frozen=True)
class Metric:
    """One metric's fixture: a query, and room for an update far from it."""

    build: Callable[[], Any]  # () -> engine
    start: Any  # the query position
    far: Any  # an insert target far from the query
    move_records: int  # object records one move puts on the wire
    brute_force: Callable[[Any, Any, int], list]  # sorted kNN distances


def _plane_brute_force(engine, position, k):
    tree = engine.index
    return sorted(position.distance_to(tree.point(i)) for i in tree.active_indexes())[:k]


def _road_brute_force(engine, position, k):
    nearest = network_knn(
        engine.network,
        engine.index.vertex_assignments,
        position,
        k,
        objects_at_vertex=engine.index.vertex_objects(),
    )
    return sorted(distance for _, distance in nearest)


def _road_engine():
    network = grid_network(20, 20, spacing=10.0)
    return MovingRoadKNNServer(network, place_objects(network, 60, seed=8))


METRICS = {
    "plane": Metric(
        build=lambda: MovingKNNServer(uniform_points(300, seed=5)),
        start=Point(2_500.0, 2_600.0),  # both interior: a hull site has far neighbours
        far=Point(7_600.0, 7_400.0),
        move_records=2,
        brute_force=_plane_brute_force,
    ),
    "road": Metric(
        build=_road_engine,
        start=NetworkLocation(0, 1.0),  # the bottom-left corner edge
        far=399,  # the opposite corner vertex
        move_records=1,
        brute_force=_road_brute_force,
    ),
}


@pytest.fixture(params=sorted(METRICS))
def metric(request) -> Metric:
    return METRICS[request.param]


def settle(engine, query_id):
    """Re-answer in place; returns the result and how far each outcome counter moved."""
    stats = engine.stats_for(query_id)
    before = [getattr(stats, name) for name in OUTCOMES]
    result = engine.answer(query_id)
    return result, tuple(getattr(stats, name) - was for name, was in zip(OUTCOMES, before))


class TestSettleOutcomes:
    """(i) A pending delta settles in exactly one of three ways."""

    def test_removal_inside_R_pays_one_retrieval(self, metric):
        engine = metric.build()
        population = engine.object_count
        query_id = engine.register_query(metric.start, k=3)
        processor = next(iter(engine)).processor
        victim = processor.prefetched_set[0]
        assert engine.delete_object(victim)
        assert processor.state_stale
        result, moved = settle(engine, query_id)
        assert moved == (1, 0, 0)
        assert not processor.state_stale
        assert result.action == UpdateAction.FULL_RECOMPUTE
        assert victim not in result.knn
        assert engine.object_count == population - 1
        assert sorted(result.knn_distances) == pytest.approx(
            metric.brute_force(engine, metric.start, 3)
        )

    def test_delta_inside_the_pool_refreshes_the_guard_set_only(self, metric):
        engine = metric.build()
        query_id = engine.register_query(metric.start, k=3)
        processor = next(iter(engine)).processor
        victim = min(processor.influential_set)
        answer = engine.answer(query_id).knn
        assert engine.delete_object(victim)
        result, moved = settle(engine, query_id)
        assert moved == (0, 1, 0)
        assert result.was_valid and result.knn == answer
        assert victim not in processor.guard_set

    def test_delta_outside_the_pool_is_absorbed_for_free(self, metric):
        # The insert lands far from the query: the delta cannot touch the
        # query's pool, so nothing is refreshed.
        engine = metric.build()
        query_id = engine.register_query(metric.start, k=2)
        processor = next(iter(engine)).processor
        pool = set(processor.prefetched_set) | processor.influential_set
        delta = engine.batch_update(inserts=[metric.far])
        assert delta.changed_objects.isdisjoint(pool)  # the precondition
        transmitted = processor.stats.transmitted_objects
        result, moved = settle(engine, query_id)
        assert moved == (0, 0, 1)
        assert result.was_valid
        assert processor.stats.transmitted_objects == transmitted

    @pytest.mark.parametrize("where", ["guards", "outside"])
    def test_a_bare_removal_outside_R_is_absorbed(self, where):
        # The settle rule alone, on the plane: a removal outside R with no
        # neighbour change is absorbed, in I(R) too (the index never sends
        # one: a removed guard's neighbour in R is named as changed).
        plane = METRICS["plane"]
        processor = INSProcessor(VoRTree(uniform_points(300, seed=5)), k=3)
        processor.initialize(plane.start)
        pool = set(processor.prefetched_set) | processor.influential_set
        if where == "guards":
            gone = min(processor.influential_set)
        else:
            gone = min(set(range(300)) - pool)
        stats = processor.stats
        before = [getattr(stats, name) for name in OUTCOMES]
        processor.notify_data_update(changed=(), removed=(gone,))
        result = processor.update(plane.start)
        assert tuple(getattr(stats, name) - was for name, was in zip(OUTCOMES, before)) == (0, 0, 1)
        assert result.was_valid


class TestAnswerTuple:
    """A validated timestamp reports the previous answer's tuple itself, not
    a copy; an answer that changed is a new tuple."""

    def test_a_valid_update_reports_the_held_tuple(self, metric):
        service = KNNService(metric.build())
        if isinstance(metric.start, Point):
            end = Point(metric.start.x + 900.0, metric.start.y + 300.0)
            walk = linear_trajectory(metric.start, end, 120)
        else:
            walk = network_random_walk(service.engine.network, 120, 1.5, start=metric.start)
        seen = set()
        with service.open_session(walk[0], k=4) as session:
            previous = session.update(walk[1]).knn
            for position in walk[2:]:
                response = session.update(position)
                if response.was_valid:
                    assert response.knn is previous
                else:
                    assert response.knn is not previous
                seen.add(response.was_valid)
                previous = response.knn
        assert seen == {True, False}


class TestTieRule:
    """(ii) A query equidistant from its k-th neighbour and its nearest guard:
    never a certificate on the plane, an everyday valid answer on a grid."""

    @staticmethod
    def _advance_to_the_tie(engine, start, tie):
        query_id = engine.register_query(start, k=1)
        processor = next(iter(engine)).processor
        assert processor.prefetched_set == [0] and 1 in processor.guard_set
        record = engine.communication_for(query_id)
        round_trips = record.uplink_messages
        result = engine.update_position(query_id, tie)
        return result, record.uplink_messages - round_trips

    def test_on_the_plane_a_tie_is_invalid(self):
        # Objects 0 and 1 are both at distance 1 from (1, 0).
        points = [Point(0.0, 0.0), Point(2.0, 0.0), Point(2.0, 2.0), Point(-1.0, 3.0)]
        result, round_trips = self._advance_to_the_tie(
            MovingKNNServer(points), Point(0.25, 0.0), Point(1.0, 0.0)
        )
        assert not result.was_valid and round_trips == 1
        assert result.action == UpdateAction.FULL_RECOMPUTE
        assert result.knn_distances == (1.0,)

    def test_on_a_unit_grid_the_same_tie_is_valid(self):
        # Vertices 0-1-2 along the bottom row, objects on 0, 2 and 8; the
        # query walks from a quarter of the way along edge (0, 1) to vertex 1.
        network = grid_network(3, 3, spacing=1.0)
        engine = MovingRoadKNNServer(network, [0, 2, 8])
        edge = network.find_edge(0, 1)
        tie = NetworkLocation(edge.edge_id, 1.0 if edge.u == 0 else 0.0)
        start = NetworkLocation(edge.edge_id, 0.25 if edge.u == 0 else 0.75)
        result, round_trips = self._advance_to_the_tie(engine, start, tie)
        assert result.was_valid and round_trips == 0
        assert result.knn == (0,) and result.knn_distances == (1.0,)
        assert sorted(result.knn_distances) == _road_brute_force(engine, tie, 1)


class TestMoves:
    """(iii) The engine knows what a move is on its metric; the facade just
    forwards, and the epoch's bill is on the result."""

    def test_engine_and_facade_apply_the_same_epoch(self, metric):
        direct, fronted = metric.build(), metric.build()
        service = KNNService(fronted)
        queries = [engine.register_query(metric.start, k=3) for engine in (direct, fronted)]
        moved = next(iter(direct)).processor.prefetched_set[1]
        billed = direct.communication.uplink_objects
        result = direct.batch_update(moves=[(moved, metric.far)])
        assert result == service.apply(UpdateBatch(moves=((moved, metric.far),)))
        assert result.epoch == direct.epoch == fronted.epoch == 1
        assert result.payload == metric.move_records
        assert direct.communication.uplink_objects - billed == metric.move_records
        assert direct.communication == fronted.communication
        answers = [engine.answer(qid) for engine, qid in zip((direct, fronted), queries)]
        assert answers[0] == answers[1]
        assert sorted(answers[0].knn_distances) == pytest.approx(
            metric.brute_force(direct, metric.start, 3)
        )

    def test_single_object_move_is_one_epoch_with_the_same_bill(self, metric):
        engine = metric.build()
        service = KNNService(engine)
        victim = service.active_object_indexes()[0]
        service.move(victim, metric.far)
        assert engine.epoch == 1
        assert engine.communication.uplink_objects == metric.move_records


class TestWrittenOnce:
    """(iv) Written once stays written once: both metrics resolve the shared
    protocol and the shared mutation API to the same function objects."""

    @pytest.mark.parametrize(
        "name",
        ["_update", "_consume_data_updates", "_recompose", "notify_data_update", "_reaches"],
    )
    def test_processors_share_the_protocol(self, name):
        assert getattr(INSProcessor, name) is getattr(INSRoadProcessor, name)

    @pytest.mark.parametrize(
        "name",
        ["batch_update", "insert_object", "delete_object", "register_query"],
    )
    def test_servers_share_the_mutation_api(self, name):
        assert getattr(MovingKNNServer, name) is getattr(MovingRoadKNNServer, name)


class _SettlesEveryHeldObject(INSRoadProcessor):
    """Road validation as it was before it stopped at the answer: the search
    runs until *every* held object is settled, and a retrieval searches once
    more for the floats it reports.  Built from the public kernel, in the
    region its base class keeps."""

    def _held_distances(self, position):
        owners, region = self._index.vertex_owners(), self._region
        edge = self._network.edge(position.edge_id)
        if outside_region(owners, region, edge.u, edge.v):
            owners = None
        effort = self._search_stats
        before = effort.settled_vertices
        distances = object_distances_from_location(
            self._network, self._object_vertices, position, self._held, effort, owners, region
        )
        self._stats.settled_vertices += effort.settled_vertices - before
        self._stats.distance_computations += len(distances)
        return distances

    def _fetch(self, position, count, hint):
        members, ins, _ = super()._fetch(position, count, hint)
        effort = self._search_stats
        before = effort.settled_vertices
        distances = object_distances_from_location(
            self._network, self._object_vertices, position, members, effort
        )
        self._stats.settled_vertices += effort.settled_vertices - before
        return members, ins, distances


def _full_validation_server(mode):
    """A server whose sessions settle every held object, in ``mode``'s region."""
    processor = type("SettlesEveryHeldObject", (_SettlesEveryHeldObject, VALIDATIONS[mode]), {})
    return type("FullValidationServer", (FullNetworkRoadServer,), {"processor": processor})


def _bill(engine, query_id):
    """Every ``ProcessorStats`` integer but the search-effort counter."""
    stats = engine.stats_for(query_id)
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if isinstance(getattr(stats, field.name), int) and field.name != "settled_vertices"
    }


class TestRoadValidationStopsAtTheAnswer:
    """(v) The held-distance contract of ``repro.core.ins``: a search bounded
    by the farthest kNN member (ties included) gives every verdict the
    search for all held objects gives — same results, same bill, less effort."""

    NETWORKS = {
        "grid": lambda: grid_network(12, 12, spacing=50.0),  # ties everywhere
        "planar": lambda: random_planar_network(120, extent=900.0, seed=31),
    }

    @pytest.mark.parametrize("mode", list(VALIDATIONS))
    @pytest.mark.parametrize("shape", sorted(NETWORKS))
    def test_every_result_and_every_bill_equals_the_full_validation(self, shape, mode):
        network = self.NETWORKS[shape]()
        objects = place_objects(network, 45, seed=32)
        engines = [
            SERVERS[mode](network, objects),
            _full_validation_server(mode)(network, objects),
        ]
        walks = [network_random_walk(network, 120, 35.0, seed=33 + i) for i in range(4)]
        ks = (1, 3, 5, 8)
        queries = [
            [engine.register_query(walk[0], k=k, rho=1.6) for walk, k in zip(walks, ks)]
            for engine in engines
        ]
        assert queries[0] == queries[1]
        rng = random.Random(34)
        for step in range(1, 121):
            deleted, moved = rng.sample(engines[0].index.active_indexes(), 2)
            batch = dict(
                inserts=[rng.choice(network.vertices())],
                deletes=[deleted],
                moves=[(moved, rng.choice(network.vertices()))],
            )
            for engine in engines:
                engine.batch_update(**batch)
            for query_id, walk in zip(queries[0], walks):
                bounded, full = (
                    engine.update_position(query_id, walk[step]) for engine in engines
                )
                assert bounded == full, (step, query_id)
                assert _bill(engines[0], query_id) == _bill(engines[1], query_id), step
        effort = [
            sum(engine.stats_for(query_id).settled_vertices for query_id in queries[0])
            for engine in engines
        ]
        assert effort[0] < effort[1]
        assert engines[0].aggregate_stats().local_reorders > 20  # recompositions ran

    def test_a_guard_tied_at_the_answers_radius_is_settled(self):
        # Running *through* the ties is what keeps the (distance, index)
        # recomposition the same.  Lengths by hand (integers, exact floats):
        #
        #   6 ---10--- 0 ---10--- 1 ---10--- 2        3 is a fork 5 north of 0,
        #              |                              4 and 5 hang 5 beyond it.
        #              3
        #            /   \
        #           4     5
        #
        # Objects: 0 on vertex 6, 1 on 4, 2 on 5, 3 on 1, 4 on 2; k = 2, ρ = 2.
        network = RoadNetwork()
        for x, y in [(0, 0), (10, 0), (20, 0), (0, 5), (-3, 9), (3, 9), (-10, 0)]:
            network.add_vertex(Point(x, y))
        for u, v, length in [(0, 1, 10), (1, 2, 10), (0, 3, 5), (3, 4, 5), (3, 5, 5), (0, 6, 10)]:
            network.add_edge(u, v, float(length))
        engine = MovingRoadKNNServer(network, [6, 4, 5, 1, 2])
        # One past the fork towards vertex 4: objects 1 (4) and 2 (6) are the
        # answer, 3 and 0 (both 16) complete R, object 4 (26) is I(R).
        start = NetworkLocation(network.find_edge(3, 4).edge_id, 1.0)
        query_id = engine.register_query(start, k=2, rho=2.0)
        processor = next(iter(engine)).processor
        assert processor.prefetched_set == [1, 2, 3, 0]
        assert engine.answer(query_id).knn_distances == (4.0, 6.0)
        # Two east of vertex 0: object 3 is 8 away, and objects 1, 2 *and* 0
        # all 12 — vertices 4 and 5 (the answer's) pop before vertex 6.  A
        # search that stopped at vertex 5 would leave object 0 at inf and
        # recompose to (3, 1); ranked by (distance, index) it is (3, 0).
        result = engine.update_position(
            query_id, NetworkLocation(network.find_edge(0, 1).edge_id, 2.0)
        )
        assert result.action == UpdateAction.LOCAL_REORDER
        assert (result.knn, result.knn_distances) == ((3, 0), (8.0, 12.0))


class TestOneRetrievalPerRecomputation:
    """The benchmark's ledger reads ``index.retrieve_calls`` against
    ``core.recomputes``: on the plane every full recomputation is exactly one
    ``VoRTree.retrieve`` call, and no hook recomputes the distances it
    reports beside it.  A shortcut around ``retrieve`` fails here instead of
    silently zeroing a ledger line."""

    def test_a_churned_stream_retrieves_once_per_recomputation(self, monkeypatch):
        scenario = euclidean_server_scenario(churn="high", queries=6, object_count=400)
        calls = []
        retrieve = VoRTree.retrieve

        def counting(tree, *args, **kwargs):
            calls.append(args)
            return retrieve(tree, *args, **kwargs)

        monkeypatch.setattr(VoRTree, "retrieve", counting)
        service = open_service(metric="euclidean", objects=scenario.objects)
        walks = scenario.trajectories
        sessions = [
            service.open_session(walk[0], k=k, rho=scenario.rho)
            for walk, k in zip(walks, scenario.ks)
        ]
        for step, entry in enumerate(update_stream(scenario)[1:], start=1):
            if entry is not None:
                batch, new_indexes = entry
                assert service.apply(batch).new_indexes == new_indexes
            for session, walk in zip(sessions, walks):
                session.update(walk[step])
        recomputations = service.aggregate_stats().full_recomputations
        assert recomputations > 3 * len(sessions)  # the churn forced retrievals
        assert len(calls) == recomputations

    @pytest.mark.parametrize("processor", [INSProcessor, INSRoadProcessor])
    def test_no_hook_recomputes_the_reported_distances(self, processor):
        assert not hasattr(processor, "_knn_distances")
