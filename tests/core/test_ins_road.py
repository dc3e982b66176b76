"""Tests for repro.core.ins_road (the INS processor on road networks)."""

import math
import pickle
import random

import pytest
from road_reference import SERVERS, VALIDATIONS

import repro.obs as obs
from repro.errors import ConfigurationError
from repro.core.ins_road import INSRoadProcessor
from repro.core.objects import UpdateAction
from repro.geometry.point import Point
from repro.roadnet.generators import grid_network, place_objects, random_planar_network
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.roadnet.shortest_path import distances_from_location
from repro.trajectory.road import network_random_walk


@pytest.fixture(scope="module")
def road_setup():
    network = grid_network(8, 8, spacing=100.0)
    objects = place_objects(network, 20, seed=160)
    voronoi = NetworkVoronoiDiagram(network, objects)
    return network, objects, voronoi


def line_network(count=16):
    """Vertices 0 … count - 1 on a line, 100 apart."""
    network = RoadNetwork()
    for i in range(count):
        network.add_vertex(Point(100.0 * i, 0.0))
    for i in range(count - 1):
        network.add_edge(i, i + 1, 100.0)
    return network


def oracle_distances(network, objects, location):
    vertex_distances = distances_from_location(network, location)
    return {i: vertex_distances.get(v, math.inf) for i, v in enumerate(objects)}


def answer_is_correct(network, objects, location, result, k):
    distances = oracle_distances(network, objects, location)
    ordered = sorted(distances.values())
    kth = ordered[k - 1]
    slack = 1e-7 * max(kth, 1.0)
    if len(result.knn) != k:
        return False
    if any(distances[i] > kth + slack for i in result.knn):
        return False
    return all(i in set(result.knn) for i, d in distances.items() if d < kth - slack)


class TestConfiguration:
    def test_parameter_validation(self, road_setup):
        network, objects, voronoi = road_setup
        with pytest.raises(ConfigurationError):
            INSRoadProcessor(voronoi, k=0)
        with pytest.raises(ConfigurationError):
            INSRoadProcessor(voronoi, k=len(objects))
        with pytest.raises(ConfigurationError):
            INSRoadProcessor(voronoi, k=3, rho=0.2)


class TestInitialization:
    def test_initial_answer_is_correct(self, road_setup):
        network, objects, voronoi = road_setup
        processor = INSRoadProcessor(voronoi, k=4, rho=1.6)
        edge = network.edges()[30]
        location = NetworkLocation(edge.edge_id, edge.length / 3.0)
        result = processor.initialize(location)
        assert answer_is_correct(network, objects, location, result, 4)
        assert result.action is UpdateAction.FULL_RECOMPUTE

    def test_guard_set_is_disjoint_from_knn(self, road_setup):
        network, objects, voronoi = road_setup
        processor = INSRoadProcessor(voronoi, k=4, rho=1.6)
        edge = network.edges()[10]
        result = processor.initialize(NetworkLocation(edge.edge_id, 10.0))
        assert not (result.guard_objects & result.knn_set)
        assert not (processor.influential_set & set(processor.prefetched_set))


@pytest.mark.parametrize("mode", list(VALIDATIONS))
class TestTrajectoryCorrectness:
    def test_every_answer_correct_along_walk(self, road_setup, mode):
        network, objects, voronoi = road_setup
        processor = VALIDATIONS[mode](voronoi, k=4, rho=1.6)
        trajectory = network_random_walk(network, steps=120, step_length=30.0, seed=161)
        processor.initialize(trajectory[0])
        wrong = []
        for timestamp, location in enumerate(trajectory[1:], start=1):
            result = processor.update(location)
            if not answer_is_correct(network, objects, location, result, 4):
                wrong.append(timestamp)
        assert not wrong, f"incorrect answers at timestamps {wrong[:5]}"

    def test_recomputations_rarer_than_naive(self, road_setup, mode):
        network, objects, voronoi = road_setup
        processor = VALIDATIONS[mode](voronoi, k=4, rho=1.6)
        trajectory = network_random_walk(network, steps=150, step_length=25.0, seed=162)
        processor.initialize(trajectory[0])
        for location in trajectory[1:]:
            processor.update(location)
        assert processor.stats.full_recomputations < len(trajectory) / 2


class TestModesAgree:
    def test_restricted_and_exact_report_equal_distance_profiles(self, road_setup):
        network, objects, voronoi = road_setup
        trajectory = network_random_walk(network, steps=60, step_length=40.0, seed=163)
        restricted, exact = (
            VALIDATIONS[mode](voronoi, k=3, rho=1.6)
            for mode in ("restricted", "exact")
        )
        restricted.initialize(trajectory[0])
        exact.initialize(trajectory[0])
        for location in trajectory[1:]:
            first = restricted.update(location)
            second = exact.update(location)
            assert max(first.knn_distances) == pytest.approx(max(second.knn_distances))

    def test_modes_agree_across_churn_and_ins_refreshes(self):
        """Insert / delete / move between timestamps: the held cells follow
        every repair of the diagram, and searching inside them keeps
        reporting what the full network reports — same neighbours (an
        irregular network has no ties), same distances."""
        rng = random.Random(169)
        network = random_planar_network(120, extent=1_500.0, seed=170)
        objects = place_objects(network, 30, seed=171)
        server, reference = (SERVERS[mode](network, objects) for mode in ("restricted", "exact"))
        trajectory = network_random_walk(network, steps=50, step_length=35.0, seed=172)
        restricted = server.register_query(trajectory[0], k=4)
        exact = reference.register_query(trajectory[0], k=4)
        for location in trajectory[1:]:
            active = server.voronoi.active_object_indexes()
            victim, mover = rng.sample(active, 2)
            batch = dict(
                inserts=[rng.choice(network.vertices())],
                deletes=[victim],
                moves=[(mover, rng.choice(network.vertices()))],
            )
            server.batch_update(**batch)
            reference.batch_update(**batch)
            first = server.update_position(restricted, location)
            second = reference.update_position(exact, location)
            assert set(first.knn) == set(second.knn)
            assert sorted(first.knn_distances) == pytest.approx(sorted(second.knn_distances))
            truth = oracle_distances(network, server.voronoi.vertex_assignments, location)
            assert sorted(first.knn_distances) == pytest.approx(
                sorted(truth[index] for index in first.knn)
            )
        stats = server.stats_for(restricted)
        assert stats.ins_refreshes > 5 and stats.full_recomputations > 5


class TestRandomPlanarNetwork:
    def test_correctness_on_irregular_network(self):
        network = random_planar_network(60, extent=800.0, seed=164)
        objects = place_objects(network, 15, seed=165)
        processor = INSRoadProcessor(NetworkVoronoiDiagram(network, objects), k=3, rho=1.6)
        trajectory = network_random_walk(network, steps=80, step_length=30.0, seed=166)
        processor.initialize(trajectory[0])
        for location in trajectory[1:]:
            result = processor.update(location)
            assert answer_is_correct(network, objects, location, result, 3)

    def test_theorem2_restricted_search_is_smaller(self):
        """Theorem 2: validation on the restricted sub-network settles no
        more vertices than the same validation on the full network.

        Until ISSUE 23 this asserted ``<`` (5 098 < 6 153 settled): every
        search ran out to the farthest guard, well past the region on the
        full network.  Now the radius is the farthest kNN member's, and on
        static data that ball lies inside the region: 1 176 = 1 176.  The
        strict case is the next test.
        """
        network = grid_network(15, 15, spacing=100.0)
        objects = place_objects(network, 60, seed=167)
        voronoi = NetworkVoronoiDiagram(network, objects)
        trajectory = network_random_walk(network, steps=60, step_length=25.0, seed=168)

        def settled(mode):
            processor = VALIDATIONS[mode](voronoi, k=4, rho=1.6)
            processor.initialize(trajectory[0])
            for location in trajectory[1:]:
                processor.update(location)
            return processor.stats.settled_vertices

        assert settled("restricted") <= settled("exact")

    def test_theorem2_prunes_when_the_held_answer_is_stale(self):
        """Where Theorem 2 still bites: the query jumps away from its held
        answer, so the search's radius — the stale neighbour's distance —
        reaches past the region.  A line of 16 vertices, 100 apart, objects
        on 1, 4, 7, 10, 13; k = 1, ρ = 1.  From just right of 7 the client
        holds R = {7}, I(R) = {4, 10}, whose cells span edges 2-3 … 11-12.
        It reappears 10 short of vertex 11: the held neighbour is 390 away,
        and settling it takes 11, 10, 12, 9, [13,] 8, [14,] 7 — the bracketed
        vertices lie outside the region.  The retrieval that follows settles
        11 and 10 in either mode.
        """
        network = line_network()
        objects = [1, 4, 7, 10, 13]
        start = NetworkLocation(network.find_edge(7, 8).edge_id, 10.0)
        jump = NetworkLocation(network.find_edge(10, 11).edge_id, 90.0)
        results, settled = {}, {}
        for mode, validation in VALIDATIONS.items():
            processor = validation(NetworkVoronoiDiagram(network, objects), k=1, rho=1.0)
            assert processor.initialize(start).knn == (2,)
            assert processor.guard_set == {1, 3}
            before = processor.stats.settled_vertices
            results[mode] = processor.update(jump)
            settled[mode] = processor.stats.settled_vertices - before
        assert settled == {"restricted": 6 + 2, "exact": 8 + 2}
        for result in results.values():
            assert (result.knn, result.knn_distances) == ((3,), (90.0,))
            assert result.action is UpdateAction.FULL_RECOMPUTE

    def test_a_move_that_reshapes_a_held_cell_reports_its_owner(self):
        """The region is read from the diagram at search time; the pool's
        cells reshape only under a delta that names a held object, so it is
        the region the pool was last refreshed with.  Same line, same start:
        the client holds R = {7}, I(R) = {4, 10}.  The object on 13 moves to
        14.  No neighbour set differs afterwards, but vertex 12, now 200 from
        both 10 and 14, joins the cell of 10 (a tie goes to the smaller id),
        and with it edge 12-13.  The move is a delete then an insert, and the
        delete takes 13 from the neighbours of 10, so 10 is reported changed.
        Object 10 is in I(R), not in R, and no member of R is named, so the
        delta is absorbed, not refreshed.  The query reappears 10 past
        vertex 12, on that edge.  Validation settles 12, 13, 11, 10, 9, 8, 7
        in the region against 12, 13, 11, 14, 10, 15, 9, 8, 7 on the full
        network; the retrieval that follows settles 12, 13, 11 and 14 in
        either mode.
        """
        network = line_network()
        objects = [1, 4, 7, 10, 13]
        start = NetworkLocation(network.find_edge(7, 8).edge_id, 10.0)
        there = NetworkLocation(network.find_edge(12, 13).edge_id, 10.0)
        results, settled = {}, {}
        for mode, serving in SERVERS.items():
            server = serving(network, objects)
            query_id = server.register_query(start, k=1, rho=1.0)
            held = server.update_position(query_id, start)
            assert (held.knn, held.guard_objects) == ((2,), {1, 3})
            assert there.edge_id not in server.voronoi.cell_edges({1, 2, 3})
            assert server.batch_update(moves=[(4, 14)]).changed_objects == {3, 4}
            assert there.edge_id in server.voronoi.cell_edges({1, 2, 3})
            stats = server.stats_for(query_id)
            before = stats.settled_vertices
            results[mode] = server.update_position(query_id, there)
            settled[mode] = stats.settled_vertices - before
            assert (stats.ins_refreshes, stats.absorbed_updates) == (0, 1)
        assert settled == {"restricted": 7 + 4, "exact": 9 + 4}
        for result in results.values():
            assert (result.knn, result.knn_distances) == ((4,), (190.0,))
            assert result.action is UpdateAction.FULL_RECOMPUTE


class TestOldSnapshots:
    """A processor pickled while it carried a validation mode kept its region
    as the edge ids of the held cells ("restricted") or None ("exact").  It
    restores with the region derived from its held pool and serves exactly
    like one that never left memory — every answer, every counter, every
    escape from the region."""

    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        obs.reset()
        obs.enable()
        yield
        obs.reset()

    @staticmethod
    def serve(processor, trajectory):
        escaped = obs.counter("insq_road_validation_fallbacks_total", reason="escaped")
        before = escaped.value
        results = [processor.update(location) for location in trajectory]
        return results, escaped.value - before

    @pytest.mark.parametrize("mode", ["restricted", "exact"])
    def test_state_with_a_mode_and_its_region_restores_and_serves(self, mode):
        network = random_planar_network(120, extent=1_500.0, seed=170)
        objects = place_objects(network, 30, seed=171)
        processor = INSRoadProcessor(NetworkVoronoiDiagram(network, objects), k=4, rho=1.6)
        trajectory = network_random_walk(network, steps=90, step_length=35.0, seed=174)
        processor.initialize(trajectory[0])
        for location in trajectory[1:30]:
            processor.update(location)
        twin = pickle.loads(pickle.dumps(processor))
        state = pickle.loads(pickle.dumps(processor.__dict__))
        state["_validation_mode"] = mode
        if mode == "restricted":
            state["_region"] = processor.voronoi.cell_edges(processor._held)
            # Edge ids and object ids overlap: read as owners, this region
            # names the cells of other objects.
            assert state["_region"] & set(range(len(objects))) - set(processor._held)
        else:
            state["_region"] = None
        pickled = INSRoadProcessor.__new__(INSRoadProcessor)
        pickled.__dict__.update(state)
        old = pickle.loads(pickle.dumps(pickled))
        expected, expected_escapes = self.serve(twin, trajectory[30:])
        restored, escapes = self.serve(old, trajectory[30:])
        assert restored == expected and escapes == expected_escapes
        for location, result in zip(trajectory[30:], restored):
            assert answer_is_correct(network, objects, location, result, 4)
        assert old.stats.full_recomputations > 3
        assert old.stats.settled_vertices == twin.stats.settled_vertices
        assert old.stats.distance_computations == twin.stats.distance_computations
