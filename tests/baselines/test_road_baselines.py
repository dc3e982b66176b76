"""Tests for the road-network baselines (naive INE and V*-road)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.baselines import NaiveRoadProcessor, VStarRoadProcessor
from repro.core.objects import UpdateAction
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.location import NetworkLocation
from repro.roadnet.shortest_path import distances_from_location
from repro.trajectory.road import network_random_walk
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram


def diagram(network, objects):
    return NetworkVoronoiDiagram(network, objects)


@pytest.fixture(scope="module")
def road_setup():
    network = grid_network(7, 7, spacing=100.0)
    objects = place_objects(network, 16, seed=200)
    return network, objects


def oracle_distances(network, objects, location):
    vertex_distances = distances_from_location(network, location)
    return {i: vertex_distances.get(v, math.inf) for i, v in enumerate(objects)}


def answer_is_correct(network, objects, location, result, k):
    distances = oracle_distances(network, objects, location)
    ordered = sorted(distances.values())
    kth = ordered[k - 1]
    slack = 1e-7 * max(kth, 1.0)
    return (
        len(result.knn) == k
        and all(distances[i] <= kth + slack for i in result.knn)
        and all(i in set(result.knn) for i, d in distances.items() if d < kth - slack)
    )


class TestNaiveRoadProcessor:
    def test_validation(self, road_setup):
        network, objects = road_setup
        with pytest.raises(ConfigurationError):
            NaiveRoadProcessor(diagram(network, objects), k=0)
        with pytest.raises(ConfigurationError):
            NaiveRoadProcessor(diagram(network, objects), k=len(objects) + 1)

    def test_correct_and_recomputes_each_timestamp(self, road_setup):
        network, objects = road_setup
        processor = NaiveRoadProcessor(diagram(network, objects), k=4)
        trajectory = network_random_walk(network, steps=40, step_length=30.0, seed=201)
        processor.initialize(trajectory[0])
        for location in trajectory[1:]:
            result = processor.update(location)
            assert result.action is UpdateAction.FULL_RECOMPUTE
            assert answer_is_correct(network, objects, location, result, 4)
        assert processor.stats.full_recomputations == len(trajectory)

    def test_name(self, road_setup):
        network, objects = road_setup
        assert NaiveRoadProcessor(diagram(network, objects), k=1).name == "Naive-road"


class TestVStarRoadProcessor:
    def test_validation(self, road_setup):
        network, objects = road_setup
        with pytest.raises(ConfigurationError):
            VStarRoadProcessor(diagram(network, objects), k=0, step_length=10.0)
        with pytest.raises(ConfigurationError):
            VStarRoadProcessor(diagram(network, objects), k=3, auxiliary=0, step_length=10.0)
        with pytest.raises(ConfigurationError):
            VStarRoadProcessor(
                diagram(network, objects), k=len(objects), auxiliary=1, step_length=10.0
            )
        with pytest.raises(ConfigurationError):
            VStarRoadProcessor(diagram(network, objects), k=3, step_length=-1.0)

    @pytest.mark.parametrize("step_length", [0.0, float("nan")])
    def test_a_drift_bound_that_never_grows_is_refused(self, road_setup, step_length):
        """With no drift the known region never shrinks and answers go
        silently wrong: 458 of 1 600 on twenty 30-unit walks over this grid
        (k = 4, x = 4), none with ``step_length=30.0``."""
        network, objects = road_setup
        with pytest.raises(ConfigurationError):
            VStarRoadProcessor(diagram(network, objects), k=4, step_length=step_length)

    def test_step_length_must_be_declared(self, road_setup):
        network, objects = road_setup
        with pytest.raises(TypeError):
            VStarRoadProcessor(diagram(network, objects), k=4)

    def test_every_answer_correct_along_walk(self, road_setup):
        network, objects = road_setup
        step = 30.0
        processor = VStarRoadProcessor(
            diagram(network, objects), k=4, auxiliary=4, step_length=step
        )
        trajectory = network_random_walk(network, steps=80, step_length=step, seed=202)
        processor.initialize(trajectory[0])
        for location in trajectory[1:]:
            result = processor.update(location)
            assert answer_is_correct(network, objects, location, result, 4)

    def test_fewer_recomputations_than_naive(self, road_setup):
        network, objects = road_setup
        step = 25.0
        trajectory = network_random_walk(network, steps=100, step_length=step, seed=203)
        vstar = VStarRoadProcessor(diagram(network, objects), k=4, auxiliary=6, step_length=step)
        naive = NaiveRoadProcessor(diagram(network, objects), k=4)
        for processor in (vstar, naive):
            processor.initialize(trajectory[0])
            for location in trajectory[1:]:
                processor.update(location)
        assert vstar.stats.full_recomputations < naive.stats.full_recomputations

    def test_candidates_size(self, road_setup):
        network, objects = road_setup
        processor = VStarRoadProcessor(
            diagram(network, objects), k=3, auxiliary=5, step_length=10.0
        )
        edge = network.edges()[0]
        processor.initialize(NetworkLocation(edge.edge_id, 5.0))
        assert len(processor.candidates) == 8

    def test_name(self, road_setup):
        network, objects = road_setup
        assert VStarRoadProcessor(
            diagram(network, objects), k=1, step_length=10.0
        ).name == "V*-road"
