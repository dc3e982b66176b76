"""End-to-end correctness of every road-network method on full simulations."""

import pytest
from method_comparison import brute_force, compare
from road_reference import FullNetworkRoadProcessor

from repro.roadnet.generators import (
    grid_network,
    place_objects,
    random_planar_network,
    ring_radial_network,
)
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.simulation.server_sim import check_knn_answer
from repro.trajectory.road import network_random_walk
from repro.workloads.scenarios import Scenario, default_road_scenario


def build_scenario(network, object_count, k, steps, step_length, seed):
    objects = place_objects(network, object_count, seed=seed)
    trajectory = network_random_walk(network, steps=steps, step_length=step_length, seed=seed + 1)
    return Scenario(
        name="integration",
        metric="road",
        objects=objects,
        network=network,
        trajectories=[trajectory],
        ks=[k],
        rho=1.6,
        step_length=step_length,
    )


@pytest.fixture(scope="module")
def grid_result():
    scenario = default_road_scenario(
        rows=10, columns=10, object_count=30, k=5, steps=120, step_length=30.0, seed=310
    )
    return scenario, compare(scenario)


class TestAllMethodsCorrect:
    def test_grid_network_all_methods_correct(self, grid_result):
        _, runs = grid_result
        for name, run in runs.items():
            assert run["correct"], f"{name} produced a wrong answer"

    def test_random_planar_network_all_methods_correct(self):
        network = random_planar_network(80, extent=1_000.0, seed=311)
        scenario = build_scenario(network, object_count=20, k=4, steps=80, step_length=25.0, seed=312)
        runs = compare(scenario)
        assert all(run["correct"] for run in runs.values())

    def test_ring_radial_network_all_methods_correct(self):
        network = ring_radial_network(4, 10, ring_spacing=80.0)
        scenario = build_scenario(network, object_count=15, k=3, steps=80, step_length=20.0, seed=313)
        runs = compare(scenario)
        assert all(run["correct"] for run in runs.values())

    def test_full_network_validation_also_correct(self):
        scenario = default_road_scenario(
            rows=8, columns=8, object_count=20, k=4, steps=80, step_length=25.0, seed=314
        )
        processor = FullNetworkRoadProcessor(
            NetworkVoronoiDiagram(scenario.network, scenario.objects),
            scenario.ks[0],
            rho=scenario.rho,
        )
        trajectory = scenario.trajectories[0]
        answers = [processor.initialize(trajectory[0])]
        answers += [processor.update(position) for position in trajectory[1:]]
        for position, result in zip(trajectory, answers):
            assert check_knn_answer(result.knn, brute_force(scenario, position), scenario.ks[0])


class TestExpectedCostRelationships:
    def test_naive_recomputes_every_timestamp(self, grid_result):
        scenario, runs = grid_result
        assert runs["Naive-road"]["full_recomputations"] == scenario.timestamps

    def test_ins_road_recomputes_least(self, grid_result):
        _, runs = grid_result
        ins = runs["INS-road"]
        for name, run in runs.items():
            if name != "INS-road":
                assert ins["full_recomputations"] <= run["full_recomputations"]

    def test_ins_road_communicates_least(self, grid_result):
        """The paper's motivation: minimising kNN recomputations minimises
        client/server communication, which is the critical cost in LBS.  The
        naive method ships an answer every timestamp; INS only on the rare
        recomputations."""
        _, runs = grid_result
        ins, vstar, naive = (
            runs[name]["communication_events"] for name in ("INS-road", "V*-road", "Naive-road")
        )
        assert ins < naive
        assert ins <= vstar
