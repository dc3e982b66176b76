"""Tests for repro.workloads.scenarios."""

import dataclasses
import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.workloads.datasets import data_space
from repro.workloads.scenarios import (
    ChurnSpec,
    HIGH_CHURN,
    LOW_CHURN,
    NO_CHURN,
    Scenario,
    default_euclidean_scenario,
    default_road_scenario,
    euclidean_server_scenario,
    fig4_scenario,
    road_server_scenario,
)


class TestEuclideanScenarios:
    def test_default_scenario_shape(self):
        scenario = default_euclidean_scenario(object_count=300, k=4, steps=50)
        assert len(scenario.objects) == 300
        assert scenario.ks[0] == 4
        assert scenario.timestamps == 51
        assert scenario.rho == 1.6

    def test_trajectory_stays_in_data_space(self):
        scenario = default_euclidean_scenario(object_count=200, steps=40, extent=500.0)
        box = data_space(500.0)
        assert all(box.contains_point(p) for p in scenario.trajectories[0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            default_euclidean_scenario(object_count=3, k=5)

    def test_fig4_scenario_parameters(self):
        """Figure 4 of the paper uses k = 5 and ρ = 1.6."""
        scenario = fig4_scenario()
        assert scenario.ks[0] == 5
        assert scenario.rho == pytest.approx(1.6)
        assert len(scenario.objects) > scenario.ks[0]

    def test_reproducibility(self):
        a = default_euclidean_scenario(object_count=100, steps=10, seed=3)
        b = default_euclidean_scenario(object_count=100, steps=10, seed=3)
        assert a.objects == b.objects
        assert a.trajectories[0] == b.trajectories[0]


class TestRoadScenarios:
    def test_default_road_scenario_shape(self):
        scenario = default_road_scenario(rows=6, columns=6, object_count=12, k=3, steps=30)
        assert scenario.network.vertex_count == 36
        assert len(scenario.objects) == 12
        assert scenario.timestamps == 31
        assert scenario.ks[0] == 3

    def test_objects_are_on_network_vertices(self):
        scenario = default_road_scenario(rows=5, columns=5, object_count=8, steps=20)
        vertices = set(scenario.network.vertices())
        assert all(v in vertices for v in scenario.objects)

    def test_trajectory_locations_are_valid(self):
        scenario = default_road_scenario(rows=5, columns=5, object_count=8, steps=20)
        for location in scenario.trajectories[0]:
            location.validated(scenario.network)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            default_road_scenario(object_count=2, k=5)


class TestChurnSpecs:
    def test_named_profiles(self):
        assert LOW_CHURN.interval == 4
        assert HIGH_CHURN.interval == 1
        assert NO_CHURN.operations_per_epoch == 0
        assert HIGH_CHURN.operations_per_epoch == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnSpec(interval=-1, inserts=1, deletes=1, moves=1)
        with pytest.raises(ConfigurationError):
            ChurnSpec(interval=1, inserts=-1, deletes=0, moves=0)


class TestServerScenarios:
    def test_euclidean_server_scenario_shape(self):
        scenario = euclidean_server_scenario(
            queries=5, object_count=120, k=3, steps=15, churn="high", seed=9
        )
        assert scenario.query_count == 5
        assert len(scenario.ks) == 5
        assert all(k >= 3 for k in scenario.ks)
        assert len(scenario.objects) == 120
        assert scenario.churn == HIGH_CHURN
        assert scenario.timestamps >= 15

    def test_clustered_data_variant(self):
        uniform = euclidean_server_scenario(data="uniform", object_count=100, seed=4)
        clustered = euclidean_server_scenario(data="clustered", object_count=100, seed=4)
        assert uniform.objects != clustered.objects
        assert "clustered" in clustered.name

    def test_road_server_scenario_shape(self):
        scenario = road_server_scenario(
            queries=3, rows=6, columns=6, object_count=12, k=3, steps=10, churn="low"
        )
        assert scenario.query_count == 3
        assert scenario.churn == LOW_CHURN
        vertices = set(scenario.network.vertices())
        assert all(v in vertices for v in scenario.objects)
        for trajectory in scenario.trajectories:
            for location in trajectory:
                location.validated(scenario.network)

    def test_custom_churn_and_validation(self):
        spec = ChurnSpec(interval=2, inserts=0, deletes=0, moves=3)
        scenario = euclidean_server_scenario(churn=spec, object_count=80, seed=6)
        assert scenario.churn is spec
        with pytest.raises(ConfigurationError):
            euclidean_server_scenario(churn="medium")
        with pytest.raises(ConfigurationError):
            euclidean_server_scenario(data="poisson")
        with pytest.raises(ConfigurationError):
            euclidean_server_scenario(queries=0)
        with pytest.raises(ConfigurationError):
            road_server_scenario(object_count=4, k=3)

    def test_reproducibility(self):
        a = euclidean_server_scenario(queries=3, object_count=90, steps=8, seed=12)
        b = euclidean_server_scenario(queries=3, object_count=90, steps=8, seed=12)
        assert a.objects == b.objects
        assert a.trajectories == b.trajectories
        assert a.ks == b.ks


FACTORIES = {
    "default_euclidean_scenario": default_euclidean_scenario,
    "fig4_scenario": fig4_scenario,
    "default_road_scenario": default_road_scenario,
    "euclidean_server_scenario": euclidean_server_scenario,
    "road_server_scenario": road_server_scenario,
}

#: SHA-256 of ``repr((objects, trajectories, ks, rho, step_length))`` for
#: each factory's default call, recorded from the four scenario classes this
#: one ``Scenario`` replaced (a single-query scenario's trajectory and k as
#: one-element lists; a server factory's step length is its default
#: argument, 60.0 on the plane and 40.0 on roads).
PINNED = {
    "default_euclidean_scenario": "0fbf2c9d7d929bf26ea07e942fdaa6d5982ffdf9bb37c7672069f1e3777cb5cc",
    "fig4_scenario": "4837d4e790a27dbd63745cb5d5c8051047d8960579bd20cdf7e8cea45f2503d9",
    "default_road_scenario": "083cc6b524060c1a3684a95b0bf02115f059daf27447597b510e6406d0a0e6a8",
    "euclidean_server_scenario": "7613c550ab40e42545df72a8dafc22b2465bc7989b2f5a214854ab54780ed0b3",
    "road_server_scenario": "ac1c306a762f15b813fff19aa6048d05e2510ecfd0a80a0cb8cb442ea0d1128b",
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_factory_output_is_pinned(name):
    scenario = FACTORIES[name]()
    payload = repr((
        list(scenario.objects),
        [list(trajectory) for trajectory in scenario.trajectories],
        list(scenario.ks),
        scenario.rho,
        scenario.step_length,
    ))
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED[name]


class TestOneScenario:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: default_euclidean_scenario(object_count=50, steps=5, k=0),
            lambda: default_road_scenario(rows=5, columns=5, object_count=8, steps=5, k=0),
            lambda: euclidean_server_scenario(object_count=50, steps=5, k=0),
            lambda: road_server_scenario(rows=5, columns=5, object_count=8, steps=5, k=0),
        ],
        ids=["default_euclidean", "default_road", "euclidean_server", "road_server"],
    )
    def test_k_below_one_is_refused_when_the_scenario_is_built(self, build):
        with pytest.raises(ConfigurationError, match="at least 1"):
            build()

    def test_single_query_scenarios_are_one_trajectory_one_k_and_no_churn(self):
        for scenario in (fig4_scenario(), default_road_scenario(steps=5)):
            assert scenario.query_count == 1
            assert len(scenario.ks) == 1
            assert scenario.churn == NO_CHURN
            assert scenario.timestamps == len(scenario.trajectories[0])

    def test_metric_and_network_must_agree(self):
        plane = fig4_scenario()
        road = default_road_scenario(rows=5, columns=5, object_count=8, steps=5)
        with pytest.raises(ConfigurationError, match="road network"):
            dataclasses.replace(plane, network=road.network)
        with pytest.raises(ConfigurationError, match="road network"):
            dataclasses.replace(road, network=None)
        with pytest.raises(ConfigurationError, match="road network"):
            dataclasses.replace(plane, metric="manhattan")

    def test_every_query_needs_a_trajectory_and_a_k(self):
        scenario = euclidean_server_scenario(queries=3, object_count=50, steps=5)
        with pytest.raises(ConfigurationError, match="one trajectory and one k"):
            dataclasses.replace(scenario, ks=scenario.ks[:2])
        with pytest.raises(ConfigurationError, match="one trajectory and one k"):
            dataclasses.replace(scenario, trajectories=[], ks=[])

    def test_the_objects_must_outnumber_the_largest_k(self):
        scenario = euclidean_server_scenario(queries=3, object_count=50, k=4, steps=5)
        assert max(scenario.ks) == 6
        with pytest.raises(ConfigurationError, match="outnumber"):
            dataclasses.replace(scenario, objects=scenario.objects[:6])
        assert len(dataclasses.replace(scenario, objects=scenario.objects[:7]).objects) == 7

    def test_one_rule_for_every_factory(self):
        """A factory accepts exactly what the one rule accepts: the server
        factories' old ``object_count > k + 2`` guard is gone."""
        assert euclidean_server_scenario(object_count=6, k=4, queries=1).ks == [4]
        assert road_server_scenario(object_count=5, k=3, queries=2).ks == [3, 4]
        with pytest.raises(ConfigurationError, match="outnumber"):
            euclidean_server_scenario(object_count=6, k=4, queries=3)
        with pytest.raises(ConfigurationError, match="outnumber"):
            default_euclidean_scenario(object_count=5, k=5)

    def test_a_hand_built_scenario_defaults_to_a_static_data_set(self):
        scenario = Scenario(
            name="two-steps",
            metric="euclidean",
            objects=[Point(0.0, 0.0), Point(1.0, 0.0)],
            network=None,
            trajectories=[[Point(0.5, 0.5), Point(0.6, 0.5)]],
            ks=[1],
            rho=1.6,
            step_length=0.1,
        )
        assert scenario.churn == NO_CHURN
        assert scenario.timestamps == 2
