"""End-to-end correctness of every Euclidean method on full simulations.

Every method is one query on one serving engine, driven along a shared
trajectory, and every single reported answer is cross-checked against a
brute-force oracle.  These are
the tests that establish the headline claim of the reproduction: INS answers
MkNN queries exactly, while recomputing far less often than the baselines
that must recompute every timestamp.
"""

import pytest
from method_comparison import compare

from repro.core.server import MovingKNNServer
from repro.simulation.report import format_table
from repro.simulation.server_sim import run_methods
from repro.workloads.scenarios import (
    Scenario,
    default_euclidean_scenario,
    fig4_scenario,
)
from repro.trajectory.euclidean import circular_trajectory, linear_trajectory
from repro.geometry.point import Point
from repro.workloads.datasets import clustered_points, uniform_points


@pytest.fixture(scope="module")
def uniform_result():
    scenario = default_euclidean_scenario(
        object_count=400, k=5, rho=1.6, steps=120, step_length=30.0, seed=300
    )
    return scenario, compare(scenario)


class TestAllMethodsCorrect:
    def test_every_method_answers_exactly(self, uniform_result):
        _, runs = uniform_result
        for name, run in runs.items():
            assert run["correct"], f"{name} produced a wrong answer"

    def test_fig4_scenario_all_methods_correct(self):
        scenario = fig4_scenario()
        runs = compare(scenario)
        assert all(run["correct"] for run in runs.values())

    def test_clustered_data_all_methods_correct(self):
        points = clustered_points(400, clusters=6, extent=2_000.0, seed=301)
        base = default_euclidean_scenario(object_count=10, steps=80, step_length=25.0, seed=302)
        scenario = Scenario(
            name="clustered",
            metric="euclidean",
            objects=points,
            network=None,
            trajectories=[[p.scaled(2.0) for p in base.trajectories[0]]],
            ks=[6],
            rho=1.6,
            step_length=50.0,
        )
        runs = compare(scenario)
        assert all(run["correct"] for run in runs.values())

    def test_linear_and_circular_trajectories(self):
        points = uniform_points(350, extent=1_000.0, seed=303)
        for name, trajectory in [
            ("linear", linear_trajectory(Point(50, 500), Point(950, 520), steps=150)),
            ("circular", circular_trajectory(Point(500, 500), radius=350.0, steps=150)),
        ]:
            scenario = Scenario(
                name=name,
                metric="euclidean",
                objects=points,
                network=None,
                trajectories=[trajectory],
                ks=[4],
                rho=1.6,
                step_length=trajectory[0].distance_to(trajectory[1]),
            )
            runs = compare(scenario)
            assert all(run["correct"] for run in runs.values()), name


class TestExpectedCostRelationships:
    """The qualitative 'shape' claims of the paper's evaluation."""

    def test_naive_recomputes_most(self, uniform_result):
        scenario, runs = uniform_result
        naive = runs["Naive"]["full_recomputations"]
        assert naive == scenario.timestamps
        for name, run in runs.items():
            if name != "Naive":
                assert run["full_recomputations"] < naive

    def test_ins_matches_or_beats_strict_safe_region_on_communication_events(
        self, uniform_result
    ):
        """INS's implicit safe region is the order-k cell, so its server
        round trips cannot exceed the strict safe-region baseline's by more
        than the prefetch effect allows — in practice they are fewer."""
        _, runs = uniform_result
        ins = runs["INS"]
        strict = runs["OrderK-SR"]
        assert ins["full_recomputations"] <= strict["full_recomputations"]

    def test_vstar_recomputes_at_least_as_often_as_ins(self, uniform_result):
        _, runs = uniform_result
        ins = runs["INS"]
        vstar = runs["V*"]
        assert vstar["full_recomputations"] >= ins["full_recomputations"]

    def test_ins_validation_work_is_modest(self, uniform_result):
        """Per-timestamp client work of INS is a handful of distance
        computations (linear in the held set), far below recomputing kNN."""
        scenario, runs = uniform_result
        ins = runs["INS"]
        per_timestamp = ins["distance_computations"] / scenario.timestamps
        assert per_timestamp < 10 * scenario.ks[0]

    def test_report_table_renders(self, uniform_result):
        _, runs = uniform_result
        table = format_table(list(runs.values()), columns=("method", "full_recomputations"))
        assert "INS" in table and "Naive" in table


class TestSafeRegionMaximality:
    """The paper's maximality claim: the region the INS guards is the
    order-k Voronoi cell, the largest possible safe region.  With ρ = 1 (no
    prefetch buffer) INS must therefore invalidate exactly when the query
    leaves the exact order-k cell, and recompute exactly as often as the
    strict safe-region baseline.  Known answers measured once and pinned."""

    @pytest.mark.parametrize(
        "object_count, k, seed, invalid, recomputations",
        [
            (300, 2, 401, 12, 13),
            (300, 4, 402, 14, 15),
            (500, 8, 403, 27, 28),
        ],
    )
    def test_ins_invalidates_exactly_at_order_k_cell_exits(
        self, object_count, k, seed, invalid, recomputations
    ):
        scenario = default_euclidean_scenario(
            object_count=object_count, k=k, rho=1.0, steps=120, step_length=30.0, seed=seed
        )
        runs = run_methods(
            MovingKNNServer(scenario.objects),
            scenario.trajectories[0],
            {"INS": ("knn", k, 1.0), "OrderK-SR": ("region", k, 1.0)},
        )
        ins, strict = runs["INS"], runs["OrderK-SR"]
        assert ins["invalid_timestamps"] == strict["invalid_timestamps"] == invalid
        assert (
            ins["full_recomputations"]
            == strict["full_recomputations"]
            == recomputations
        )
