"""Tests for repro.simulation.simulator."""

import pytest

from repro.core.ins_euclidean import INSProcessor
from repro.baselines import NaiveProcessor
from repro.geometry.point import Point
from repro.simulation.simulator import check_knn_answer, simulate
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.workloads.datasets import data_space, uniform_points


@pytest.fixture(scope="module")
def dataset():
    return uniform_points(200, extent=1_000.0, seed=230)


@pytest.fixture(scope="module")
def trajectory():
    return random_waypoint_trajectory(data_space(1_000.0), steps=40, step_length=25.0, seed=231)


def oracle_for(points):
    return lambda q: {i: q.distance_to(p) for i, p in enumerate(points)}


class TestCheckKnnAnswer:
    def test_accepts_exact_answer(self):
        distances = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        assert check_knn_answer([0, 1], distances, k=2)

    def test_rejects_wrong_member(self):
        distances = {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}
        assert not check_knn_answer([0, 3], distances, k=2)

    def test_rejects_wrong_cardinality(self):
        distances = {0: 1.0, 1: 2.0, 2: 3.0}
        assert not check_knn_answer([0], distances, k=2)
        assert not check_knn_answer([0, 0], distances, k=2)

    def test_accepts_tied_alternatives(self):
        distances = {0: 1.0, 1: 2.0, 2: 2.0, 3: 5.0}
        assert check_knn_answer([0, 1], distances, k=2)
        assert check_knn_answer([0, 2], distances, k=2)
        assert not check_knn_answer([1, 2], distances, k=2)

    def test_rejects_missing_strictly_closer_object(self):
        distances = {0: 1.0, 1: 1.5, 2: 3.0}
        assert not check_knn_answer([0, 2], distances, k=2)


class TestSimulate:
    def test_empty_trajectory_raises(self, dataset):
        with pytest.raises(ValueError):
            simulate(NaiveProcessor(dataset, k=3), [])

    def test_result_stream_length(self, dataset, trajectory):
        run = simulate(NaiveProcessor(dataset, k=3), trajectory)
        assert run.timestamps == len(trajectory)
        assert [r.timestamp for r in run.results] == list(range(len(trajectory)))

    def test_oracle_detects_no_mismatch_for_correct_processor(self, dataset, trajectory):
        run = simulate(INSProcessor(dataset, k=4), trajectory, oracle=oracle_for(dataset))
        assert run.is_correct
        assert run.mismatches == []

    def test_oracle_detects_broken_processor(self, dataset, trajectory):
        class BrokenProcessor(NaiveProcessor):
            """Reports the k *farthest* objects instead of the nearest."""

            def _compute(self, position):
                result = super()._compute(position)
                order = sorted(
                    range(len(self.tree.positions)),
                    key=lambda i: position.distance_to(self.tree.positions[i]),
                    reverse=True,
                )
                wrong = tuple(order[: self.k])
                return type(result)(
                    timestamp=result.timestamp,
                    knn=wrong,
                    knn_distances=tuple(
                        position.distance_to(self.tree.positions[i]) for i in wrong
                    ),
                    guard_objects=result.guard_objects,
                    action=result.action,
                    was_valid=result.was_valid,
                )

        run = simulate(BrokenProcessor(dataset, k=3), trajectory, oracle=oracle_for(dataset))
        assert not run.is_correct
        assert len(run.mismatches) == len(trajectory)

    def test_knn_changes_and_invalid_counts(self, dataset, trajectory):
        run = simulate(INSProcessor(dataset, k=4), trajectory)
        assert 0 <= run.knn_changes <= run.timestamps - 1
        assert 0 <= run.invalid_timestamps <= run.timestamps - 1
        # A change in the reported set implies the stored answer was invalid
        # at that timestamp, so changes can never exceed invalid timestamps.
        assert run.knn_changes <= run.invalid_timestamps

    def test_stats_are_the_processors(self, dataset, trajectory):
        processor = INSProcessor(dataset, k=4)
        run = simulate(processor, trajectory)
        assert run.stats is processor.stats
        assert run.elapsed_seconds > 0.0


class TestAsDict:
    def test_row_reflects_run(self, dataset, trajectory):
        run = simulate(INSProcessor(dataset, k=4), trajectory)
        row = run.as_dict()
        assert row["method"] == "INS"
        assert row["timestamps"] == run.timestamps == run.stats.timestamps
        assert row["knn_changes"] == run.knn_changes
        assert row["invalid_timestamps"] == run.invalid_timestamps
        assert row["elapsed_seconds"] == run.elapsed_seconds

    def test_every_stats_counter_is_a_column(self, dataset, trajectory):
        run = simulate(INSProcessor(dataset, k=4), trajectory)
        row = run.as_dict()
        for name, value in run.stats.as_dict().items():
            assert row[name] == value, name

    def test_correct_only_when_an_oracle_checked(self, dataset, trajectory):
        unchecked = simulate(INSProcessor(dataset, k=4), trajectory)
        assert not unchecked.checked
        assert "correct" not in unchecked.as_dict()
        checked = simulate(INSProcessor(dataset, k=4), trajectory, oracle=oracle_for(dataset))
        assert checked.checked
        assert checked.as_dict()["correct"] is True

    def test_a_failed_check_reports_incorrect(self, dataset, trajectory):
        wrong = lambda q: {i: -q.distance_to(p) for i, p in enumerate(dataset)}
        run = simulate(NaiveProcessor(dataset, k=3), trajectory, oracle=wrong)
        assert run.as_dict()["correct"] is False
