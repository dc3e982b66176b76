"""Tests for repro.simulation.experiment."""

import pytest

from repro.simulation.experiment import (
    EUCLIDEAN_METHODS,
    METHODS,
    ROAD_METHODS,
    compare,
)
from repro.workloads.scenarios import default_euclidean_scenario, default_road_scenario


@pytest.fixture(scope="module")
def small_euclidean_scenario():
    return default_euclidean_scenario(object_count=250, k=4, steps=60, step_length=25.0, seed=250)


@pytest.fixture(scope="module")
def small_road_scenario():
    return default_road_scenario(
        rows=6, columns=6, object_count=14, k=3, steps=50, step_length=25.0, seed=251
    )


def test_registry_covers_both_metrics_and_names_match_processors(
    small_euclidean_scenario, small_road_scenario
):
    assert set(METHODS) == set(EUCLIDEAN_METHODS) | set(ROAD_METHODS)
    for name in EUCLIDEAN_METHODS:
        assert METHODS[name](small_euclidean_scenario).name == name
    for name in ROAD_METHODS:
        assert METHODS[name](small_road_scenario).name == name


class TestEuclideanComparison:
    def test_all_methods_run_and_are_correct(self, small_euclidean_scenario):
        runs = compare(small_euclidean_scenario, check_correctness=True)
        assert list(runs) == list(EUCLIDEAN_METHODS)
        assert all(run.checked and run.is_correct for run in runs.values())

    def test_naive_recomputes_every_timestamp(self, small_euclidean_scenario):
        runs = compare(small_euclidean_scenario, methods=("Naive",), check_correctness=False)
        naive = runs["Naive"]
        assert naive.stats.full_recomputations == small_euclidean_scenario.timestamps

    def test_ins_beats_naive_on_recomputations(self, small_euclidean_scenario):
        runs = compare(
            small_euclidean_scenario, methods=("INS", "Naive"), check_correctness=False
        )
        ins = runs["INS"].stats
        naive = runs["Naive"].stats
        assert ins.full_recomputations < naive.full_recomputations

    def test_unknown_method_raises(self, small_euclidean_scenario):
        with pytest.raises(ValueError):
            compare(small_euclidean_scenario, methods=("Bogus",))

    def test_other_metrics_method_raises(self, small_euclidean_scenario):
        with pytest.raises(ValueError):
            compare(small_euclidean_scenario, methods=("INS-road",))

    def test_method_lookup_raises_for_missing(self, small_euclidean_scenario):
        runs = compare(small_euclidean_scenario, methods=("INS",), check_correctness=False)
        with pytest.raises(KeyError):
            runs["Naive"]


class TestRoadComparison:
    def test_all_methods_run_and_are_correct(self, small_road_scenario):
        runs = compare(small_road_scenario, check_correctness=True)
        assert list(runs) == list(ROAD_METHODS)
        assert all(run.checked and run.is_correct for run in runs.values())

    def test_ins_road_beats_naive_on_recomputations(self, small_road_scenario):
        runs = compare(
            small_road_scenario, methods=("INS-road", "Naive-road"), check_correctness=False
        )
        ins = runs["INS-road"].stats
        naive = runs["Naive-road"].stats
        assert ins.full_recomputations < naive.full_recomputations

    def test_unknown_method_raises(self, small_road_scenario):
        with pytest.raises(ValueError):
            compare(small_road_scenario, methods=("Bogus",))
