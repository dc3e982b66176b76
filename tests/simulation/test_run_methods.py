"""Tests for the one player's method comparison (``run_methods``), the
tie-aware answer check beside it, and the baselines as query kinds."""

import pathlib
import subprocess
import sys

import pytest
from method_comparison import brute_force, compare, engine_for

from repro.baselines import (
    METHOD_KINDS,
    BaselineKind,
    NaiveProcessor,
    NaiveRoadProcessor,
    baseline_kinds,
)
from repro.core.road_server import MovingRoadKNNServer
from repro.core.server import MovingKNNServer
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.queries.kinds import query_kind, query_kinds, registered
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.simulation import server_sim
from repro.simulation.server_sim import check_knn_answer, run_methods
from repro.workloads.scenarios import default_euclidean_scenario, default_road_scenario


@pytest.fixture(scope="module")
def plane():
    return default_euclidean_scenario(object_count=250, k=4, steps=60, step_length=25.0, seed=250)


@pytest.fixture(scope="module")
def road():
    return default_road_scenario(
        rows=6, columns=6, object_count=14, k=3, steps=50, step_length=25.0, seed=251
    )


METRICS = ["euclidean", "road"]


@pytest.fixture(params=METRICS)
def scenario(request, plane, road):
    return plane if request.param == "euclidean" else road


def served(scenario, methods=None):
    """``(engine, rows)``: ``methods`` (default every method of the
    scenario's metric) served on one engine, the baselines registered."""
    engine = engine_for(scenario)
    if methods is None:
        methods = {
            name: (kind, scenario.k, scenario.rho)
            for name, kind in METHOD_KINDS[engine.metric].items()
        }
    with registered(*baseline_kinds(scenario.step_length)):
        return engine, run_methods(engine, scenario.trajectory, methods)


def farthest(naive):
    """A naive processor that reports the ``k`` farthest objects."""

    class Farthest(naive):
        def __init__(self, index, k):
            super().__init__(index, k)
            self.population = len(index)

        def _nearest(self, position, count):
            return super()._nearest(position, self.population)[::-1][:count]

    return Farthest


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

    def test_rejects_an_object_the_oracle_does_not_know(self):
        distances = {0: 1.0, 1: 2.0, 2: 3.0}
        assert not check_knn_answer([0, 7], distances, k=2)

    def test_rejects_when_fewer_objects_than_k_exist(self):
        distances = {0: 1.0, 1: 2.0}
        assert not check_knn_answer([0, 1, 2], distances, k=3)

    def test_builds_the_member_set_once(self, monkeypatch):
        built = []

        def counting_set(*args):
            built.append(args)
            return set(*args)

        monkeypatch.setattr(server_sim, "set", counting_set, raising=False)
        distances = {index: float(index) for index in range(200)}
        assert check_knn_answer(range(5), distances, k=5)
        assert not check_knn_answer([0, 1, 2, 3, 199], distances, k=5)
        assert len(built) == 2


class TestRunMethods:
    @pytest.mark.parametrize("metric", ["euclidean", "road"])
    def test_every_method_answers_correctly(self, plane, road, metric):
        runs = compare(plane if metric == "euclidean" else road)
        assert list(runs) == list(METHOD_KINDS[metric])
        assert all(run["correct"] for run in runs.values())

    def test_rows_hold_one_answer_per_timestamp(self, scenario):
        _, runs = served(scenario)
        for run in runs.values():
            answers = run["answers"]
            assert [result.timestamp for result in answers] == list(range(scenario.timestamps))
            assert run["timestamps"] == len(answers) == scenario.timestamps

    def test_every_stats_counter_is_a_column(self, scenario):
        engine, runs = served(scenario)
        stats = engine.per_query_stats()
        assert len(stats) == len(runs)
        for query_id, (name, run) in enumerate(runs.items()):
            assert run["method"] == name
            for counter, value in stats[query_id].as_dict().items():
                assert run[counter] == value, (name, counter)

    def test_the_first_answer_is_the_registration_answer(self, scenario):
        engine, runs = served(scenario)
        for record, run in zip(engine, runs.values()):
            assert run["answers"][0] is record.first_answer

    def test_knn_changes_never_exceed_invalid_timestamps(self, scenario):
        # Under a safe region a changed member set means the held answer was
        # invalid there.  V* re-ranks its candidates inside a valid known
        # region, so its answer may change while valid.
        _, runs = served(scenario)
        for name, run in runs.items():
            assert run["invalid_timestamps"] <= run["timestamps"] - 1, name
            if not name.startswith("V*"):
                assert 0 <= run["knn_changes"] <= run["invalid_timestamps"], name

    def test_every_method_is_timed(self, scenario):
        _, runs = served(scenario)
        assert all(run["elapsed_seconds"] > 0.0 for run in runs.values())

    def test_naive_recomputes_every_timestamp_and_ins_less(self, scenario):
        runs = compare(scenario)
        ins, naive = (name for name in runs if name.startswith(("INS", "Naive")))
        assert runs[naive]["full_recomputations"] == scenario.timestamps
        assert runs[ins]["full_recomputations"] < runs[naive]["full_recomputations"]

    def test_only_the_named_methods_are_served(self, plane):
        engine, runs = served(plane, {"INS": ("knn", plane.k, plane.rho)})
        assert list(runs) == ["INS"]
        assert engine.query_count == 1
        with pytest.raises(KeyError):
            runs["Naive"]

    def test_unknown_kinds_raise(self, scenario):
        with pytest.raises(ConfigurationError, match="unknown query kind"):
            served(scenario, {"Bogus": ("bogus", scenario.k, scenario.rho)})

    def test_a_kind_of_the_other_metric_raises(self, scenario):
        other = "naive-road" if isinstance(engine_for(scenario), MovingKNNServer) else "naive"
        with pytest.raises(ConfigurationError, match="-only"):
            served(scenario, {"Other": (other, scenario.k, scenario.rho)})

    def test_the_check_catches_a_wrong_answer(self, scenario):
        engine = engine_for(scenario)
        naive = NaiveProcessor if engine.metric == "euclidean" else NaiveRoadProcessor
        with registered(BaselineKind("farthest", engine.metric, farthest(naive))):
            runs = run_methods(
                engine, scenario.trajectory, {"Farthest": ("farthest", scenario.k, 1.0)}
            )
        answers = runs["Farthest"]["answers"]
        assert len(answers) == scenario.timestamps
        for position, result in zip(scenario.trajectory, answers):
            assert not check_knn_answer(result.knn, brute_force(scenario, position), scenario.k)

    def test_method_kinds_cover_both_metrics(self):
        assert sorted(METHOD_KINDS) == METRICS
        with registered(*baseline_kinds(25.0)):
            for metric, kinds in METHOD_KINDS.items():
                for name, kind in kinds.items():
                    assert query_kind(kind).metric in (None, metric), name

    def test_every_method_serves_from_the_engines_one_index(self, plane, road, index_builds):
        compare(plane)
        compare(road)
        assert index_builds == [VoRTree, NetworkVoronoiDiagram]


class TestBaselineKinds:
    def test_registered_for_the_block_only(self):
        shipped = query_kinds()
        with registered(*baseline_kinds(25.0)):
            assert query_kinds() == sorted(shipped + ["naive", "naive-road", "vstar", "vstar-road"])
        assert query_kinds() == shipped

    def test_a_kind_runs_on_its_metric_only(self, plane, road):
        with registered(*baseline_kinds(road.step_length)):
            with pytest.raises(ConfigurationError, match="Euclidean-only"):
                MovingRoadKNNServer(road.network, road.object_vertices).register_query(
                    road.trajectory[0], 3, kind="vstar"
                )
            with pytest.raises(ConfigurationError, match="road-only"):
                MovingKNNServer(plane.points).register_query(
                    plane.trajectory[0], 3, kind="naive-road"
                )

    def test_baselines_answer_the_live_index_under_churn(self, plane):
        engine = MovingKNNServer(plane.points)
        with registered(*baseline_kinds(plane.step_length)):
            query_ids = [
                engine.register_query(plane.trajectory[0], plane.k, kind=kind)
                for kind in ("naive", "vstar")
            ]
        active = dict(enumerate(plane.points))
        for step, position in enumerate(plane.trajectory[1:], start=1):
            if step % 5 == 0:
                # An object lands beside the query; the lowest live one leaves.
                near = Point(position.x + 1.0, position.y)
                active[engine.insert_object(near)] = near
                victim = min(active)
                assert engine.delete_object(victim)
                del active[victim]
            distances = {i: position.distance_to(p) for i, p in active.items()}
            for query_id in query_ids:
                result = engine.update_position(query_id, position)
                assert check_knn_answer(result.knn, distances, plane.k), (step, query_id)
        for record in engine:
            assert not record.processor.state_stale

    def test_unregistered_baselines_are_unknown_kinds(self, plane):
        with pytest.raises(ConfigurationError, match="unknown query kind"):
            MovingKNNServer(plane.points).register_query(plane.trajectory[0], 3, kind="naive")

    def test_import_repro_registers_no_baseline(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        script = "import repro; print(repro.query_kinds())"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={"PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.strip() == "['influential', 'knn', 'region']"
