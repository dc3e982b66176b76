"""Tests for repro.core.objects."""

import dataclasses
import io
import os
import pathlib
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.baselines.policies import baseline_kinds
from repro.core.objects import QueryResult, UpdateAction, accepts_dict_state, immutable
from repro.geometry.point import Point
from repro.queries.kinds import query_kind, query_kinds, registered
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.location import NetworkLocation
from repro.service import open_service
from repro.service.messages import UpdateBatch
from repro.queries.influential import InfluentialResult
from repro.queries.region import RegionResult


def make_result(**overrides):
    defaults = dict(
        timestamp=3,
        knn=(4, 1, 9),
        knn_distances=(1.0, 2.0, 3.0),
        guard_objects=frozenset({7, 8}),
        action=UpdateAction.NONE,
        was_valid=True,
    )
    defaults.update(overrides)
    return QueryResult(**defaults)


def make_results():
    """One of each result class, on the same six base fields."""
    base = make_result()
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
    return [
        base,
        InfluentialResult(**fields, sites=(2, 5)),
        RegionResult(**fields, event="enter", departed=(6,)),
    ]


class TestUpdateAction:
    def test_communication_classification(self):
        assert not UpdateAction.NONE.requires_communication
        assert not UpdateAction.LOCAL_REORDER.requires_communication
        assert UpdateAction.INCREMENTAL.requires_communication
        assert UpdateAction.FULL_RECOMPUTE.requires_communication

    def test_values_are_stable(self):
        assert UpdateAction.FULL_RECOMPUTE.value == "full_recompute"
        assert UpdateAction.LOCAL_REORDER.value == "local_reorder"


class TestQueryResult:
    def test_k_and_set_views(self):
        result = make_result()
        assert result.k == 3
        assert result.knn_set == frozenset({1, 4, 9})

    def test_describe_mentions_validity(self):
        assert "valid" in make_result().describe()
        updated = make_result(was_valid=False, action=UpdateAction.FULL_RECOMPUTE)
        assert "full_recompute" in updated.describe()

    def test_results_are_immutable(self):
        for result in make_results():
            with pytest.raises(AttributeError):
                result.timestamp = 5
            with pytest.raises(AttributeError):
                result.unknown = 5
            with pytest.raises(AttributeError):
                del result.knn
            assert result.timestamp == 3 and result.knn == (4, 1, 9)

    def test_results_are_values(self):
        for result in make_results():
            twin = dataclasses.replace(result)
            assert twin == result and not twin != result
            assert hash(twin) == hash(result)
            assert pickle.loads(pickle.dumps(result)) == result
            moved = dataclasses.replace(result, timestamp=4)
            assert type(moved) is type(result) and moved.timestamp == 4
            assert moved != result and not moved == result
            assert repr(result).startswith(f"{type(result).__name__}(timestamp=3, ")
        plain, influential, region = make_results()
        values = [getattr(plain, f.name) for f in dataclasses.fields(plain)]
        assert QueryResult(*values) == plain  # positional construction
        assert [f.name for f in dataclasses.fields(influential)][6:] == ["sites"]
        assert InfluentialResult(*values).sites == ()
        assert RegionResult(*values).event == "stay" and RegionResult(*values).departed == ()
        assert (influential.sites, region.event, region.departed) == ((2, 5), "enter", (6,))
        assert plain != tuple(values) and not plain == tuple(values)


#: The rows a served engine's pickle names: rows in the snapshots older
#: builds wrote too, so those load unchanged.
SNAPSHOT_ROWS = [
    "repro.core.objects.QueryResult",
    "repro.queries.influential.InfluentialResult",
    "repro.queries.region.RegionResult",
]

#: Dict-backed though no served engine holds it: the VoR-tree pickles in
#: ``tests/index/golden`` do.
GOLDEN_PICKLED = "repro.geometry.delaunay.Triangle"

#: Run in a fresh interpreter: each dataclass the three imports define, as
#: "row", "slots" or "dict" and its dotted name.
CENSUS = """
import dataclasses, sys
import repro, repro.transport, repro.durability
for name, module in sorted(sys.modules.items()):
    for cls in list(vars(module).values()) if name.startswith("repro") else ():
        if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls):
            kind = "row" if issubclass(cls, tuple) else "dict" if cls.__dictoffset__ else "slots"
            print(kind, name + "." + cls.__qualname__)
"""


def census():
    """``{dotted name: kind}`` of every dataclass ``CENSUS`` reports."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", CENSUS], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return {name: kind for kind, name in (line.split() for line in completed.stdout.splitlines())}


def classes_a_snapshot_names():
    """The dotted name of every class a served engine's pickle names — what
    a snapshot can hold: both metrics, each kind the registry serves on them
    (the paper's baselines included), after position updates and a churned
    epoch."""
    named = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            named.add(module + "." + name)
            return super().find_class(module, name)

    rng = random.Random(3)
    network = grid_network(4, 4)
    places = {
        "euclidean": lambda: Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
        "road": lambda: NetworkLocation(0, rng.uniform(0.0, network.edge(0).length)),
    }
    services = {
        "euclidean": open_service(objects=[places["euclidean"]() for _ in range(30)]),
        "road": open_service(metric="road", objects=place_objects(network, 6, seed=3), network=network),
    }
    targets = {"euclidean": places["euclidean"], "road": lambda: rng.randrange(network.vertex_count)}
    with registered(*baseline_kinds(10.0)):
        for metric, service in services.items():
            for kind in query_kinds():
                if query_kind(kind).metric in (None, metric):
                    service.open_query(places[metric](), kind=kind, k=2)
            for session in service.sessions():
                session.update(places[metric]())
            mover, dropped = sorted(service.engine.index.active_indexes())[:2]
            service.apply(
                UpdateBatch(
                    inserts=(targets[metric](),),
                    deletes=(dropped,),
                    moves=((mover, targets[metric]()),),
                )
            )
            for session in service.sessions():
                session.update(places[metric]())
            Recorder(io.BytesIO(pickle.dumps(service.engine))).load()
    return named


@immutable
class Pair:
    """Two ints, kept sorted: a row that normalises its fields."""

    low: int
    high: int = 0

    def __new__(cls, *args, **kwargs):
        row = super(cls, cls).__new__(cls, *args, **kwargs)
        return tuple.__new__(cls, sorted(row))


class TestValueClasses:
    def test_a_value_class_keeps_a_dict_only_where_a_pickle_holds_one(self):
        kinds = census()
        reached = classes_a_snapshot_names() & set(kinds)
        rows = sorted(name for name in reached if kinds[name] == "row")
        slotted = sorted(name for name, kind in kinds.items() if kind == "slots")
        dict_backed = sorted(name for name, kind in kinds.items() if kind == "dict")
        # A snapshot older builds wrote holds every other class it names
        # with a __dict__, which a row cannot load.
        assert rows == SNAPSHOT_ROWS
        assert slotted == ["repro.geometry.point.Point", "repro.roadnet.location.NetworkLocation"]
        assert dict_backed == sorted(reached - {*rows, *slotted} | {GOLDEN_PICKLED})
        assert sum(kind == "row" for kind in kinds.values()) >= 30

    def test_dict_state_survives_the_dataclass_setstate(self):
        # Where ``dataclass(slots=True)`` installs its own __setstate__ (as
        # some Python 3.11 releases do over one written in the class body),
        # the decorator above it still wins.
        @accepts_dict_state
        @dataclass(frozen=True, slots=True)
        class Spot:
            a: int
            b: float

        spot = object.__new__(Spot)
        spot.__setstate__({"b": 2.5, "a": 1})
        assert spot == Spot(1, 2.5)
        spot = object.__new__(Spot)
        spot.__setstate__([3, 4.5])
        assert spot == Spot(3, 4.5)

    def test_a_row_normalises_its_fields_in_its_own_new(self):
        assert Pair(5, 2) == Pair(high=2, low=5) == Pair(2, 5)
        assert (Pair(5, 2).low, Pair(5).high) == (2, 5)
        assert dataclasses.replace(Pair(1, 9), low=20) == Pair(9, 20)
        assert pickle.loads(pickle.dumps(Pair(5, 2))) == Pair(2, 5)
        assert not hasattr(Pair(1), "__dict__") and repr(Pair(1)) == "Pair(low=0, high=1)"
