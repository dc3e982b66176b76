"""Snapshot container: checksums, atomic visibility, fallback, round trips.

The low-level container must refuse any damaged file with the typed
:class:`~repro.errors.SnapshotError` — cut anywhere, any byte flipped, its
length forged, or a valid digest over a payload that names a global outside
the loader's table, which then never runs; the writer refuses such a payload
before any file exists — and the high-level payload (a
full serving engine of either metric) must round trip bit-identically —
asserted by checkpointing a driven service and recovering from the
checkpoint with an empty replay suffix.
"""

import builtins
import hashlib
import os
import pickle
import posix
import random
import struct
import sys

import pytest

import repro.cli
import repro.geometry.point

from durability_drivers import (
    ScenarioDriver,
    build_scenario,
    counters_of,
    reference_run,
)
from fault_injection import flip_byte, truncate_file
from repro.baselines.policies import BaselineKind, NaiveProcessor, baseline_kinds
from repro.durability import (
    DurableKNNService,
    list_snapshots,
    load_latest_snapshot,
    read_snapshot,
    recover_service,
    write_snapshot,
)
from repro.durability.snapshot import SNAPSHOT_MAGIC
from repro.errors import SnapshotError
from repro.geometry.point import Point
from repro.queries.kinds import registered
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.location import NetworkLocation
from repro.service import UpdateBatch, open_service
from repro.workloads.datasets import uniform_points


class TestContainer:
    def test_write_read_round_trip(self, tmp_path):
        directory = str(tmp_path)
        payload = {"answer": 42, "values": [1.5, 2.5]}
        path = write_snapshot(directory, payload, wal_seq=17)
        assert os.path.basename(path) == "snapshot-000000000017.snap"
        wal_seq, restored = read_snapshot(path)
        assert wal_seq == 17
        assert restored == payload

    def test_list_snapshots_sorted_by_seq(self, tmp_path):
        directory = str(tmp_path)
        for seq in (30, 5, 17):
            write_snapshot(directory, {"seq": seq}, wal_seq=seq)
        assert [seq for seq, _ in list_snapshots(directory)] == [5, 17, 30]

    def test_no_tmp_leftovers_after_write(self, tmp_path):
        write_snapshot(str(tmp_path), {"x": 1}, wal_seq=1)
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_flipped_byte_is_a_typed_error(self, tmp_path):
        path = write_snapshot(str(tmp_path), {"x": 1}, wal_seq=1)
        flip_byte(path, os.path.getsize(path) - 1)
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_truncated_header_is_a_typed_error(self, tmp_path):
        path = write_snapshot(str(tmp_path), {"x": 1}, wal_seq=1)
        truncate_file(path, 10)
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_truncated_payload_is_a_typed_error(self, tmp_path):
        path = write_snapshot(str(tmp_path), {"x": "y" * 100}, wal_seq=1)
        truncate_file(path, os.path.getsize(path) - 5)
        with pytest.raises(SnapshotError):
            read_snapshot(path)


def forge_snapshot(path, payload, wal_seq):
    """Write ``payload`` in the snapshot container, valid digest and all, by
    a plain pickle: what :func:`write_snapshot` would refuse to write."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = struct.pack("!QQ", wal_seq, len(data))
    with open(path, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC + header + hashlib.sha256(header + data).digest() + data)
    return path


class _Calls:
    """Unpickles as ``target(*args)``: what a crafted payload would run."""

    def __init__(self, target, *args):
        self.target, self.args = target, args

    def __reduce__(self):
        return self.target, self.args


class TestTheLoaderBoundary:
    """Every damaged or crafted file raises ``SnapshotError`` and nothing else."""

    @staticmethod
    def small_snapshot(directory):
        """The bytes of a real snapshot: a served engine with a session."""
        service = open_service(objects=uniform_points(8, seed=2))
        service.open_session(Point(500.0, 500.0), k=2).update(Point(510.0, 490.0))
        with open(write_snapshot(directory, service.engine, wal_seq=3), "rb") as handle:
            return handle.read()

    @staticmethod
    def refused(path, data):
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_a_cut_anywhere_is_refused(self, tmp_path):
        data = self.small_snapshot(str(tmp_path))
        path = str(tmp_path / "cut.snap")
        for end in range(len(data)):
            self.refused(path, data[:end])

    def test_a_flipped_byte_anywhere_is_refused(self, tmp_path):
        data = self.small_snapshot(str(tmp_path))
        path = str(tmp_path / "flipped.snap")
        for offset in range(len(data)):
            self.refused(path, data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :])

    def test_a_forged_length_is_refused(self, tmp_path):
        data = self.small_snapshot(str(tmp_path))
        at = len(SNAPSHOT_MAGIC) + 8
        (length,) = struct.unpack_from("!Q", data, at)
        for forged in (0, length - 1, length + 1, 2**64 - 1):
            self.refused(str(tmp_path / "forged.snap"), data[:at] + struct.pack("!Q", forged) + data[at + 8 :])

    @pytest.mark.parametrize(
        "module, name, args",
        [
            (posix, "system", ("true",)),
            (builtins, "eval", ("1 + 1",)),
            (repro.cli, "main", ([],)),
            (repro.geometry.point, "centroid", ([],)),
        ],
        ids=["os.system", "builtins.eval", "repro.cli.main", "a-function-beside-a-table-class"],
    )
    def test_a_valid_digest_naming_another_global_runs_nothing(self, tmp_path, monkeypatch, module, name, args):
        payload = {"engine": open_service(objects=uniform_points(8, seed=2)).engine}
        payload["call"] = _Calls(getattr(module, name), *args)
        path = forge_snapshot(str(tmp_path / "forged.snap"), payload, wal_seq=1)
        calls = []
        monkeypatch.setattr(module, name, lambda *args: calls.append(args))
        with pytest.raises(SnapshotError, match=f"names {module.__name__}.{name}, which is no snapshot class"):
            read_snapshot(path)
        assert calls == []

    @pytest.mark.parametrize(
        "target",
        [posix.system, builtins.eval, repro.cli.main, _Calls],
        ids=["os.system", "builtins.eval", "repro.cli.main", "a-test-class"],
    )
    def test_the_writer_refuses_what_the_reader_would(self, tmp_path, target):
        payload = {"engine": open_service(objects=uniform_points(8, seed=2)).engine, "call": target}
        with pytest.raises(SnapshotError, match=f"cannot snapshot .*{target.__name__}: no snapshot class"):
            write_snapshot(str(tmp_path), payload, wal_seq=1)
        assert os.listdir(tmp_path) == []


def test_large_engines_load_at_the_default_recursion_limit(tmp_path, monkeypatch):
    """The engine's state is shallow however large it grows: both metrics
    write and load at the interpreter's default limit, which no snapshot
    read or write changes."""
    rng = random.Random(2)
    plane = open_service(objects=uniform_points(5_000, seed=1))
    anywhere = lambda: Point(rng.uniform(0.0, 10_000.0), rng.uniform(0.0, 10_000.0))
    sessions = [plane.open_query(anywhere(), kind=kind, k=8) for kind in ("knn", "influential", "region")]
    for _ in range(50):
        deleted, moved = rng.sample(plane.active_object_indexes(), 2)
        plane.apply(UpdateBatch(inserts=(anywhere(),), deletes=(deleted,), moves=((moved, anywhere()),)))
        for session in sessions:
            session.update(anywhere())
    network = grid_network(40, 40)
    road = open_service("road", place_objects(network, 800, seed=3), network)
    road.open_query(NetworkLocation(0, 0.0), k=8)
    limit, changes = sys.getrecursionlimit(), []
    sys.setrecursionlimit(1_000)
    monkeypatch.setattr(sys, "setrecursionlimit", changes.append)
    try:
        for seq, service in enumerate((plane, road)):
            _, engine = read_snapshot(write_snapshot(str(tmp_path), service.engine, wal_seq=seq))
            assert sorted(engine.index.active_indexes()) == service.active_object_indexes()
            assert engine.communication == service.engine.communication
        assert changes == []
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("metric", ["euclidean", "road"])
def test_a_checkpoint_of_the_baseline_kinds_recovers(tmp_path, metric):
    """Every baseline kind a durable service serves checkpoints, and the
    service recovers from the snapshot alone with its bill intact."""
    if metric == "road":
        network = grid_network(5, 5)
        objects, place = place_objects(network, 12, seed=4), lambda step: NetworkLocation(step % 8, 0.0)
    else:
        network = None
        objects, place = uniform_points(40, seed=2), lambda step: Point(300.0 + 40.0 * step, 500.0)
    service = DurableKNNService(open_service(metric, objects, network).engine, str(tmp_path))
    with registered(*baseline_kinds(10.0)):
        kinds = [kind.name for kind in baseline_kinds(10.0) if kind.metric == metric]
        sessions = [service.open_query(place(0), kind=kind, k=2) for kind in kinds]
        for step in range(1, 6):
            for session in sessions:
                session.update(place(step))
        service.checkpoint()
        service.close_wal()
        recovered = recover_service(str(tmp_path))
    assert sorted(record.kind for record in recovered.engine) == sorted(kinds)
    assert recovered.engine.communication == service.engine.communication


class _Outside(NaiveProcessor):
    """A processor class no snapshot may name: a kind registered from outside."""


def test_a_kind_outside_the_table_refuses_a_checkpoint_and_keeps_the_log(tmp_path):
    """A checkpoint that the reader would refuse is never written, so nothing
    is purged behind it: the log still recovers the service from seq 0."""
    wal_dir = str(tmp_path / "state")
    service = DurableKNNService(
        open_service(objects=uniform_points(40, seed=2)).engine, wal_dir, segment_bytes=256
    )
    with registered(BaselineKind("outside", "euclidean", _Outside)):
        sessions = [
            service.open_session(Point(500.0, 500.0), k=2),
            service.open_query(Point(200.0, 200.0), kind="outside", k=2),
        ]
        for step in range(20):
            for session in sessions:
                session.update(Point(210.0 + 10.0 * step, 220.0))
        service.wal.sync()
        contents = lambda: {name: (tmp_path / "state" / name).read_bytes() for name in os.listdir(wal_dir)}
        before = contents()
        assert len(before) > 2  # the seq-0 snapshot, sealed segments and the active log
        with pytest.raises(SnapshotError, match="_Outside: no snapshot class"):
            service.checkpoint()
        assert contents() == before
        service.close_wal()
        recovered = recover_service(wal_dir)
        assert recovered.session_count == 2
        assert recovered.engine.communication == service.engine.communication


class TestLatestFallback:
    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        directory = str(tmp_path)
        write_snapshot(directory, {"gen": "old"}, wal_seq=10)
        newest = write_snapshot(directory, {"gen": "new"}, wal_seq=20)
        flip_byte(newest, os.path.getsize(newest) - 1)
        wal_seq, payload, path = load_latest_snapshot(directory)
        assert wal_seq == 10
        assert payload == {"gen": "old"}
        assert path.endswith("snapshot-000000000010.snap")

    def test_every_snapshot_corrupt_is_a_typed_error(self, tmp_path):
        directory = str(tmp_path)
        for seq in (1, 2):
            path = write_snapshot(directory, {"seq": seq}, wal_seq=seq)
            flip_byte(path, os.path.getsize(path) - 1)
        with pytest.raises(SnapshotError):
            load_latest_snapshot(directory)

    def test_empty_directory_is_a_typed_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_latest_snapshot(str(tmp_path / "missing"))


class TestEngineRoundTrip:
    """The payload that matters: full engines, both metrics."""

    @pytest.mark.parametrize("metric", ["euclidean", "road"])
    def test_checkpointed_engine_continues_bit_identically(self, tmp_path, metric):
        reference_driver, reference_service = reference_run(metric)

        scenario = build_scenario(metric)
        wal_dir = str(tmp_path / "state")
        service = DurableKNNService(
            open_service(scenario.metric, scenario.objects, scenario.network).engine, wal_dir
        )
        driver = ScenarioDriver(scenario)
        driver.open_sessions(service)
        half = scenario.timestamps // 2
        driver.run(service, 1, half)
        # Checkpoint, then continue from *the snapshot alone*: the replay
        # suffix is empty, so any divergence is the snapshot's fault.
        service.checkpoint()
        service.close_wal()
        recovered = recover_service(wal_dir)
        driver.rebind(recovered)
        driver.run(recovered, half, scenario.timestamps)

        assert driver.answers == reference_driver.answers
        assert counters_of(recovered) == counters_of(reference_service)
        assert recovered.metric == metric
