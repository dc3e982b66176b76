"""Snapshot container: checksums, atomic visibility, fallback, round trips.

The low-level container must refuse any damaged file with the typed
:class:`~repro.errors.SnapshotError`, and the high-level payload (a full
serving engine of either metric) must round
trip bit-identically — asserted by checkpointing a driven service and
recovering from the checkpoint with an empty replay suffix.
"""

import os

import pytest

from durability_drivers import (
    ScenarioDriver,
    build_scenario,
    counters_of,
    reference_run,
)
from fault_injection import flip_byte, truncate_file
from repro.durability import (
    DurableKNNService,
    list_snapshots,
    load_latest_snapshot,
    read_snapshot,
    recover_service,
    write_snapshot,
)
from repro.errors import SnapshotError
from repro.service import open_service


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
