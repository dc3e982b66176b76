"""WAL framing: round trips, torn tails at every byte offset, corruption.

The log's two failure shapes must stay distinguishable forever: a file
that simply *ends early* (a crash mid-append — possible at any byte) is
repaired by truncation, while an intact record with mangled content (CRC
or sequence mismatch, impossible length) is corruption and must raise the
typed :class:`~repro.errors.WALCorruptError`.
"""

import os

import pytest

from repro.durability import WriteAheadLog, inventory, replay_wal, scan_chain, scan_wal
from repro.durability.wal import WAL_MAGIC, _HEADER, _crc
from repro.errors import ConfigurationError, WALCorruptError
from repro.geometry.point import Point
from repro.service.messages import PositionUpdate, UpdateBatch
from repro.testing import flip_byte, truncate_file
from repro.transport.codec import CloseSession, OpenSession, RefreshRequest, encode

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the CI image ships hypothesis
    HAVE_HYPOTHESIS = False


def sample_messages():
    """A little bit of every record kind the durable service logs."""
    return [
        OpenSession(position=Point(1.0, 2.0), k=3, rho=1.6),
        PositionUpdate(query_id=0, position=Point(4.5, -1.25)),
        RefreshRequest(query_id=0),
        UpdateBatch(inserts=(Point(9.0, 9.0),), deletes=(4,), moves=()),
        CloseSession(query_id=0),
    ]


def write_log(path, messages, fsync="off"):
    with WriteAheadLog(path, fsync=fsync) as wal:
        for message in messages:
            wal.append(message)


class TestRoundTrip:
    def test_append_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        messages = sample_messages()
        write_log(path, messages)
        scan = scan_wal(path)
        assert [record.message for record in scan.records] == messages
        assert [record.seq for record in scan.records] == [1, 2, 3, 4, 5]
        assert scan.torn_bytes == 0
        assert scan.valid_bytes == os.path.getsize(path)
        # The header's length field is the logged frame's wire size: replay
        # bills from it instead of encoding every message again.
        assert [record.size for record in scan.records] == [len(encode(m)) for m in messages]

    def test_reopen_resumes_sequence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages()[:2])
        with WriteAheadLog(path) as wal:
            assert wal.next_seq == 3
            assert wal.append(RefreshRequest(query_id=1)) == 3
        assert [record.seq for record in scan_wal(path).records] == [1, 2, 3]

    def test_replay_after_seq_filters(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages())
        assert [record.seq for record in replay_wal(path, after_seq=3)] == [4, 5]
        assert len(replay_wal(path)) == 5

    def test_fsync_policy_is_validated(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(str(tmp_path / "wal.log"), fsync="sometimes")

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.close()
        with pytest.raises(ConfigurationError):
            wal.append(RefreshRequest(query_id=0))


class TestTornTail:
    """A cut at ANY byte offset must be survivable — the acceptance bar."""

    def test_cut_at_every_byte_offset(self, tmp_path):
        reference = str(tmp_path / "reference.log")
        messages = sample_messages()
        write_log(reference, messages)
        with open(reference, "rb") as handle:
            data = handle.read()
        full_scan = scan_wal(reference)
        boundaries = [record.offset for record in full_scan.records] + [
            full_scan.valid_bytes
        ]
        for cut in range(len(data)):
            path = str(tmp_path / "cut.log")
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            scan = scan_wal(path)  # never raises: truncation is not corruption
            # The intact prefix is exactly the records that fit below the cut.
            survivors = sum(1 for boundary in boundaries[1:] if boundary <= cut)
            assert len(scan.records) == survivors, f"cut at {cut}"
            assert [r.message for r in scan.records] == messages[:survivors]
            assert scan.valid_bytes + scan.torn_bytes == cut
            # The writer repairs the tail and appending keeps working.
            with WriteAheadLog(path) as wal:
                assert wal.next_seq == survivors + 1
                wal.append(RefreshRequest(query_id=99))
            repaired = scan_wal(path)
            assert repaired.torn_bytes == 0
            assert len(repaired.records) == survivors + 1
            assert repaired.records[-1].message == RefreshRequest(query_id=99)
            os.unlink(path)

    def test_torn_tail_records_never_replay(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages())
        truncate_file(path, os.path.getsize(path) - 3)
        assert len(replay_wal(path)) == 4


class TestCorruption:
    def corrupt_and_expect(self, path, offset):
        flip_byte(path, offset)
        with pytest.raises(WALCorruptError):
            scan_wal(path)
        # The writer must refuse it too: corruption is not repairable.
        with pytest.raises(WALCorruptError):
            WriteAheadLog(path)

    def test_flipped_payload_byte_fails_crc(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages())
        middle = scan_wal(path).records[2]
        self.corrupt_and_expect(path, middle.offset + _HEADER.size + 1)

    def test_flipped_sequence_byte_is_corruption(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages())
        middle = scan_wal(path).records[2]
        # Bytes 4..11 of the header hold the sequence number.
        self.corrupt_and_expect(path, middle.offset + 4 + 7)

    def test_flipped_crc_byte_is_corruption(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages())
        middle = scan_wal(path).records[2]
        self.corrupt_and_expect(path, middle.offset + 12)

    def test_impossible_declared_length_is_corruption(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages())
        # Flipping the length's high byte declares a gigabyte-scale payload:
        # unreachable for any legitimate writer, so corruption — not a tail.
        first = scan_wal(path).records[0]
        self.corrupt_and_expect(path, first.offset)

    def test_bad_magic_is_corruption(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages())
        flip_byte(path, 2)
        with pytest.raises(WALCorruptError):
            scan_wal(path)

    def test_crc_valid_record_that_does_not_decode_is_corruption(self, tmp_path):
        """A record can pass its CRC and still carry a frame this build
        cannot decode (a log written by a newer build): that is corruption
        with a path, an offset and a seq — never a bare TransportError —
        so the `insq recover` health report can say so instead of crashing."""
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages())
        record = scan_wal(path).records[2]
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            start = record.offset + _HEADER.size
            length, seq, _ = _HEADER.unpack_from(data, record.offset)
            data[start + 4] = 0x7F  # the frame-type byte, past the length prefix
            crc = _crc(seq, bytes(data[start : start + length]))
            _HEADER.pack_into(data, record.offset, length, seq, crc)
            handle.seek(0)
            handle.write(data)
        for scan in (scan_wal, scan_chain, WriteAheadLog):
            with pytest.raises(WALCorruptError, match=r"seq 3\) does not decode.*0x7f"):
                scan(path)
        report = inventory(str(tmp_path))
        assert report["wal"]["corrupt"] is True
        assert "does not decode" in report["wal"]["error"]
        assert report["healthy"] is False

    def test_cut_inside_the_magic_is_still_a_torn_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_log(path, sample_messages())
        truncate_file(path, len(WAL_MAGIC) // 2)
        assert scan_wal(path).records == ()
        # Reopening re-seeds the magic so the repaired log stays readable.
        with WriteAheadLog(path) as wal:
            wal.append(RefreshRequest(query_id=0))
        assert len(scan_wal(path).records) == 1


if HAVE_HYPOTHESIS:

    finite = st.floats(
        allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
    )
    message_strategy = st.one_of(
        st.builds(
            PositionUpdate,
            query_id=st.integers(min_value=0, max_value=2**31 - 1),
            position=st.builds(Point, finite, finite),
        ),
        st.builds(RefreshRequest, query_id=st.integers(0, 2**31 - 1)),
        st.builds(CloseSession, query_id=st.integers(0, 2**31 - 1)),
        st.builds(
            OpenSession,
            position=st.builds(Point, finite, finite),
            k=st.integers(1, 64),
            rho=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
        ),
    )

    class TestFramingProperty:
        @settings(max_examples=50, deadline=None)
        @given(messages=st.lists(message_strategy, max_size=12))
        def test_any_message_sequence_round_trips(self, tmp_path_factory, messages):
            directory = tmp_path_factory.mktemp("wal-prop")
            path = str(directory / "wal.log")
            write_log(path, messages)
            scan = scan_wal(path)
            assert [record.message for record in scan.records] == messages
            assert [record.seq for record in scan.records] == list(
                range(1, len(messages) + 1)
            )
            assert scan.torn_bytes == 0

        @settings(max_examples=25, deadline=None)
        @given(
            messages=st.lists(message_strategy, min_size=1, max_size=8),
            cut_fraction=st.floats(min_value=0.0, max_value=1.0),
        )
        def test_any_cut_is_a_prefix(self, tmp_path_factory, messages, cut_fraction):
            directory = tmp_path_factory.mktemp("wal-prop")
            path = str(directory / "wal.log")
            write_log(path, messages)
            size = os.path.getsize(path)
            truncate_file(path, int(size * cut_fraction))
            scan = scan_wal(path)
            assert [record.message for record in scan.records] == messages[
                : len(scan.records)
            ]
