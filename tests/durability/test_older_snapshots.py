"""Durability directories an older build wrote still recover.

``golden/`` holds one directory per metric written by the build at commit
15e5765 (see ``golden/generate.py``), when every value class a snapshot
reaches pickled a ``__dict__``: its checkpoint holds open sessions of every
kind the metric serves, and its log runs past the checkpoint.  A class that
changes how it pickles without loading the old state breaks these loads
(``read_snapshot`` raises ``SnapshotError``), and a wrong restore shows in
the answers the older build recorded at further positions.
"""

import json
import os
import shutil

import pytest

from repro.durability import read_snapshot, recover_service
from repro.geometry.point import Point
from repro.roadnet.location import NetworkLocation

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "expected.json")) as _handle:
    EXPECTED = json.load(_handle)


def _probe(metric, values):
    return Point(*values) if metric == "euclidean" else NetworkLocation(*values)


@pytest.mark.parametrize("metric", sorted(EXPECTED))
def test_every_snapshot_an_older_build_wrote_loads(metric):
    # Recovery would fall back past an unreadable checkpoint to the initial
    # snapshot and replay the whole log, so each file is read by itself.
    directory = os.path.join(GOLDEN, metric)
    names = sorted(name for name in os.listdir(directory) if name.endswith(".snap"))
    payloads = [read_snapshot(os.path.join(directory, name))[1] for name in names]
    assert len(payloads) == 2 and payloads[0]["sessions"] == []
    assert [(query_id, kind, k) for query_id, k, _, kind in payloads[-1]["sessions"]] == [
        (record["query_id"], record["kind"], record["k"]) for record in EXPECTED[metric]["sessions"]
    ]


@pytest.mark.parametrize("metric", sorted(EXPECTED))
def test_an_older_directory_recovers_with_its_sessions_and_answers(metric, tmp_path):
    expected = EXPECTED[metric]
    # Recovery reopens the log for appending, so it runs on a copy.
    directory = shutil.copytree(os.path.join(GOLDEN, metric), tmp_path / metric)
    service = recover_service(str(directory))
    try:
        assert service.engine.epoch == expected["epoch"]
        assert sorted(service.engine.index.active_indexes()) == expected["population"]
        sessions = service.sessions()
        assert [(s.query_id, s.kind, s.k) for s in sessions] == [
            (record["query_id"], record["kind"], record["k"]) for record in expected["sessions"]
        ]
        probes = [_probe(metric, values) for values in expected["probes"]]
        for session, record in zip(sessions, expected["sessions"]):
            answers = [session.update(probe).result for probe in probes]
            assert [list(result.knn) for result in answers] == record["knn"]
            assert [list(result.knn_distances) for result in answers] == record["knn_distances"]
    finally:
        service.close_wal()
