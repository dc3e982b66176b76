"""Durability directories an older build wrote are refused, whole.

``golden/`` holds one directory per metric written by the build at commit
15e5765 (see ``golden/generate.py``): ``INSQSNP1`` snapshots, which pickled a
dict of the engine and its session descriptors, over value classes that
pickled a ``__dict__``.  A build reads only the snapshots it writes, so each
of these files is refused by its format with a typed error that says so —
never half-loaded — and a recovery attempt leaves the directory as it was.
"""

import os
import shutil

import pytest

from repro.durability import read_snapshot, recover_service
from repro.errors import SnapshotError

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
METRICS = ("euclidean", "road")
SNAPSHOTS = sorted(
    os.path.join(metric, name)
    for metric in METRICS
    for name in os.listdir(os.path.join(GOLDEN, metric))
    if name.endswith(".snap")
)


def contents(directory):
    """``{name: bytes}`` of every file in ``directory``."""
    result = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            result[name] = handle.read()
    return result


def test_the_fixtures_hold_a_base_and_a_checkpoint_per_metric():
    assert len(SNAPSHOTS) == 2 * len(METRICS)


@pytest.mark.parametrize("name", SNAPSHOTS)
def test_every_snapshot_an_older_build_wrote_is_refused(name):
    with pytest.raises(SnapshotError, match="b'INSQSNP1' is not b'INSQSNP2': an older build's snapshot"):
        read_snapshot(os.path.join(GOLDEN, name))


@pytest.mark.parametrize("metric", METRICS)
def test_recovering_an_older_directory_is_refused_and_changes_nothing(metric, tmp_path):
    directory = str(shutil.copytree(os.path.join(GOLDEN, metric), tmp_path / metric))
    before = contents(directory)
    with pytest.raises(SnapshotError, match="older build"):
        recover_service(directory)
    assert contents(directory) == before
