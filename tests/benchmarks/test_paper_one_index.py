"""The paper sweep serves every method of a cell from one index.

Each cell opens one serving engine over its data and one query per method,
so a cell builds one VoR-tree (plane) or one network Voronoi diagram (road).
E8 is the exception by design: the server's ``allow_incremental`` is per
engine, so its cell opens one engine, and one index, per value.
"""

import pathlib
import sys

import pytest

# The benchmarks package lives at the repository root, next to tests/.
_REPO_ROOT = str(pathlib.Path(__file__).resolve().parents[2])
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from benchmarks import paper
from repro.index.vortree import VoRTree
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.workloads.scenarios import default_euclidean_scenario


def _uniform():
    return default_euclidean_scenario(
        object_count=300, k=4, steps=20, step_length=40.0, rho=1.6, seed=61
    )


CELLS = {
    "road": (paper.SMOKE["E5"][1][0], [NetworkVoronoiDiagram]),
    "plane": (("n=300", _uniform, paper._named(paper.EUCLIDEAN_METHODS)), [VoRTree]),
    "plane-incremental": (("n=300", _uniform, paper.EXPERIMENTS["E8"][1][0][2]), [VoRTree] * 2),
}


@pytest.mark.parametrize("name", CELLS)
def test_a_cell_builds_one_index(name, index_builds):
    cell, expected = CELLS[name]
    rows = paper.sweep({name: ("smoke", [cell])})
    assert [row["method"] for row in rows] == list(cell[2])
    assert index_builds == expected
