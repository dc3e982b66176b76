"""An index write builds no neighbour list: the VoR-tree's lists are the dual's sets.

After every insert and delete ``VoRTree`` re-derives the neighbour lists of
the sites the dual reports changed.  It asks the dual once per mutation
(``VoronoiDiagram.neighbor_sets``), and the dual hands out the sets of its
one neighbour store — already edited by the mutation — without turning a
single link: no row of ``_apex`` read, and no per-site ``neighbors_of``
call.  Counted here over a churned ``batch_update`` stream.
Without twins every list is the store's set itself, and a freshly built
tree's sets are compact: sized as a copy of a filled set is, not as a set
grown by ``add``, which takes a table twice as large.
"""

import random
import sys

from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.point import Point
from repro.geometry.voronoi import VoronoiDiagram
from repro.index.vortree import VoRTree
from repro.workloads.datasets import uniform_points


class CountingDict(dict):
    """A copy of a dict that counts its subscript reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_a_fresh_tree_holds_compact_sets_of_the_store():
    tree = VoRTree(uniform_points(300, extent=1_000.0, seed=43))
    for index in tree.active_indexes():
        held = tree.voronoi_neighbors(index)
        assert held is tree.voronoi.neighbor_sets([index])[index]
        assert sys.getsizeof(held) == sys.getsizeof(set(held))


def test_a_churned_stream_reads_each_changed_site_without_turning_a_link(monkeypatch):
    counts = dict.fromkeys(("neighbors_of", "reported", "read", "rows"), 0)

    def forbidden(method):
        def counted(self, *args):
            counts["neighbors_of"] += 1
            return method(self, *args)

        return counted

    def reporting(method, changed_of):
        def counted(self, *args, **kwargs):
            result = method(self, *args, **kwargs)
            counts["reported"] += len(changed_of(result))
            return result

        return counted

    reader = DelaunayTriangulation.neighbor_sets

    def counting_reader(self, sites):
        sites = list(sites)
        counts["read"] += len(sites)
        apex = self._apex
        self._apex = CountingDict(apex)
        try:
            return reader(self, sites)
        finally:
            counts["rows"] += self._apex.reads
            self._apex = apex

    tree = VoRTree(uniform_points(300, extent=1_000.0, seed=43))
    for cls in (VoronoiDiagram, DelaunayTriangulation):
        monkeypatch.setattr(cls, "neighbors_of", forbidden(cls.neighbors_of))
    monkeypatch.setattr(
        VoronoiDiagram, "insert_site", reporting(VoronoiDiagram.insert_site, lambda r: r[1])
    )
    monkeypatch.setattr(
        VoronoiDiagram, "remove_site", reporting(VoronoiDiagram.remove_site, lambda r: r)
    )
    monkeypatch.setattr(DelaunayTriangulation, "neighbor_sets", counting_reader)

    rng = random.Random(47)
    for _ in range(40):
        inserts = [Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0)) for _ in range(3)]
        _, _, changed = tree.batch_update(inserts, rng.sample(tree.active_indexes(), 3))
        store = tree.voronoi._delaunay._adjacent
        for obj in changed:
            assert tree.voronoi_neighbors(obj) is store[obj]

    assert not tree._members  # no twins: every list is the store's set
    assert counts["neighbors_of"] == 0
    assert counts["read"] == counts["reported"] > 40 * 6
    assert counts["rows"] == 0
    patched = {index: set(tree.voronoi_neighbors(index)) for index in tree.active_indexes()}
    tree.full_rebuild()
    assert patched == {index: tree.voronoi_neighbors(index) for index in tree.active_indexes()}
