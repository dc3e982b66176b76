"""An index write reads each changed site's neighbours with one link rotation.

After every insert and delete ``VoRTree`` re-derives the neighbour lists of
the sites the dual reports changed.  It asks the dual once per mutation
(``VoronoiDiagram.neighbor_sets``), and the dual turns each of those sites'
links exactly once — never through ``neighbors_of``, one call chain per
site.  Counted here over a churned ``batch_update`` stream: the link
rotations (reads of ``_spoke``), their steps (reads of ``_apex``), and the
per-site ``neighbors_of`` calls, which must not happen at all.  Each patched
list must also be sized as a set filled and then frozen is, not as a
``frozenset`` built from a sequence, which takes a table twice as large.
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


def test_a_churned_stream_rotates_each_changed_site_once(monkeypatch):
    counts = dict.fromkeys(
        ("neighbors_of", "reported", "rotations", "steps", "link_lengths"), 0
    )

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
        counts["link_lengths"] += sum(len(self._link(site)) for site in sites)
        spoke, apex = self._spoke, self._apex
        self._spoke, self._apex = CountingDict(spoke), CountingDict(apex)
        try:
            return reader(self, sites)
        finally:
            counts["rotations"] += self._spoke.reads
            counts["steps"] += self._apex.reads
            self._spoke, self._apex = spoke, apex

    for cls in (VoronoiDiagram, DelaunayTriangulation):
        monkeypatch.setattr(cls, "neighbors_of", forbidden(cls.neighbors_of))
    monkeypatch.setattr(
        VoronoiDiagram, "insert_site", reporting(VoronoiDiagram.insert_site, lambda r: r[1])
    )
    monkeypatch.setattr(
        VoronoiDiagram, "remove_site", reporting(VoronoiDiagram.remove_site, lambda r: r)
    )
    monkeypatch.setattr(DelaunayTriangulation, "neighbor_sets", counting_reader)

    tree = VoRTree(uniform_points(300, extent=1_000.0, seed=43))
    rng = random.Random(47)
    for _ in range(40):
        inserts = [Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0)) for _ in range(3)]
        _, _, changed = tree.batch_update(inserts, rng.sample(tree.active_indexes(), 3))
        for obj in changed:
            patched = tree.voronoi_neighbors(obj)
            assert sys.getsizeof(patched) == sys.getsizeof(frozenset(set(patched)))

    assert not tree._members  # no twins: every list is a set the dual froze
    assert counts["neighbors_of"] == 0
    assert counts["rotations"] == counts["reported"] > 40 * 6
    assert counts["steps"] == counts["link_lengths"]
    patched = {index: tree.voronoi_neighbors(index) for index in tree.active_indexes()}
    tree.full_rebuild()
    assert patched == {index: tree.voronoi_neighbors(index) for index in tree.active_indexes()}
