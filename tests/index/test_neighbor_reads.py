"""An index write builds no neighbour list: an interior object's list is its
site's link row in the dual.

After every insert and delete ``VoRTree`` re-derives the neighbour lists of
the sites the dual reports changed.  It asks the dual once per mutation
(``DelaunayTriangulation.neighbor_sets``), and the dual hands out each
interior site's link row itself — its keys are the neighbours, already edited
by the mutation — with one row read per site and no ring turned.  A hull
site's row holds ``GHOST``, so its list is a ghost-free frozenset, built again
whenever the site is reported changed: every row whose keys change is a
changed site's.  Only the objects at a site with twins, or next to one, hold
frozensets built by the tree.

``check_lists`` holds that contract after every mutation of a churn over
uniform, grid, stacked-twin and hull-delete inputs: each active object's list
equals a from-scratch rebuild's, never holds ``GHOST``, and is its site's row
(no copy) when the site is interior with no twin at or beside it.  On the
grid a full rebuild draws other jitter and may break co-circular ties the
other way (``delaunay.py``'s module notes), so there the rebuild re-reads
every site of the live dual instead of re-triangulating it.  Three seeded
mutants must fail it: a dual that hands a hull site its raw row, a tree that
keeps a changed hull site's old frozenset, and a tree that hands a new twin's
neighbours their raw rows.
"""

import copy
import inspect
import random
import textwrap

import pytest

from repro.geometry import delaunay
from repro.geometry.delaunay import GHOST, DelaunayTriangulation
from repro.geometry.point import Point
from repro.index import vortree
from repro.index.vortree import VoRTree
from repro.workloads.datasets import uniform_points


class CountingDict(dict):
    """A copy of a dict that counts its subscript reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def rows_of(tree):
    return tree.voronoi._apex


def rebuilt_lists(tree, geometry=True):
    """Every active object's list after a from-scratch rebuild of a copy:
    of the whole diagram, or (``geometry=False``) of the lists alone, every
    site re-read from the copy's live dual."""
    oracle = copy.deepcopy(tree)
    if geometry:
        oracle.full_rebuild()
    else:
        oracle._neighbor_map = {}
        oracle._patch_neighbor_lists(oracle._site_at.values())
    return {index: set(oracle.voronoi_neighbors(index)) for index in oracle.active_indexes()}


def check_lists(tree, geometry=True):
    """Assert every active object's list against the rebuild and the rows."""
    expected = rebuilt_lists(tree, geometry)
    rows = rows_of(tree) if tree.voronoi is not None else {}
    twinned = tree._members.keys()
    for obj in tree.active_indexes():
        held = tree.voronoi_neighbors(obj)
        assert GHOST not in held, f"object {obj}'s list holds GHOST"
        assert held == expected[obj], f"object {obj}'s list is stale"
        row = rows.get(obj)
        if row is not None and GHOST not in row and obj not in twinned and twinned.isdisjoint(row):
            assert tree._neighbor_map[obj] is row, f"object {obj}'s list is a copy of its row"


def hull_objects(tree):
    return [obj for obj in tree.active_indexes() if GHOST in rows_of(tree).get(obj, ())]


def uniform_step(tree, rng):
    if rng.random() < 0.5 and len(tree) > 4:
        tree.delete(rng.choice(tree.active_indexes()))
    else:
        tree.insert(Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0)))


def grid_step(tree, rng):
    if rng.random() < 0.5 and len(tree) > 4:
        tree.delete(rng.choice(tree.active_indexes()))
    else:  # half-spacing lattice: co-circular ties, and twins on the old sites
        tree.insert(Point(rng.randrange(15) * 5.0, rng.randrange(15) * 5.0))


def stacked_step(tree, rng):
    move = rng.random()
    if move < 0.4 and len(tree) > 4:
        tree.delete(rng.choice(tree.active_indexes()))
    elif move < 0.8:
        tree.insert(tree.point(rng.choice(tree.active_indexes())))
    else:
        tree.insert(Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0)))


def hull_step(tree, rng):
    """Delete a hull object, or insert around (and often outside) the hull."""
    if rng.random() < 0.5 and len(tree) > 4:
        tree.delete(rng.choice(hull_objects(tree)))
    else:
        tree.insert(Point(rng.uniform(-200.0, 1_200.0), rng.uniform(-200.0, 1_200.0)))


FAMILIES = {
    "uniform": (lambda: uniform_points(60, extent=1_000.0, seed=17), uniform_step, True),
    "grid": (
        lambda: [Point(x * 10.0, y * 10.0) for x in range(8) for y in range(8)],
        grid_step,
        False,
    ),
    "stacked": (
        lambda: [p for p in uniform_points(20, extent=1_000.0, seed=7) for _ in range(3)],
        stacked_step,
        True,
    ),
    "hull-delete": (lambda: uniform_points(60, extent=1_000.0, seed=19), hull_step, True),
}


def churn_checking_the_lists(family, seed, steps=80, tree_class=VoRTree):
    points, step, geometry = FAMILIES[family]
    tree = tree_class(points())
    check_lists(tree, geometry)
    rng = random.Random(seed)
    for _ in range(steps):
        step(tree, rng)
        check_lists(tree, geometry)
    return tree


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [1, 2])
def test_every_mutation_leaves_each_list_current(family, seed):
    tree = churn_checking_the_lists(family, seed)
    if family == "stacked":
        assert tree._members, "the stacked churn left no twins to check"


def test_a_fresh_tree_lists_are_its_dual_rows():
    """Interior objects hold their rows, so the live view is the row's keys;
    only the hull's objects hold frozensets."""
    tree = VoRTree(uniform_points(300, extent=1_000.0, seed=43))
    rows = rows_of(tree)
    frozen = 0
    for index in tree.active_indexes():
        held = tree._neighbor_map[index]
        if GHOST in rows[index]:
            frozen += 1
            assert type(held) is frozenset and held == rows[index].keys() - {GHOST}
        else:
            assert held is rows[index]
            assert tree.voronoi_neighbors(index) == rows[index].keys()
            assert type(tree.voronoi_neighbors(index)) is type(rows[index].keys())
    assert frozen == len(rows[GHOST]) == len(hull_objects(tree))


class TestTheListCheckBites:
    """Seed the two ways a row-backed list goes wrong, and see each caught."""

    def test_a_hull_site_handed_its_raw_row_is_caught(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(DelaunayTriangulation.neighbor_sets))
        rule = "if GHOST in row else row"
        assert source.count(rule) == 1, "the hull rule moved: re-seed this test"
        namespace = dict(vars(delaunay))
        exec(source.replace(rule, "if False else row"), namespace)
        monkeypatch.setattr(DelaunayTriangulation, "neighbor_sets", namespace["neighbor_sets"])
        with pytest.raises(AssertionError, match="holds GHOST"):
            churn_checking_the_lists("uniform", 1)

    @pytest.mark.parametrize("family", ["uniform", "hull-delete"])
    def test_a_changed_hull_site_left_unread_is_caught(self, family):
        source = textwrap.dedent(inspect.getsource(VoRTree._patch_neighbor_lists))
        read = "self._neighbor_map.update(lists)"
        assert source.count(read) == 1, "the re-read moved: re-seed this test"
        # Keep a frozenset once held: a hull site is never read again.
        stale = (
            "self._neighbor_map.update((site, held) for site, held in lists.items()"
            " if type(self._neighbor_map.get(site)) is not frozenset)"
        )
        namespace = dict(vars(vortree))
        exec(source.replace(read, stale), namespace)

        class Stale(VoRTree):
            _patch_neighbor_lists = namespace["_patch_neighbor_lists"]

        churn_checking_the_lists(family, 1)
        with pytest.raises(AssertionError, match="is stale"):
            churn_checking_the_lists(family, 1, tree_class=Stale)

    def test_a_new_twins_neighbours_handed_their_raw_rows_is_caught(self):
        source = textwrap.dedent(inspect.getsource(VoRTree._patch_neighbor_lists))
        rule = "members.keys().isdisjoint(neighbors)"
        assert source.count(rule) == 1, "the twin rule moved: re-seed this test"
        # Only a site's own twins take the twin path, not its neighbours'.
        namespace = dict(vars(vortree))
        exec(source.replace(rule, "True"), namespace)

        class Blind(VoRTree):
            _patch_neighbor_lists = namespace["_patch_neighbor_lists"]

        churn_checking_the_lists("stacked", 1)
        with pytest.raises(AssertionError, match="is stale"):
            churn_checking_the_lists("stacked", 1, tree_class=Blind)


def test_one_twin_turns_only_the_lists_around_it_into_copies():
    """A twin kept alive through 400 epochs of 4/4 churn on 2 000 points
    leaves the lists away from it on their rows: the frozensets are the
    hull's, the twins' and their site's neighbours'."""
    rng = random.Random(5)
    tree = VoRTree(uniform_points(2_000, extent=1_000.0, seed=41))
    twin, _ = tree.insert(tree.point(0))
    for _ in range(400):
        inserts = [Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0)) for _ in range(4)]
        alive = [obj for obj in tree.active_indexes() if obj not in (0, twin)]
        tree.batch_update(inserts, rng.sample(alive, 4))
    assert tree._members == {0: [0, twin]}
    frozen = [obj for obj, held in tree._neighbor_map.items() if type(held) is frozenset]
    assert len(frozen) <= 60, f"{len(frozen)} of {len(tree)} lists are frozensets"
    check_lists(tree)


def test_a_churned_stream_reads_each_changed_site_once(monkeypatch):
    """One row read per reported site, and no per-site ``neighbors_of``."""
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
    monkeypatch.setattr(
        DelaunayTriangulation, "neighbors_of", forbidden(DelaunayTriangulation.neighbors_of)
    )
    monkeypatch.setattr(
        DelaunayTriangulation,
        "insert_site",
        reporting(DelaunayTriangulation.insert_site, lambda r: r[1]),
    )
    monkeypatch.setattr(
        DelaunayTriangulation,
        "remove_site",
        reporting(DelaunayTriangulation.remove_site, lambda r: r),
    )
    monkeypatch.setattr(DelaunayTriangulation, "neighbor_sets", counting_reader)

    rng = random.Random(47)
    for _ in range(40):
        inserts = [Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0)) for _ in range(3)]
        _, _, changed = tree.batch_update(inserts, rng.sample(tree.active_indexes(), 3))
        rows = rows_of(tree)
        for obj in changed:
            if GHOST not in rows[obj]:
                assert tree._neighbor_map[obj] is rows[obj]

    assert not tree._members  # no twins: every interior list is its row
    assert counts["neighbors_of"] == 0
    assert counts["read"] == counts["reported"] == counts["rows"] > 40 * 6
    patched = {index: set(tree.voronoi_neighbors(index)) for index in tree.active_indexes()}
    tree.full_rebuild()
    assert patched == {index: tree.voronoi_neighbors(index) for index in tree.active_indexes()}
