"""Randomized equivalence tests for the incremental VoR-tree update path.

The acceptance property of the incremental maintenance work: a VoRTree that
has absorbed an arbitrary shuffled sequence of object inserts and deletes
must hold neighbour maps *identical* to a from-scratch rebuild over the
surviving objects — :meth:`VoRTree.full_rebuild` (the pre-incremental O(n)
path) is the oracle.
"""

import pickle
import random

import pytest
from rebuild_reference import RebuildingVoRTree

import repro.obs as obs
from repro.errors import GeometryError
from repro.geometry.point import Point
from repro.geometry.delaunay import delaunay_neighbors
from repro.index.vortree import VoRTree
from repro.workloads.datasets import uniform_points


def snapshot_neighbor_map(tree):
    return {index: set(tree.voronoi_neighbors(index)) for index in tree.active_indexes()}


def bulk_threshold(tree):
    """The smallest burst ``batch_update`` answers with one rebuild."""
    return max(8, int(len(tree) * VoRTree.BULK_REBUILD_FRACTION))


def burst(tree, rng, size):
    """A batch of ``size`` operations: half deletes, the rest inserts."""
    deletes = rng.sample(tree.active_indexes(), size // 2)
    inserts = [
        Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
        for _ in range(size - len(deletes))
    ]
    return inserts, deletes


def fresh_diagram_map(tree):
    """Independent oracle: a brand-new triangulation over the active
    positions.  Objects at one position are twins: each lists its twins and
    every object at a neighbouring position."""
    at = {}
    for index in tree.active_indexes():
        at.setdefault(tree.point(index), []).append(index)
    positions = list(at)
    lists = {}
    for local, neighbors in delaunay_neighbors(positions).items():
        twins = set(at[positions[local]])
        around = {obj for neighbor in neighbors for obj in at[positions[neighbor]]}
        for obj in twins:
            lists[obj] = (around | twins) - {obj}
    return lists


_EXTREMES = (lambda p: p.x, lambda p: -p.x, lambda p: p.y, lambda p: -p.y)


def hull_object(tree, turn):
    """An object with an extreme coordinate: always on the convex hull."""
    extreme = _EXTREMES[turn % 4]
    return min(tree.active_indexes(), key=lambda index: extreme(tree.point(index)))


def apply_random_stream(tree, rng, operations, extent):
    for _ in range(operations):
        if rng.random() < 0.45 and len(tree) > 5:
            tree.delete(rng.choice(tree.active_indexes()))
        else:
            tree.insert(Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent)))


class TestIncrementalEquivalence:
    def test_incremental_matches_full_rebuild_after_shuffled_stream(self):
        rng = random.Random(42)
        tree = VoRTree(uniform_points(100, extent=1_000.0, seed=21))
        for step in range(150):
            apply_random_stream(tree, rng, 1, 1_000.0)
            incremental = snapshot_neighbor_map(tree)
            tree.full_rebuild()
            rebuilt = snapshot_neighbor_map(tree)
            assert incremental == rebuilt, f"diverged at step {step}"
            # full_rebuild replaced the diagram; keep exercising the
            # incremental path from the rebuilt state.

    def test_incremental_matches_independent_diagram(self):
        rng = random.Random(43)
        tree = VoRTree(uniform_points(80, extent=1_000.0, seed=22))
        apply_random_stream(tree, rng, 120, 1_000.0)
        assert snapshot_neighbor_map(tree) == fresh_diagram_map(tree)

    def test_tombstones_never_leak_into_neighbor_lists(self):
        rng = random.Random(44)
        tree = VoRTree(uniform_points(60, extent=1_000.0, seed=23))
        apply_random_stream(tree, rng, 80, 1_000.0)
        active = set(tree.active_indexes())
        for index in active:
            assert tree.voronoi_neighbors(index) <= active

    def test_positions_view_is_live(self):
        tree = VoRTree(uniform_points(20, extent=100.0, seed=24))
        view = tree.positions
        index, _ = tree.insert(Point(55.0, 66.0))
        assert view[index] == Point(55.0, 66.0)
        assert len(view) == len(tree.points)

    def test_mutations_report_their_deltas(self):
        """insert/delete return exactly the objects whose lists changed."""
        tree = VoRTree(uniform_points(50, extent=1_000.0, seed=26))
        before = snapshot_neighbor_map(tree)
        index, changed = tree.insert(Point(431.0, 567.0))
        after = snapshot_neighbor_map(tree)
        expected = {
            obj for obj in after if before.get(obj) != after[obj]
        }
        assert index in changed
        assert expected <= changed
        removed, changed = tree.delete(index)
        assert removed
        final = snapshot_neighbor_map(tree)
        assert index not in changed
        assert {obj for obj in final if final[obj] != after.get(obj)} <= changed

    def test_hull_delete_reports_a_local_delta(self):
        """A convex-hull object is patched like any other: no all-objects delta."""
        points = uniform_points(120, extent=1_000.0, seed=33)
        tree = VoRTree(list(points))
        oracle = RebuildingVoRTree(list(points))
        for turn in range(3):
            victim = hull_object(tree, turn)
            old_neighbors = set(tree.voronoi_neighbors(victim))
            before = snapshot_neighbor_map(oracle)
            removed, changed = tree.delete(victim)
            oracle.delete(victim)
            after = snapshot_neighbor_map(oracle)
            assert removed
            assert snapshot_neighbor_map(tree) == after
            assert {obj for obj in after if after[obj] != before[obj]} <= changed
            assert changed <= old_neighbors


class TestPopulationCount:
    def test_len_tracks_the_active_set_through_every_mutation_path(self):
        """len() is a counter now; it must agree with the scan after every step."""
        rng = random.Random(45)
        tree = VoRTree(uniform_points(70, extent=1_000.0, seed=34))

        def random_points(count):
            return [
                Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
                for _ in range(count)
            ]

        def check():
            assert len(tree) == len(tree.active_indexes())
            assert len(tree.voronoi.active_indexes()) == len(tree)

        check()
        for _ in range(80):
            roll = rng.random()
            victims = rng.sample(tree.active_indexes(), 3)
            if roll < 0.3:
                tree.insert(random_points(1)[0])
            elif roll < 0.5:
                tree.delete(victims[0])
            elif roll < 0.75:
                # duplicate and unknown deletes must not be counted; five
                # operations stay below the bulk threshold
                tree.batch_update(random_points(3), victims[:2] + [victims[0], 10_000])
            else:
                # at or just above the bulk threshold: one rebuild
                extra = bulk_threshold(tree) - len(victims) + rng.randint(0, 2)
                tree.batch_update(random_points(extra), victims)
            check()


def rebuilds_by_reason():
    return {
        labels.partition("=")[2]: value
        for name, labels, value in obs.REGISTRY.snapshot().counters
        if name == "insq_index_rebuilds_total"
    }


class TestRebuildCounter:
    """``insq_index_rebuilds_total{reason=...}`` names every rebuild that remains."""

    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        obs.reset()
        obs.enable()
        yield
        obs.reset()

    def test_churn_with_hull_deletions_never_rebuilds(self):
        rng = random.Random(46)
        tree = VoRTree(uniform_points(150, extent=1_000.0, seed=35))
        for epoch in range(50):
            hull_victim = hull_object(tree, epoch)
            _, deleted, changed = tree.batch_update(
                inserts=[
                    Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
                    for _ in range(2)
                ],
                deletes=[hull_victim, rng.choice(tree.active_indexes())],
            )
            assert hull_victim in deleted
            assert len(changed) < len(tree) // 2
        assert snapshot_neighbor_map(tree) == fresh_diagram_map(tree)
        assert rebuilds_by_reason() == {"geometry_error": 0, "bulk_threshold": 0}

    def test_each_remaining_rebuild_is_counted_under_its_reason(self):
        tree = VoRTree(uniform_points(30, extent=100.0, seed=36))
        tree.batch_update(deletes=range(1, 1 + bulk_threshold(tree)))
        assert rebuilds_by_reason()["bulk_threshold"] == 1
        # Three objects, one deleted: fewer than three sites remain.
        tiny = VoRTree([Point(0.0, 0.0), Point(9.0, 1.0), Point(4.0, 8.0)])
        tiny.delete(0)
        assert rebuilds_by_reason() == {"geometry_error": 1, "bulk_threshold": 1}
        tree.full_rebuild()  # the oracle's explicit rebuild is not a slow path
        assert sum(rebuilds_by_reason().values()) == 2

    def test_leaving_and_regaining_a_line_are_each_one_rebuild(self):
        """Five objects on a line have no dual.  An object off the line
        builds one from scratch, and its deletion drops it again: two
        rebuilds, both counted."""
        tree = VoRTree([Point(float(x), 0.0) for x in range(5)])
        assert rebuilds_by_reason() == {"geometry_error": 0, "bulk_threshold": 0}
        apex, _ = tree.insert(Point(2.0, 3.0))
        assert rebuilds_by_reason() == {"geometry_error": 1, "bulk_threshold": 0}
        tree.delete(apex)
        assert rebuilds_by_reason() == {"geometry_error": 2, "bulk_threshold": 0}

    @pytest.mark.parametrize("n", [12, 400], ids=["floor", "fraction"])
    def test_the_batch_size_alone_picks_the_path(self, n):
        """A burst one short of ``max(8, BULK_REBUILD_FRACTION n)`` operations is patched
        object by object; one of exactly that many takes the single rebuild.
        Either way the lists equal a from-scratch copy's."""
        rng = random.Random(n)
        tree = VoRTree(uniform_points(n, extent=1_000.0, seed=n))
        for above in (False, True):
            tree.batch_update(*burst(tree, rng, bulk_threshold(tree) - 1 + above))
            assert rebuilds_by_reason()["bulk_threshold"] == above
            lists = snapshot_neighbor_map(tree)
            assert lists == fresh_diagram_map(tree)
            tree.full_rebuild()
            assert snapshot_neighbor_map(tree) == lists


def near_stacks(seed):
    """Sixty uniform sites on a 100 x 100 square, every third stacked three
    deep, then a stream of steps: insert at a live object or 1e-6 beside it,
    then delete a live object.  Yields ``(tree, step, op, argument)``."""
    rng = random.Random(100 + seed)
    points = []
    for i in range(60):
        point = Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        points += [point] * (3 if i % 3 == 0 else 1)
    tree = VoRTree(points)
    rng = random.Random(seed)
    for step in range(100):
        base = tree.point(rng.choice(tree.active_indexes()))
        if rng.random() >= 0.3:
            offset = 1e-6 * rng.uniform(0.5, 1.0)
            base = Point(base.x + offset, base.y - offset / 2)
        yield tree, step, tree.insert, base
        yield tree, step, tree.delete, rng.choice(tree.active_indexes())


def tree_state(tree):
    return len(tree), len(tree.positions), tree.active_indexes(), snapshot_neighbor_map(tree)


class TestRefusedUpdates:
    """An update whose fallback rebuild fails too raises ``GeometryError``
    from the tree as it was before the update: nothing half done."""

    @pytest.mark.parametrize("seed", [18, 20])
    def test_a_refused_step_leaves_the_tree_as_it_was(self, seed):
        refused = 0
        for tree, step, operation, argument in near_stacks(seed):
            before = tree_state(tree)
            try:
                operation(argument)
            except GeometryError:
                refused += 1
                assert tree_state(tree) == before, (step, operation.__name__)
        # Both seeds reach a delete whose population no triangulation takes
        # (at steps 51 and 82), and the stream goes on past it.
        assert refused >= 1 and step == 99

    def test_a_refused_bulk_rebuild_leaves_the_tree_as_it_was(self):
        for tree, _, operation, victim in near_stacks(18):
            before = tree_state(tree)
            try:
                operation(victim)
            except GeometryError:
                break
        # The same distinct positions through the bulk path: the refused
        # victim leaves, and twins of another object fill the burst.
        other = next(index for index in tree.active_indexes() if index != victim)
        twins = [tree.point(other)] * (bulk_threshold(tree) - 1)
        with pytest.raises(GeometryError):
            tree.batch_update(inserts=twins, deletes=[victim])
        assert tree_state(tree) == before


def refused_step(seed):
    """Drive ``near_stacks(seed)`` to its first refused step: ``(tree, victim, state)``,
    the tree as the refusal left it (which is as it was before the step)."""
    for tree, _, operation, argument in near_stacks(seed):
        before = tree_state(tree)
        try:
            operation(argument)
        except GeometryError:
            return tree, argument, before
    raise AssertionError("the stream has no refused step")


class TestRefusedBatches:
    """A batch refused on its per-object path takes back the operations it
    applied before the refusal: the population is the one before the batch,
    and its lists a fresh build's (the near stacks' incremental lists are
    degenerate, so the rebuild may differ from them).  The error's ``delta``
    reports every active object as changed, so an engine can tell its
    sessions; a batch refused at its first operation reports none."""

    SHAPES = {
        "an-insert": lambda victim, far: {"inserts": [Point(50.0, 50.0)], "deletes": [victim]},
        "two-inserts": lambda victim, far: {
            "inserts": [Point(50.0, 50.0), Point(5.0, 95.0)],
            "deletes": [victim],
        },
        "a-delete": lambda victim, far: {"deletes": [far, victim]},
    }

    # Seed 20 takes its victim once the far object has gone: no "a-delete" there.
    @pytest.mark.parametrize(
        "seed, shape",
        [
            (18, "a-delete"),
            (18, "an-insert"),
            (18, "two-inserts"),
            (20, "an-insert"),
            (20, "two-inserts"),
        ],
    )
    def test_a_refused_batch_takes_back_what_it_applied(self, seed, shape):
        tree, victim, before = refused_step(seed)
        at = tree.point(victim)
        far = max(tree.active_indexes(), key=lambda i: tree.point(i).distance_to(at))
        with pytest.raises(GeometryError) as refused:
            tree.batch_update(**self.SHAPES[shape](victim, far))
        assert tree_state(tree)[:3] == before[:3]  # len, positions, active set
        assert refused.value.delta == ([], [], set(tree.active_indexes()))
        assert snapshot_neighbor_map(tree) == fresh_diagram_map(tree)
        check_rows(tree)
        # The tree goes on updating.
        index, _ = tree.insert(Point(20.0, 80.0))
        assert index == len(tree.positions) - 1 and len(tree) == before[0] + 1

    def test_a_batch_refused_at_its_first_operation_leaves_even_the_lists(self):
        tree, victim, before = refused_step(18)
        with pytest.raises(GeometryError) as refused:
            tree.batch_update(deletes=[victim, tree.active_indexes()[0]])
        assert tree_state(tree) == before
        assert refused.value.delta is None

    def test_when_the_rollback_is_refused_too_the_applied_steps_stand(self, monkeypatch):
        tree, victim, before = refused_step(18)

        def refuse(reason=None):
            raise GeometryError("refused")

        monkeypatch.setattr(tree, "_rebuild_neighbor_map", refuse)
        with pytest.raises(GeometryError) as refused:
            tree.batch_update(inserts=[Point(50.0, 50.0)], deletes=[victim])
        new_index = before[1]  # the first id past every position before
        assert len(tree) == before[0] + 1 and tree.is_active(new_index)
        new_indexes, deleted, changed = refused.value.delta
        assert new_indexes == [new_index] and deleted == [] and new_index in changed
        monkeypatch.undo()
        check_rows(tree)

    @pytest.mark.parametrize("applied", [True, False], ids=["rebuilt", "untouched"])
    def test_the_engine_raises_before_its_epoch(self, applied):
        """No epoch either way; the sessions hear of every list the rollback
        rebuilt, and of nothing when the batch was refused at its first step."""
        from repro.core.server import MovingKNNServer

        stream = near_stacks(18)
        tree, _, operation, argument = next(stream)
        engine = MovingKNNServer(list(tree.positions))
        for position in (Point(30.0, 30.0), Point(70.0, 60.0)):
            engine.register_query(position, k=3)
        mirror = {"insert": engine.insert_object, "delete": engine.delete_object}
        while True:
            try:
                operation(argument)
            except GeometryError:
                break
            mirror[operation.__name__](argument)
            tree, _, operation, argument = next(stream)
        for registered in engine:  # settle every pending delta
            engine.update_position(registered.query_id, registered.processor.last_position)
        epoch, population = engine.epoch, engine.object_count
        batch = {"inserts": [Point(50.0, 50.0)]} if applied else {}
        with pytest.raises(GeometryError):
            engine.batch_update(deletes=[argument], **batch)
        assert engine.epoch == epoch and engine.object_count == population
        assert engine.vortree.active_indexes() == tree.active_indexes()
        everyone = frozenset(tree.active_indexes())
        for registered in engine:
            processor = registered.processor
            assert processor.state_stale is applied
            assert processor._pending == ((everyone, frozenset()) if applied else None)
        # The next update settles against the rebuilt lists: I(R) is theirs.
        for registered in engine:
            processor = registered.processor
            engine.update_position(registered.query_id, processor.last_position)
            R = processor.prefetched_set
            assert processor.influential_set == engine.vortree.influential_neighbor_set(R)


class TestBatchUpdate:
    def test_small_batch_matches_per_object_updates(self):
        base = uniform_points(90, extent=1_000.0, seed=25)
        batched = VoRTree(list(base))
        sequential = VoRTree(list(base))

        inserts = [Point(10.0, 20.0), Point(500.0, 510.0), Point(990.0, 40.0)]
        deletes = [3, 17, 55]
        new_indexes, removed, changed = batched.batch_update(inserts, deletes)

        for index in deletes:
            sequential.delete(index)
        expected_new = [sequential.insert(point)[0] for point in inserts]

        assert new_indexes == expected_new
        assert removed == deletes
        # The reported delta never contains deleted objects and always
        # covers the inserted ones.
        assert changed.isdisjoint(removed)
        assert set(new_indexes) <= changed
        assert snapshot_neighbor_map(batched) == snapshot_neighbor_map(sequential)

    def test_large_batch_takes_bulk_path_and_matches(self):
        base = uniform_points(60, extent=1_000.0, seed=26)
        batched = VoRTree(list(base))
        sequential = VoRTree(list(base))
        rng = random.Random(27)
        inserts = [
            Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
            for _ in range(25)
        ]
        deletes = list(range(0, 40, 2))  # 20 deletions: well above the threshold
        batched.batch_update(inserts, deletes)
        for index in deletes:
            sequential.delete(index)
        for point in inserts:
            sequential.insert(point)
        assert snapshot_neighbor_map(batched) == snapshot_neighbor_map(sequential)

    def test_inactive_deletes_are_skipped(self):
        tree = VoRTree(uniform_points(30, extent=100.0, seed=28))
        tree.delete(5)
        new_indexes, removed, _ = tree.batch_update(deletes=[5, 7, 999])
        assert new_indexes == []
        assert removed == [7]

    def test_empty_batch_is_a_noop(self):
        tree = VoRTree(uniform_points(20, extent=100.0, seed=29))
        before = snapshot_neighbor_map(tree)
        assert tree.batch_update() == ([], [], set())
        assert snapshot_neighbor_map(tree) == before

    def test_draining_batch_is_rejected_before_mutating(self):
        tree = VoRTree(uniform_points(10, extent=100.0, seed=30))
        before = snapshot_neighbor_map(tree)
        with pytest.raises(Exception):
            tree.batch_update(deletes=list(range(10)))
        # Nothing was applied: the tree is exactly as before.
        assert len(tree) == 10
        assert snapshot_neighbor_map(tree) == before
        assert tree.nearest(Point(50.0, 50.0), 10)

    def test_full_replacement_batch_is_allowed(self):
        """Deleting every pre-existing object is fine when inserts survive."""
        base = uniform_points(4, extent=100.0, seed=31)
        tree = VoRTree(list(base))
        replacement = [Point(5.0, 5.0), Point(95.0, 5.0), Point(50.0, 95.0)]
        new_indexes, removed, _ = tree.batch_update(replacement, deletes=range(4))
        assert removed == [0, 1, 2, 3]
        assert set(tree.active_indexes()) == set(new_indexes)
        assert snapshot_neighbor_map(tree) == fresh_diagram_map(tree)

    def test_duplicate_deletes_count_once(self):
        tree = VoRTree(uniform_points(30, extent=100.0, seed=32))
        _, removed, _ = tree.batch_update(deletes=[4, 4, 4, 9])
        assert removed == [4, 9]


def check_rows(tree):
    """Every object's coordinate row is its position's ``(x, y)``, tombstones included."""
    assert len(tree.coordinates) == len(tree.positions)
    for index, point in enumerate(tree.positions):
        assert tree.coordinates[index] == (point.x, point.y)


class TestCoordinateRows:
    """The flat ``(x, y)`` rows every search reads never drift from ``positions``."""

    def test_after_every_mutation_path(self):
        rng = random.Random(47)
        tree = VoRTree(uniform_points(150, extent=1_000.0, seed=36))
        check_rows(tree)
        tree.insert(Point(321.5, 654.25))
        check_rows(tree)
        twin, _ = tree.insert(tree.point(9))
        assert tree.coordinates[twin] == tree.coordinates[9]
        check_rows(tree)
        tree.delete(4)
        check_rows(tree)
        bulk = obs.counter("insq_index_rebuilds_total", reason="bulk_threshold")
        before = bulk.value
        new, deleted, _ = tree.batch_update(*burst(tree, rng, bulk_threshold(tree) + 2))
        assert bulk.value == before + 1 and new and deleted
        check_rows(tree)

    def test_a_state_without_the_rows_derives_them(self):
        tree = VoRTree(uniform_points(80, extent=1_000.0, seed=38))
        tree.insert(tree.point(2))
        tree.delete(5)
        state = pickle.loads(pickle.dumps(tree.__dict__))
        del state["_xy"]
        old = VoRTree.__new__(VoRTree)
        old.__setstate__(state)
        check_rows(old)
        assert old.coordinates == tree.coordinates
        query = Point(480.0, 515.0)
        assert old.retrieve(query, 9, hint=3) == tree.retrieve(query, 9, hint=3)
        old.insert(Point(481.0, 514.0))
        check_rows(old)
