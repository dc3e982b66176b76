"""One frozen delta per epoch, shared by every session's mailbox.

The engine freezes each epoch's ``(changed, removed)`` once.  An INS session
the epoch misses (``removed`` misses R and I(R), ``changed`` misses R) keeps
no pair at all, only its stale mark.  A mailbox with nothing pending keeps a
reaching pair by reference; only a second epoch arriving before its holder
settles makes it build a merged pair of its own, which later epochs extend
in place.  So one epoch copies nothing per session, and an idle session
holds one pair no larger than the distinct objects named.
"""

import dataclasses
import pickle
import random

from repro.core.processor import DeltaMailbox
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.workloads.datasets import data_space, uniform_points

EXTENT = 10_000.0


def anywhere(rng):
    return Point(rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT))


def churn(engine, rng):
    """One epoch: an insert, a delete and a move (a delete + reinsert)."""
    victims = rng.sample(engine.vortree.active_indexes(), 2)
    return engine.batch_update(
        inserts=[anywhere(rng)], deletes=victims[:1], moves=[(victims[1], anywhere(rng))]
    )


def served(sessions, seed=31):
    engine = MovingKNNServer(uniform_points(200, seed=seed))
    walks = [
        random_waypoint_trajectory(data_space(), 40, 150.0, seed=seed + i)
        for i in range(sessions)
    ]
    queries = [engine.register_query(walk[0], k=3 + i % 3) for i, walk in enumerate(walks)]
    return engine, queries, walks


def processors(engine):
    return [registered.processor for registered in engine]


def processor_of(engine, query_id):
    return next(r.processor for r in engine if r.query_id == query_id)


def reaches(processor, changed, removed):
    """Whether a delta meets the session's R, or its I(R) by a removal."""
    held = set(processor.prefetched_set)
    return not (changed.isdisjoint(held) and removed.isdisjoint(held | processor.influential_set))


class TestOneFrozenDeltaPerEpoch:
    def test_one_epoch_leaves_the_same_frozensets_in_every_session_it_reaches(self):
        engine, _, _ = served(sessions=6)
        # The moved object is session 0's nearest: the epoch reaches it.
        rng = random.Random(1)
        victim = processors(engine)[0].prefetched_set[0]
        result = engine.batch_update(inserts=[anywhere(rng)], moves=[(victim, anywhere(rng))])
        changed, removed = result.changed_objects, frozenset(result.deleted_indexes)
        reached = [p for p in processors(engine) if reaches(p, changed, removed)]
        assert 0 < len(reached) < 6
        shared = reached[0]._pending
        assert type(shared[0]) is frozenset and type(shared[1]) is frozenset
        assert shared[0] is changed and shared[1] == removed
        for processor in processors(engine):
            assert processor.state_stale
            if processor in reached:
                assert processor._pending[0] is changed and processor._pending[1] is shared[1]
            else:
                assert processor._pending is None

    def test_the_single_object_mutators_share_their_epoch_too(self):
        engine, _, _ = served(sessions=3)
        near = processors(engine)[0]
        # Each mutation lands at session 0: an insert at its position, a delete in its R.
        mutations = (
            (engine.insert_object, near.last_position),
            (engine.delete_object, near.prefetched_set[-1]),
        )
        for mutate, argument in mutations:
            mutate(argument)
            assert near._pending is not None
            shared = near._pending
            assert all(type(part) is frozenset for part in shared)
            for processor in processors(engine):
                pair = processor._pending
                assert pair is None or (pair[0] is shared[0] and pair[1] is shared[1])
                assert (pair is None) is not reaches(processor, *shared)
                processor._take_pending()

    def test_two_pending_epochs_settle_as_their_union(self):
        engine, _, _ = served(sessions=6)
        rng = random.Random(2)
        first = engine.batch_update(deletes=[processors(engine)[0].prefetched_set[0]])
        second = churn(engine, rng)
        frozen = set(first.changed_objects)
        epochs = [(d.changed_objects, frozenset(d.deleted_indexes)) for d in (first, second)]
        merged = []
        for processor in processors(engine):
            hit_first, hit_second = (reaches(processor, *epoch) for epoch in epochs)
            if hit_first:
                # A pending pair takes the second epoch whether it reaches or not.
                merged.append(processor._pending)
            elif hit_second:
                assert processor._pending[0] is epochs[1][0]
            else:
                assert processor._pending is None
        # Each reached session merged into a pair of its own; the shared epoch is intact.
        assert merged and len({id(pair[0]) for pair in merged}) == len(merged)
        assert all(type(part) is set for pair in merged for part in pair)
        assert first.changed_objects == frozen
        processor = processors(engine)[0]
        changed, removed = processor._take_pending()
        assert changed == first.changed_objects | second.changed_objects
        assert removed == {*first.deleted_indexes, *second.deleted_indexes}
        assert processor._take_pending() == (set(), set())
        assert not processor.state_stale

    def test_a_bare_mailbox_holds_then_merges(self):
        mailbox = DeltaMailbox()
        changed = frozenset({1, 2})
        mailbox.notify_data_update(changed, removed=(9,))
        assert mailbox._pending[0] is changed
        mailbox.notify_data_update([3], removed=[8])
        mailbox.notify_data_update(removed={7})
        assert changed == {1, 2}
        assert mailbox._take_pending() == ({1, 2, 3}, {7, 8, 9})

    def test_an_idle_session_holds_one_pair_through_a_thousand_epochs(self):
        engine, (busy, idle), walks = served(sessions=2, seed=33)
        rng = random.Random(3)
        named_changed, named_removed = set(), set()
        for epoch in range(1_000):
            result = churn(engine, rng)
            named_changed |= result.changed_objects
            named_removed.update(result.deleted_indexes)
            engine.update_position(busy, walks[0][1 + epoch % 39])
        processor = processor_of(engine, idle)
        assert [name for name in vars(processor) if name.startswith("_pending")] == ["_pending"]
        changed, removed = processor._pending
        assert changed == named_changed and removed == named_removed
        answer = engine.update_position(idle, walks[1][1])
        tree = engine.vortree
        expected = sorted(walks[1][1].distance_to(tree.point(i)) for i in tree.active_indexes())
        assert sorted(answer.knn_distances) == expected[: processor.k]


class TestPickledPendingPair:
    """A processor pickled with a delta pending restores with that pair, and
    answers and counts exactly like a twin that was never pickled."""

    @staticmethod
    def twin():
        """A served session with one epoch pending."""
        engine, (query,), (walk,) = served(sessions=1, seed=35)
        rng = random.Random(4)
        for step in range(1, 11):
            churn(engine, rng)
            engine.update_position(query, walk[step])
        churn(engine, rng)
        return engine, query, walk, rng

    def test_the_pending_pair_round_trips(self):
        engine, query, walk, rng = self.twin()
        twin, _, _, twin_rng = self.twin()
        pending = processor_of(engine, query)._pending
        restored = pickle.loads(pickle.dumps(engine))
        processor = processor_of(restored, query)
        assert processor._pending == pending and processor.state_stale
        for served_engine, served_rng in ((restored, rng), (twin, twin_rng)):
            churn(served_engine, served_rng)
        for step in (11, 12):
            assert restored.update_position(query, walk[step]) == twin.update_position(
                query, walk[step]
            )
        stats = [served_engine.stats_for(query) for served_engine in (restored, twin)]
        assert integers(stats[0]) == integers(stats[1])


def integers(stats):
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if isinstance(getattr(stats, field.name), int)
    }
