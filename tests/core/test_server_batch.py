"""Tests for the MovingKNNServer batch-update epoch API.

``batch_update`` must be *answer-equivalent* to applying the same object
updates one by one, and both must agree with a brute-force oracle over the
surviving population (the same correctness bar the naive baseline meets by
construction).
"""

import random

import pytest

from repro.baselines import NaiveProcessor
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.workloads.datasets import uniform_points
from repro.index.vortree import VoRTree


def brute_knn(tree, query, k):
    active = tree.active_indexes()
    order = sorted(
        active, key=lambda i: (query.distance_squared_to(tree.point(i)), i)
    )
    return order[:k]


@pytest.fixture(scope="module")
def dataset():
    return uniform_points(300, extent=1_000.0, seed=600)


class TestEpochCounter:
    def test_epoch_advances_once_per_batch(self, dataset):
        server = MovingKNNServer(dataset)
        assert server.epoch == 0
        server.insert_object(Point(1.0, 2.0))
        assert server.epoch == 1
        result = server.batch_update(
            inserts=[Point(3.0, 4.0), Point(5.0, 6.0)], deletes=[0, 1, 2]
        )
        assert server.epoch == 2
        assert result.epoch == 2
        assert len(result.new_indexes) == 2
        assert set(result.deleted_indexes) == {0, 1, 2}

    def test_noop_batch_does_not_advance_epoch(self, dataset):
        server = MovingKNNServer(dataset)
        result = server.batch_update(deletes=[99_999])
        assert server.epoch == 0
        assert result.new_indexes == ()
        assert result.deleted_indexes == ()


class TestBatchAnswers:
    def test_batch_answers_match_per_object_answers(self, dataset):
        """One batch epoch and N single updates yield identical answers."""
        batched = MovingKNNServer(dataset)
        sequential = MovingKNNServer(dataset)
        position = Point(480.0, 520.0)
        b_query = batched.register_query(position, k=6)
        s_query = sequential.register_query(position, k=6)

        rng = random.Random(601)
        inserts = [
            Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
            for _ in range(4)
        ]
        deletes = rng.sample(range(len(dataset)), 5)

        batched.batch_update(inserts=inserts, deletes=deletes)
        for index in deletes:
            sequential.delete_object(index)
        for point in inserts:
            sequential.insert_object(point)

        batched_answer = batched.answer(b_query)
        sequential_answer = sequential.answer(s_query)
        assert batched_answer.knn == sequential_answer.knn
        assert batched_answer.knn_distances == pytest.approx(
            sequential_answer.knn_distances
        )

    def test_batch_stream_stays_correct_against_naive_oracle(self, dataset):
        """Drive a moving query through batched update epochs; every answer
        must match the naive per-timestamp recomputation (and brute force)
        over the current population."""
        k = 5
        server = MovingKNNServer(dataset, allow_incremental=False)
        naive = NaiveProcessor(VoRTree(list(dataset)), k)
        position = Point(200.0, 200.0)
        query_id = server.register_query(position, k=k)
        naive.initialize(position)

        rng = random.Random(602)
        for step in range(1, 25):
            position = Point(200.0 + 25.0 * step, 200.0 + 20.0 * step)
            if step % 4 == 0:
                inserts = [
                    Point(rng.uniform(0.0, 1_000.0), rng.uniform(0.0, 1_000.0))
                    for _ in range(2)
                ]
                deletes = rng.sample(server.vortree.active_indexes(), 2)
                result = server.batch_update(inserts=inserts, deletes=deletes)
                new_indexes, deleted, _ = naive.tree.batch_update(inserts, deletes)
                assert (tuple(new_indexes), tuple(deleted)) == (
                    result.new_indexes,
                    result.deleted_indexes,
                )
            ins_answer = server.update_position(query_id, position)
            naive_answer = naive.update(position)
            expected = brute_knn(server.vortree, position, k)
            assert sorted(ins_answer.knn) == sorted(naive_answer.knn) == sorted(expected)

    def test_register_query_after_heavy_deletion(self, dataset):
        """Prefetch sizing must follow the active population, not the raw
        (tombstone-inclusive) point count."""
        server = MovingKNNServer(list(dataset)[:10])
        server.batch_update(deletes=[0, 1, 2, 3, 4])
        query_id = server.register_query(Point(500.0, 500.0), k=3, rho=2.0)
        answer = server.answer(query_id)
        assert len(answer.knn) == 3
        assert sorted(answer.knn) == sorted(brute_knn(server.vortree, Point(500.0, 500.0), 3))

    def test_queries_share_live_positions_with_the_tree(self, dataset):
        server = MovingKNNServer(dataset)
        query_id = server.register_query(Point(500.0, 500.0), k=3)
        processor = next(iter(server)).processor
        assert processor.vortree is server.vortree
        index = server.insert_object(Point(501.0, 501.0))
        # No copying happened: the processor sees the new object through the
        # shared view immediately.
        assert processor.vortree.coordinates[index] == (501.0, 501.0)
        assert index in server.answer(query_id).knn
