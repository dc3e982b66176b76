"""Tests for repro.core.server (the multi-query MkNN server)."""

import pytest

from repro.errors import ConfigurationError, EmptyDatasetError, QueryError
from repro.core.server import MovingKNNServer
from repro.geometry.point import Point
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.workloads.datasets import data_space, uniform_points


def brute_knn(points, active, query, k):
    order = sorted(active, key=lambda i: (query.distance_squared_to(points[i]), i))
    return order[:k]


@pytest.fixture(scope="module")
def dataset():
    return uniform_points(400, extent=1_000.0, seed=500)


class TestRegistration:
    def test_requires_data(self):
        with pytest.raises(EmptyDatasetError):
            MovingKNNServer([])

    def test_register_and_unregister(self, dataset):
        server = MovingKNNServer(dataset)
        first = server.register_query(Point(100, 100), k=3)
        second = server.register_query(Point(900, 900), k=5, rho=2.0)
        assert server.query_count == 2
        assert set(server.query_ids()) == {first, second}
        server.unregister_query(first)
        assert server.query_count == 1
        with pytest.raises(QueryError):
            server.unregister_query(first)

    def test_register_validates_k(self, dataset):
        server = MovingKNNServer(dataset)
        with pytest.raises(ConfigurationError):
            server.register_query(Point(0, 0), k=0)
        with pytest.raises(ConfigurationError):
            server.register_query(Point(0, 0), k=len(dataset))

    def test_unknown_query_update_raises(self, dataset):
        server = MovingKNNServer(dataset)
        with pytest.raises(QueryError):
            server.update_position(42, Point(0, 0))

    def test_unregistering_during_iteration_is_safe(self, dataset):
        """__iter__ walks a snapshot: draining the query set mid-walk must
        not raise 'dictionary changed size during iteration'."""
        server = MovingKNNServer(dataset)
        for i in range(5):
            server.register_query(Point(100.0 * i, 100.0), k=3)
        for record in server:
            server.unregister_query(record.query_id)
        assert server.query_count == 0
        # query_ids() is a snapshot list for the same reason.
        server.register_query(Point(0.0, 0.0), k=2)
        for query_id in server.query_ids():
            server.unregister_query(query_id)
        assert server.query_count == 0


class TestConcurrentQueries:
    def test_each_query_gets_its_own_correct_answers(self, dataset):
        server = MovingKNNServer(dataset)
        trajectories = {
            server.register_query(traj[0], k=3 + offset): traj
            for offset, traj in enumerate(
                random_waypoint_trajectory(
                    data_space(1_000.0), steps=40, step_length=30.0, seed=501 + offset
                )
                for offset in range(3)
            )
        }
        active = list(range(len(dataset)))
        for step in range(1, 41):
            for query_id, trajectory in trajectories.items():
                position = trajectory[step]
                result = server.update_position(query_id, position)
                k = result.k
                expected = brute_knn(dataset, active, position, k)
                expected_kth = position.distance_to(dataset[expected[-1]])
                assert max(result.knn_distances) == pytest.approx(expected_kth)

    def test_queries_share_the_vortree(self, dataset):
        server = MovingKNNServer(dataset)
        a = server.register_query(Point(100, 100), k=3)
        b = server.register_query(Point(200, 200), k=3)
        processors = [registered.processor for registered in server]
        assert processors[0].vortree is processors[1].vortree is server.vortree

    def test_aggregate_stats_sum_per_query_stats(self, dataset):
        server = MovingKNNServer(dataset)
        a = server.register_query(Point(100, 100), k=3)
        b = server.register_query(Point(800, 800), k=4)
        for step in range(1, 11):
            server.update_position(a, Point(100 + 10 * step, 100))
            server.update_position(b, Point(800 - 10 * step, 800))
        per_query = server.per_query_stats()
        aggregate = server.aggregate_stats()
        assert aggregate.timestamps == sum(s.timestamps for s in per_query.values())
        assert aggregate.full_recomputations == sum(
            s.full_recomputations for s in per_query.values()
        )


class TestServerSideObjectUpdates:
    def test_insert_reaches_every_query(self, dataset):
        server = MovingKNNServer(dataset)
        a = server.register_query(Point(500, 500), k=4)
        b = server.register_query(Point(505, 505), k=4)
        new_index = server.insert_object(Point(500.2, 500.2))
        for query_id in (a, b):
            result = server.answer(query_id)
            assert new_index in result.knn

    # (A delete reaching the queries that hold the object is asserted for both
    # metrics in tests/core/test_ins_protocol.py.)

    def test_delete_missing_object_is_noop(self, dataset):
        server = MovingKNNServer(dataset)
        server.register_query(Point(1, 1), k=2)
        assert not server.delete_object(99_999)
