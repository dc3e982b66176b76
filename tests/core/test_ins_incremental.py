"""Tests for the INS processor's case-(i) incremental update mode and for
data-object updates (Section III, last paragraph)."""

import pytest

from repro.core.ins_euclidean import INSProcessor
from repro.core.server import MovingKNNServer
from repro.core.objects import UpdateAction
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.simulation.server_sim import check_knn_answer
from repro.trajectory.euclidean import random_waypoint_trajectory
from repro.workloads.datasets import data_space, uniform_points


@pytest.fixture(scope="module")
def dataset():
    return uniform_points(500, extent=1_000.0, seed=400)


@pytest.fixture(scope="module")
def shared_vortree(dataset):
    return VoRTree(dataset)


@pytest.fixture(scope="module")
def trajectory():
    return random_waypoint_trajectory(
        data_space(1_000.0), steps=150, step_length=20.0, seed=401
    )


def walk(processor, trajectory):
    """The processor's answer at every position of ``trajectory``."""
    first = processor.initialize(trajectory[0])
    return [first] + [processor.update(position) for position in trajectory[1:]]


class TestIncrementalMode:
    def test_answers_remain_exact(self, dataset, shared_vortree, trajectory):
        processor = INSProcessor(shared_vortree, k=6, rho=1.6, allow_incremental=True)
        for position, result in zip(trajectory, walk(processor, trajectory)):
            distances = {i: position.distance_to(p) for i, p in enumerate(dataset)}
            assert check_knn_answer(result.knn, distances, 6)

    def test_incremental_updates_replace_full_recomputations(
        self, dataset, shared_vortree, trajectory
    ):
        base = INSProcessor(shared_vortree, k=6, rho=1.0)
        incremental = INSProcessor(shared_vortree, k=6, rho=1.0, allow_incremental=True)
        walk(base, trajectory)
        walk(incremental, trajectory)
        assert incremental.stats.incremental_updates > 0
        assert incremental.stats.full_recomputations < base.stats.full_recomputations
        # Incremental fetches are much smaller than full retrievals, so the
        # total communication volume drops as well.
        assert incremental.stats.transmitted_objects < base.stats.transmitted_objects

    def test_incremental_action_is_reported(self, dataset, shared_vortree, trajectory):
        processor = INSProcessor(shared_vortree, k=6, rho=1.0, allow_incremental=True)
        actions = {result.action for result in walk(processor, trajectory)}
        assert UpdateAction.INCREMENTAL in actions

    def test_disabled_by_default(self, dataset, shared_vortree):
        processor = INSProcessor(shared_vortree, k=4)
        assert not processor.allow_incremental

    def test_incremental_mode_flag_exposed(self, dataset, shared_vortree):
        processor = INSProcessor(shared_vortree, k=4, allow_incremental=True)
        assert processor.allow_incremental


class TestObjectUpdates:
    """Data-object updates reach a query through the engine's repair deltas."""

    def test_inserted_object_enters_the_answer(self, dataset):
        server = MovingKNNServer(dataset)
        query = Point(500.0, 500.0)
        query_id = server.register_query(query, k=5, rho=1.6)
        new_index = server.insert_object(Point(500.3, 500.3))
        result = server.update_position(query_id, query)
        assert new_index in result.knn
        assert result.action is UpdateAction.FULL_RECOMPUTE

    def test_deleted_object_leaves_the_answer(self, dataset):
        server = MovingKNNServer(dataset)
        query = Point(500.0, 500.0)
        query_id = server.register_query(query, k=5, rho=1.6)
        victim = next(iter(server)).first_answer.knn[0]
        assert server.delete_object(victim)
        result = server.update_position(query_id, query)
        assert victim not in result.knn
        assert len(result.knn) == 5

    def test_answers_stay_correct_under_update_stream(self, dataset):
        points = list(dataset)
        server = MovingKNNServer(points)
        trajectory = random_waypoint_trajectory(
            data_space(1_000.0), steps=60, step_length=25.0, seed=402
        )
        query_id = server.register_query(trajectory[0], k=5, rho=1.6)
        active = {i: p for i, p in enumerate(points)}
        import random

        rng = random.Random(403)
        for step, position in enumerate(trajectory[1:], start=1):
            if step % 10 == 0:
                new_point = Point(rng.uniform(0, 1_000), rng.uniform(0, 1_000))
                new_index = server.insert_object(new_point)
                active[new_index] = new_point
            if step % 15 == 0:
                victim = rng.choice(sorted(active))
                if server.delete_object(victim):
                    del active[victim]
            result = server.update_position(query_id, position)
            distances = {i: position.distance_to(p) for i, p in active.items()}
            kth = sorted(distances.values())[4]
            assert all(distances[i] <= kth + 1e-9 for i in result.knn)

    def test_delete_unknown_object_returns_false(self, dataset):
        assert not MovingKNNServer(dataset).delete_object(10_000)


class TestVoRTreeUpdates:
    def test_insert_and_query(self, dataset):
        tree = VoRTree(list(dataset[:50]))
        index, changed = tree.insert(Point(123.0, 456.0))
        assert index in changed
        assert tree.is_active(index)
        assert len(tree) == 51
        assert index in tree.nearest(Point(123.0, 456.0), 1)

    def test_delete_removes_from_queries_and_neighbors(self, dataset):
        tree = VoRTree(list(dataset[:50]))
        victim = tree.nearest(Point(500.0, 500.0), 1)[0]
        removed, changed = tree.delete(victim)
        assert removed and victim not in changed
        assert not tree.is_active(victim)
        assert victim not in tree.nearest(Point(500.0, 500.0), 10)
        for index in tree.active_indexes():
            assert victim not in tree.voronoi_neighbors(index)

    def test_delete_twice_returns_false(self, dataset):
        tree = VoRTree(list(dataset[:10]))
        assert tree.delete(3)[0]
        assert not tree.delete(3)[0]

    def test_cannot_delete_last_object(self):
        from repro.errors import QueryError

        tree = VoRTree([Point(0, 0), Point(1, 1)])
        assert tree.delete(0)[0]
        with pytest.raises(QueryError):
            tree.delete(1)

    def test_neighbor_lookup_of_deleted_object_raises(self, dataset):
        from repro.errors import QueryError

        tree = VoRTree(list(dataset[:20]))
        tree.delete(5)
        with pytest.raises(QueryError):
            tree.voronoi_neighbors(5)

    def test_neighbor_map_stays_consistent_after_updates(self, dataset):
        tree = VoRTree(list(dataset[:40]))
        tree.insert(Point(10.0, 990.0))
        tree.delete(0)
        tree.insert(Point(990.0, 10.0))
        active = tree.active_indexes()
        for index in active:
            for neighbor in tree.voronoi_neighbors(index):
                assert neighbor in active
                assert index in tree.voronoi_neighbors(neighbor)


class TestHeldListsAreSnapshots:
    def test_a_held_list_waits_for_the_delta_to_be_settled(self):
        """The tree's lists are live, edited in place by each update; a
        processor keeps what the server shipped until it settles the delta."""
        points = uniform_points(300, extent=1_000.0, seed=12)
        server = MovingKNNServer(points, allow_incremental=True)
        query = Point(500.0, 500.0)
        query_id = server.register_query(query, k=5)
        processor = next(iter(server)).processor
        member = processor.prefetched_set[0]
        held = processor._neighbor_lists[member]
        shipped = set(held)
        near = server.vortree.point(member)
        server.batch_update(inserts=[Point(near.x + 0.5, near.y + 0.25)])
        assert set(server.vortree.voronoi_neighbors(member)) != shipped
        assert processor._neighbor_lists[member] is held and held == shipped
        server.update_position(query_id, query)
        assert processor._neighbor_lists[member] == server.vortree.voronoi_neighbors(member)
