"""Unit tests for the continuous-query subsystem (``repro.queries``).

Covers the kind registry, the influential-sites and region processors
against test-local brute force (with the retrievals a blanket
refresh-every-epoch rule would pay as the bound on theirs), the per-kind communication accounting of the serving engine, and
the delta-invalidation hooks of the region processor over a churning
VoR-tree.  The region's hand-worked answers are in
``test_region_known_answers.py``.
"""

import copy
import pickle
import random

import pytest
from blanket_refresh import settle_retrievals

from influential_reference import influential_neighbor_set_from_points
from repro.core.server import MovingKNNServer
from repro.errors import ConfigurationError, QueryError
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.queries import (
    InfluentialResult,
    InfluentialSitesProcessor,
    OrderKRegionProcessor,
    QueryKind,
    RegionResult,
    query_kind,
    query_kinds,
    register_query_kind,
)
from repro.service.service import open_service


def random_points(count, seed, span=100.0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(count)]


def random_walk(rng, start, steps, step=8.0, span=100.0):
    positions = [start]
    for _ in range(steps):
        last = positions[-1]
        positions.append(
            Point(
                min(span, max(0.0, last.x + rng.uniform(-step, step))),
                min(span, max(0.0, last.y + rng.uniform(-step, step))),
            )
        )
    return positions


def brute_knn(points, indexes, position, k):
    ranked = sorted(indexes, key=lambda i: (position.distance_to(points[i]), i))
    return ranked[:k]


class TestRegistry:
    def test_shipped_kinds(self):
        assert query_kinds() == ["influential", "knn", "region"]

    def test_unknown_kind_is_a_typed_error(self):
        with pytest.raises(ConfigurationError, match="unknown query kind"):
            query_kind("isochrone")

    def test_unnamed_kind_is_rejected(self):
        class Nameless(QueryKind):
            def build_processor(self, server, k, rho):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            register_query_kind(Nameless())

    def test_kinds_resolve_to_their_processors(self):
        server = MovingKNNServer(random_points(30, seed=1))
        influential = query_kind("influential").build_processor(server, k=3, rho=1.6)
        region = query_kind("region").build_processor(server, k=3, rho=1.6)
        assert isinstance(influential, InfluentialSitesProcessor)
        assert isinstance(region, OrderKRegionProcessor)

    def test_engine_rejects_unknown_kind(self):
        server = MovingKNNServer(random_points(30, seed=1))
        with pytest.raises(ConfigurationError, match="unknown query kind"):
            server.register_query(Point(50, 50), k=3, kind="isochrone")


class TestInfluentialSitesProcessor:
    def test_sites_match_the_brute_force_oracle_under_churn(self):
        points = random_points(50, seed=5)
        server = MovingKNNServer(points)
        query_id = server.register_query(Point(50, 50), k=3, kind="influential")
        rng = random.Random(17)
        for step, position in enumerate(random_walk(rng, Point(50, 50), 25)):
            result = server.update_position(query_id, position)
            assert isinstance(result, InfluentialResult)
            active = sorted(server.vortree.active_indexes())
            live = server.vortree.positions
            # The oracle: INS of the exact ranked kNN over the active
            # population, computed from scratch on remapped indexes.
            local_of = {index: local for local, index in enumerate(active)}
            members = brute_knn(live, active, position, 3)
            oracle = influential_neighbor_set_from_points(
                [live[index] for index in active],
                [local_of[index] for index in members],
            )
            assert set(result.knn) == set(members)
            assert result.site_set == {active[local] for local in oracle}
            assert result.sites == tuple(sorted(result.site_set))
            if step % 5 == 4:
                server.insert_object(
                    Point(rng.uniform(0, 100), rng.uniform(0, 100))
                )
            if step % 7 == 6:
                victims = [i for i in server.vortree.active_indexes()
                           if i not in result.knn]
                server.delete_object(rng.choice(victims))

    def test_churn_is_absorbed_and_settles_retrieve_less_than_a_blanket_refresh(self):
        points = random_points(40, seed=8)
        server = MovingKNNServer(points)
        query_id = server.register_query(Point(40, 60), k=3, kind="influential")
        rng = random.Random(23)
        settles = []
        for step, position in enumerate(random_walk(rng, Point(40, 60), 20)):
            result = server.update_position(query_id, position)
            tree = server.vortree
            assert set(result.knn) == set(brute_knn(tree.positions, tree.active_indexes(), position, 3))
            assert result.sites == tuple(sorted(tree.influential_neighbor_set(result.knn)))
            if step % 4 == 0 and step:
                settles.append(result)
            if step % 4 == 3:
                # The Euclidean server only churns via insert/delete.
                server.insert_object(Point(rng.uniform(0, 100), rng.uniform(0, 100)))
                victims = [
                    i for i in sorted(server.vortree.active_indexes()) if i not in result.knn
                ]
                server.delete_object(rng.choice(victims))
        retrievals, bound = settle_retrievals(settles)
        assert retrievals < bound
        assert server.stats_for(query_id).absorbed_updates > 0


class TestOrderKRegionProcessor:
    def test_members_are_exact_and_events_mark_region_changes(self):
        points = random_points(45, seed=3)
        server = MovingKNNServer(points)
        query_id = server.register_query(Point(50, 50), k=3, kind="region")
        rng = random.Random(31)
        # Registration already computed the first answer (with its "enter"
        # event), so the first update in the loop is judged against it only
        # once ``previous`` is known — i.e. from the second iteration on.
        previous = None
        events = set()
        for position in random_walk(rng, Point(50, 50), 30):
            result = server.update_position(query_id, position)
            assert isinstance(result, RegionResult)
            active = sorted(server.vortree.active_indexes())
            live = server.vortree.positions
            expected = brute_knn(live, active, position, 3)
            # Region answers re-rank on every timestamp: exact tuples.
            assert list(result.knn) == expected
            if previous is not None:
                if set(result.knn) != previous:
                    assert result.event == "enter"
                    assert set(result.departed) == previous - set(result.knn)
                else:
                    assert result.event == "stay"
                    assert result.departed == ()
            events.add(result.event)
            previous = set(result.knn)
        assert {"stay", "enter"} <= events

    def test_validation_is_cheap_inside_the_region(self):
        points = random_points(60, seed=12)
        server = MovingKNNServer(points)
        query_id = server.register_query(Point(50, 50), k=2, kind="region")
        server.update_position(query_id, Point(50, 50))
        stats = server.stats_for(query_id)
        recomputes = stats.full_recomputations
        # A vanishing movement cannot leave the order-k cell.
        result = server.update_position(query_id, Point(50.0001, 50.0001))
        assert result.was_valid
        assert result.event == "stay"
        assert stats.full_recomputations == recomputes

    def test_churn_is_absorbed_and_answers_stay_exact(self):
        points = random_points(40, seed=29)
        server = MovingKNNServer(points)
        query_id = server.register_query(Point(30, 70), k=3, kind="region")
        rng = random.Random(41)
        settles = []
        for step, position in enumerate(random_walk(rng, Point(30, 70), 22)):
            result = server.update_position(query_id, position)
            tree = server.vortree
            expected = brute_knn(tree.positions, tree.active_indexes(), position, 3)
            assert list(result.knn) == expected
            assert result.knn_distances == tuple(
                position.distance_to(tree.point(index)) for index in expected
            )
            if step % 3 == 0 and step:
                settles.append(result)
            if step % 3 == 2:
                server.insert_object(Point(rng.uniform(0, 100), rng.uniform(0, 100)))
                victims = [
                    i for i in sorted(server.vortree.active_indexes()) if i not in result.knn
                ]
                server.delete_object(rng.choice(victims))
        # The delta mode must actually absorb something to be worth having.
        retrievals, bound = settle_retrievals(settles)
        assert retrievals < bound
        assert server.stats_for(query_id).absorbed_updates > 0

    def test_a_pickled_processor_restores(self):
        tree = VoRTree(random_points(30, seed=8))
        processor = OrderKRegionProcessor(tree, k=3)
        processor.initialize(Point(50, 50))
        expected = copy.deepcopy(processor).update(Point(60, 40))
        restored = pickle.loads(pickle.dumps(processor))
        assert restored.update(Point(60, 40)) == expected


class TestPerKindAccounting:
    def test_counters_split_by_kind_and_sum_to_aggregate(self):
        service = open_service(objects=random_points(50, seed=7))
        sessions = [
            service.open_query(Point(50, 50), kind="knn", k=3),
            service.open_query(Point(20, 30), kind="influential", k=3),
            service.open_query(Point(70, 40), kind="region", k=3),
        ]
        rng = random.Random(19)
        for _ in range(10):
            for session in sessions:
                session.update(Point(rng.uniform(0, 100), rng.uniform(0, 100)))
        by_kind = service.engine.communication_by_kind()
        assert set(by_kind) == {"knn", "influential", "region"}
        totals = service.engine.communication
        assert sum(c.uplink_messages for c in by_kind.values()) == (
            totals.uplink_messages
        )
        assert sum(c.downlink_messages for c in by_kind.values()) == (
            totals.downlink_messages
        )
        for kind, counters in by_kind.items():
            assert counters.uplink_messages > 0, kind
        assert service.engine.kind_for(sessions[1].query_id) == "influential"
        service.close()

    def test_session_reports_its_kind(self):
        service = open_service(objects=random_points(30, seed=2))
        with service.open_query(Point(10, 10), kind="region", k=2) as session:
            assert session.kind == "region"
            assert "region" in repr(session)
        service.close()


class TestOrderKRegionHooks:
    """The region processor honours the delta contract on a churning tree."""

    @pytest.mark.parametrize("seed", [9, 21, 33])
    def test_answers_stay_exact_under_churn(self, seed):
        rng = random.Random(seed)
        tree = VoRTree(random_points(50, seed=seed + 100))
        processor = OrderKRegionProcessor(tree, k=3)
        position = Point(50, 50)
        processor.initialize(position)
        settles = []
        for step, position in enumerate(random_walk(rng, position, 30)):
            churned = False
            if step % 3 == 1:
                # A plane move: delete, and reinsert under a new index.
                victim = rng.choice(tree.active_indexes())
                moved = Point(rng.uniform(0, 100), rng.uniform(0, 100))
                _, deleted, changed = tree.batch_update([moved], [victim])
                processor.notify_data_update(changed, deleted)
                churned = True
            if step % 10 == 7:
                victim = rng.choice([i for i in tree.active_indexes() if i not in processor._knn])
                _, changed = tree.delete(victim)
                processor.notify_data_update(changed, (victim,))
                churned = True
            result = processor.update(position)
            expected = brute_knn(tree.positions, tree.active_indexes(), position, 3)
            assert list(result.knn) == expected
            assert result.knn_distances == tuple(
                position.distance_to(tree.point(index)) for index in expected
            )
            if churned:
                settles.append(result)
        retrievals, bound = settle_retrievals(settles)
        assert retrievals < bound
        assert processor.stats.absorbed_updates > 0

    def test_member_removal_forces_recompute(self):
        tree = VoRTree(random_points(30, seed=4))
        processor = OrderKRegionProcessor(tree, k=3)
        result = processor.initialize(Point(50, 50))
        member = result.knn[0]
        _, changed = tree.delete(member)
        processor.notify_data_update(changed, (member,))
        refreshed = processor.update(Point(50, 50))
        assert member not in refreshed.knn
        assert not refreshed.was_valid

    def test_population_guard_survives_removals(self):
        tree = VoRTree(random_points(5, seed=6))
        processor = OrderKRegionProcessor(tree, k=3)
        processor.initialize(Point(50, 50))
        tree.batch_update(deletes=(0, 1))
        processor.notify_data_update(removed=(0, 1))
        with pytest.raises(QueryError):
            processor.update(Point(51, 51))
