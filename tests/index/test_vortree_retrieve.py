"""``VoRTree.retrieve`` against brute force, degenerate inputs first.

Retrieval walks and expands over the stored Voronoi neighbour lists and
accepts the result only when the INS theorem certifies it; everything else
falls back to the linear scan :meth:`VoRTree.nearest`.  Objects at one
position share one site and are each other's neighbours, so they are expanded
like any other.  Whatever the hint and however degenerate the population, the
contract is the same:

* the distances of ``R`` are the brute-force ``count`` smallest (as a
  multiset — at exact ties any of the tied objects is a right answer);
* ``R`` is ordered by ``(distance, index)``, certified or not;
* ``I(R)`` is :meth:`VoRTree.influential_neighbor_set` of that ``R``;
* the distances reported beside ``R`` are ``query.distance_to`` of each
  member, bit for bit (``==``, not approximately), certified or not.

The brute force uses ``math.hypot`` on raw coordinates, not the library's
distance primitives.
"""

import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rebuild_reference import TREES

import repro.obs as obs
from repro.durability.snapshot import read_snapshot, write_snapshot
from repro.errors import QueryError
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.workloads.datasets import clustered_points, uniform_points

REASONS = ("no_seed", "short", "uncertified")


def reason_counts():
    return {
        reason: obs.counter("insq_retrieval_fallbacks_total", reason=reason).value
        for reason in REASONS
    }


def fallbacks():
    return sum(reason_counts().values())


def check_retrieve(tree, query, count, hint):
    nearest, ins, distances = tree.retrieve(query, count, hint)

    def distance(index):
        point = tree.point(index)
        return math.hypot(query.x - point.x, query.y - point.y)

    active = tree.active_indexes()
    assert len(nearest) == len(set(nearest)) == count
    assert set(nearest) <= set(active)
    assert sorted(map(distance, nearest)) == sorted(map(distance, active))[:count]
    keyed = [(distance(index), index) for index in nearest]
    assert keyed == sorted(keyed)
    assert ins == tree.influential_neighbor_set(nearest)
    assert distances == [query.distance_to(tree.point(index)) for index in nearest]
    return nearest, ins


def check_every_hint(tree, query, counts=None):
    """Every count, from every kind of hint: none, each object ever indexed
    (active or deleted) and both out-of-range sides."""
    total = len(tree.positions)
    for count in counts or range(1, len(tree) + 1):
        for hint in (None, -1, total, total + 7, *range(total)):
            check_retrieve(tree, query, count, hint)


hints = st.one_of(st.none(), st.integers(min_value=-3, max_value=260))
coordinates = st.floats(min_value=-50.0, max_value=1050.0, allow_nan=False)


class TestUniformPoints:
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 10_000),
        size=st.integers(4, 250),
        x=coordinates,
        y=coordinates,
        count=st.integers(1, 20),
        hint=hints,
    )
    def test_matches_brute_force_without_falling_back(self, seed, size, x, y, count, hint):
        tree = VoRTree(uniform_points(size, extent=1_000.0, seed=seed))
        before = fallbacks()
        check_retrieve(tree, Point(x, y), min(count, size), hint)
        assert fallbacks() == before

    def test_far_hint_walks_to_the_query(self):
        points = uniform_points(600, extent=1_000.0, seed=9)
        tree = VoRTree(points)
        query = Point(990.0, 990.0)
        far = min(range(len(points)), key=lambda i: points[i].x + points[i].y)
        before = fallbacks()
        nearest, _ = check_retrieve(tree, query, 12, far)
        assert fallbacks() == before
        assert nearest == tree.nearest(query, 12)

    @pytest.mark.parametrize("count", [0, -1, 41])
    def test_impossible_counts_still_raise(self, count):
        tree = VoRTree(uniform_points(40, extent=100.0, seed=2))
        with pytest.raises(QueryError):
            tree.retrieve(Point(1.0, 1.0), count, hint=3)


def brute_knn(points, query, count, alive=None):
    """The ``count`` nearest of ``alive`` (default: all), by ``(distance, index)``."""
    alive = range(len(points)) if alive is None else alive
    return sorted(
        alive, key=lambda i: (math.hypot(query.x - points[i].x, query.y - points[i].y), i)
    )[:count]


class TestBruteForceKnn:
    """``retrieve`` and ``nearest`` on the inputs the plane baselines' old
    R-tree was checked on: a tree built in one go and one grown by inserts,
    clustered data, a query outside the data, every object, and churn."""

    def check(self, tree, points, query, count, alive=None):
        expected = brute_knn(points, query, count, alive)
        assert tree.nearest(query, count) == expected
        for hint in (None, *expected[-1:], len(points) - 1):
            assert check_retrieve(tree, query, count, hint)[0] == expected

    @pytest.mark.parametrize("count", [1, 3, 10, 25])
    def test_built_in_one_go(self, medium_points, count):
        self.check(VoRTree(medium_points), medium_points, Point(321.0, 654.0), count)

    @pytest.mark.parametrize("count", [1, 5, 17])
    def test_grown_by_inserts(self, medium_points, count):
        tree = VoRTree(medium_points[:1])
        for point in medium_points[1:]:
            tree.insert(point)
        self.check(tree, medium_points, Point(777.0, 111.0), count)

    @pytest.mark.parametrize("count", [1, 5, 12])
    def test_clustered(self, count):
        points = clustered_points(200, clusters=5, extent=500.0, seed=61)
        self.check(VoRTree(points), points, Point(111.0, 432.0), count)

    def test_query_outside_the_data_extent(self):
        points = uniform_points(60, extent=100.0, seed=72)
        self.check(VoRTree(points), points, Point(500.0, -300.0), 4)

    def test_count_equal_to_the_population(self):
        points = uniform_points(5, extent=10.0, seed=63)
        self.check(VoRTree(points), points, Point(0.0, 0.0), 5)

    def test_every_third_object_deleted(self, medium_points):
        tree = VoRTree(medium_points)
        removed = set(range(0, len(medium_points), 3))
        for index in removed:
            assert tree.delete(index)[0]
        alive = [i for i in range(len(medium_points)) if i not in removed]
        self.check(tree, medium_points, Point(444.0, 555.0), 7, alive)

    def test_random_inserts_and_deletes(self):
        rng = random.Random(99)
        points = [Point(rng.uniform(0, 100), rng.uniform(0, 100))]
        tree = VoRTree(points)
        for _ in range(300):
            if rng.random() < 0.6 or len(tree) == 1:
                points.append(Point(rng.uniform(0, 100), rng.uniform(0, 100)))
                assert tree.insert(points[-1])[0] == len(points) - 1
            else:
                assert tree.delete(rng.choice(tree.active_indexes()))[0]
        alive = tree.active_indexes()
        self.check(tree, points, Point(50.0, 50.0), min(10, len(alive)), alive)

    def test_grown_by_inserts_keeps_the_built_trees_lists(self, medium_points):
        built = VoRTree(medium_points)
        grown = VoRTree(medium_points[:1])
        for point in medium_points[1:]:
            grown.insert(point)
        assert grown.active_indexes() == built.active_indexes()
        for index in built.active_indexes():
            assert grown.voronoi_neighbors(index) == built.voronoi_neighbors(index)

    def test_the_distances_come_sorted(self):
        points = uniform_points(80, extent=100.0, seed=62)
        nearest, _, distances = VoRTree(points).retrieve(Point(50.0, 50.0), 10)
        assert len(nearest) == len(distances) == 10
        assert distances == sorted(distances)

    def test_the_whole_population_in_distance_order(self, medium_points):
        tree = VoRTree(medium_points)
        self.check(tree, medium_points, Point(500.0, 500.0), len(medium_points))

    def test_a_deleted_object_is_no_longer_retrieved(self, medium_points):
        tree = VoRTree(medium_points)
        target = medium_points[17]
        assert tree.delete(17)[0]
        assert len(tree) == len(medium_points) - 1
        alive = [i for i in range(len(medium_points)) if i != 17]
        self.check(tree, medium_points, target, 3, alive)
        assert 17 not in check_retrieve(tree, target, 3, 17)[0]

    def test_deleting_a_missing_object_changes_nothing(self, medium_points):
        tree = VoRTree(medium_points)
        assert tree.delete(3)[0]
        for index in (3, -1, len(medium_points)):
            assert tree.delete(index) == (False, set())
        assert len(tree) == len(medium_points) - 1

    def test_deleting_down_to_one_object(self):
        points = uniform_points(30, extent=100.0, seed=50)
        tree = VoRTree(points)
        for index in range(1, len(points)):
            assert tree.delete(index)[0]
        assert tree.active_indexes() == [0]
        self.check(tree, points, Point(50.0, 50.0), 1, [0])
        with pytest.raises(QueryError):
            tree.delete(0)


def layout(name, rng):
    """Populations in [0, 10]², degenerate ones included."""
    if name == "uniform":
        return [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(30)]
    if name == "lattice":  # 6x6, spacing 2: squares of four co-circular objects
        return [Point(2.0 * i, 2.0 * j) for i in range(6) for j in range(6)]
    if name == "collinear":
        return [Point(float(i), float(i)) for i in range(11)]
    singles = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(14)]
    return singles + singles[:5] + singles[:2]  # twins and triples


class TestJumpAndWalk:
    """Point location over the neighbour lists alone (white box): from any
    live object, and from the strided jump when there is no hint, the greedy
    walk stops on an object at the brute-force nearest distance."""

    @settings(max_examples=80)
    @given(
        name=st.sampled_from(["uniform", "lattice", "collinear", "twins"]),
        seed=st.integers(0, 10_000),
        # Halves of integers: lattice points, edge midpoints, square centres.
        x=st.integers(-4, 24).map(lambda v: v / 2.0),
        y=st.integers(-4, 24).map(lambda v: v / 2.0),
        deletes=st.integers(0, 6),
    )
    def test_every_start_ends_on_a_nearest_object(self, name, seed, x, y, deletes):
        rng = random.Random(seed)
        tree = VoRTree(layout(name, rng))
        for index in rng.sample(tree.active_indexes(), deletes):
            tree.delete(index)
        active = tree.active_indexes()
        truth = min(math.hypot(x - tree.point(i).x, y - tree.point(i).y) for i in active)
        for start in (tree._jump((x, y)), *active):
            distance, stop = tree._walk((x, y), start)
            assert tree.is_active(stop)
            assert distance == math.hypot(x - tree.point(stop).x, y - tree.point(stop).y)
            assert distance == truth

    def test_the_jump_samples_a_cube_root_of_the_live_objects(self):
        """n = 1000: every 100th index, ten samples, the nearest of them."""
        tree = VoRTree(uniform_points(1000, extent=1_000.0, seed=3))
        x, y = 250.0, 750.0
        samples = range(0, 1000, 100)
        assert tree._jump((x, y)) == min(
            samples, key=lambda i: math.hypot(x - tree.point(i).x, y - tree.point(i).y)
        )

    def test_a_jump_that_samples_only_tombstones_starts_at_the_first_live_object(self):
        """Ten live objects of forty, none at a multiple of the stride (5)."""
        tree = VoRTree(uniform_points(40, extent=100.0, seed=5))
        live = {1, 2, 3, 6, 7, 9, 11, 13, 14, 17}
        tree.batch_update(deletes=[i for i in range(40) if i not in live])
        assert len(tree) == 10
        assert tree._jump((50.0, 50.0)) == 1
        check_every_hint(tree, Point(50.0, 50.0), counts=(1, 3, 10))

    def test_an_insert_is_located_by_one_walk(self, monkeypatch):
        """The walk's nearest object starts the dual's search for the first
        bad triangle: a churned stream never runs the dual's own descent."""
        rng = random.Random(41)
        tree = VoRTree(uniform_points(300, extent=1_000.0, seed=41))
        descents = []
        original = DelaunayTriangulation._nearest_vertex

        def counted(triangulation, point):
            descents.append(point)
            return original(triangulation, point)

        monkeypatch.setattr(DelaunayTriangulation, "_nearest_vertex", counted)
        for _ in range(40):
            tree.batch_update(
                inserts=[Point(rng.uniform(-50, 1_050), rng.uniform(-50, 1_050)) for _ in range(3)],
                deletes=rng.sample(tree.active_indexes(), 3),
            )
        assert len(tree) == 300
        assert descents == []
        check_every_hint(tree, Point(500.0, 500.0), counts=(1, 8))


class TestNearestKnownAnswers:
    """``nearest()`` on literal inputs, answers written by hand.

    Objects 0-6 around the origin: 0 (0, 0) at distance 0, 4 (1, 0) at 1,
    5 (0, -2) at 2, then 1 (3, 4), 2 (-3, -4) and 3 (5, 0) all at exactly 5,
    6 (6, 8) at 10; object 7 is a twin of 1.  Ties go by index.
    """

    POINTS = [
        Point(0.0, 0.0), Point(3.0, 4.0), Point(-3.0, -4.0), Point(5.0, 0.0),
        Point(1.0, 0.0), Point(0.0, -2.0), Point(6.0, 8.0), Point(3.0, 4.0),
    ]

    @pytest.mark.parametrize(
        "count, expected",
        [
            (1, [0]),
            (3, [0, 4, 5]),
            (4, [0, 4, 5, 1]),  # four objects tie at 5: 1 < 2 < 3 < 7
            (5, [0, 4, 5, 1, 2]),
            (6, [0, 4, 5, 1, 2, 3]),
            (7, [0, 4, 5, 1, 2, 3, 7]),  # the twin last among the fives
            (8, [0, 4, 5, 1, 2, 3, 7, 6]),
        ],
    )
    def test_ties_at_the_count_th_distance_go_by_index(self, count, expected):
        assert VoRTree(self.POINTS).nearest(Point(0.0, 0.0), count) == expected

    def test_a_deleted_object_leaves_its_twin(self):
        tree = VoRTree(self.POINTS)
        tree.delete(1)
        assert tree.nearest(Point(0.0, 0.0), 5) == [0, 4, 5, 2, 3]
        assert tree.nearest(Point(0.0, 0.0), 6) == [0, 4, 5, 2, 3, 7]

    def test_off_origin(self):
        # From (3, 0): 3 and 4 at 2, 1 and 7 at 4, 0 at 3, 5 at √13, 2 at √52.
        tree = VoRTree(self.POINTS)
        assert tree.nearest(Point(3.0, 0.0), 2) == [3, 4]
        assert tree.nearest(Point(3.0, 0.0), 5) == [3, 4, 0, 5, 1]
        assert tree.nearest(Point(3.0, 0.0), 6) == [3, 4, 0, 5, 1, 7]


class TestExactTies:
    def test_integer_lattice_at_lattice_points_and_midpoints(self):
        """2 160 of the 3 630 calls tie at the count-th distance and fall
        back, all ``uncertified`` — as many as when an R-tree seeded the
        hintless ones: a tie is uncertifiable from any start."""
        tree = VoRTree([Point(float(i), float(j)) for i in range(6) for j in range(6)])
        before = reason_counts()
        for twice_x in range(0, 11):
            for twice_y in range(0, 11):
                query = Point(twice_x / 2.0, twice_y / 2.0)
                for count in (1, 2, 4, 5, 9, 12):
                    for hint in (None, 0, 14, 35, 99):
                        check_retrieve(tree, query, count, hint)
        after = reason_counts()
        assert {reason: after[reason] - before[reason] for reason in REASONS} == {
            "no_seed": 0, "short": 0, "uncertified": 2160,
        }

    def test_cocircular_points_around_a_centre(self):
        # 16² + 63² = 25² + 60² = 33² + 56² = 39² + 52² = 65²: twenty-four
        # objects exactly on one circle, integer coordinates.
        ring = [
            Point(float(sx * a), float(sy * b))
            for a, b in ((16, 63), (25, 60), (33, 56), (39, 52), (52, 39))
            for sx in (1, -1)
            for sy in (1, -1)
        ] + [Point(65.0, 0.0), Point(-65.0, 0.0), Point(0.0, 65.0), Point(0.0, -65.0)]
        assert [math.hypot(p.x, p.y) for p in ring] == [65.0] * 24
        bystanders = [Point(200.0, 0.0), Point(-180.0, 40.0), Point(30.0, 150.0)]
        tree = VoRTree(ring + bystanders + [Point(0.0, 0.0)])
        centre = len(tree) - 1
        query = Point(0.0, 0.0)
        before = fallbacks()
        assert tree.retrieve(query, 1, hint=3)[0] == [centre]
        assert fallbacks() == before  # the centre alone is strictly nearest
        check_every_hint(tree, query, counts=(1, 2, 5, 24, 25))
        assert fallbacks() > before  # twenty-four objects tie for second
        check_every_hint(tree, Point(3.0, -4.0), counts=(1, 3, 25))

    def test_coincident_pairs(self):
        """Twins are expanded like any other object: the only fallback left
        is ``uncertified``, and only where twins tie at the count-th distance."""
        rng = random.Random(31)
        singles = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(25)]
        tree = VoRTree(singles + singles[:12])
        certified = 0
        for _ in range(40):
            query = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            truth = sorted(
                math.hypot(query.x - tree.point(i).x, query.y - tree.point(i).y)
                for i in tree.active_indexes()
            )
            for count in (1, 2, 3, 7):
                for hint in (None, rng.randrange(37), rng.randrange(37)):
                    before = reason_counts()
                    check_retrieve(tree, query, count, hint)
                    after = reason_counts()
                    moved = {reason for reason in REASONS if after[reason] != before[reason]}
                    assert moved <= {"uncertified"}
                    if moved:
                        assert truth[count - 1] == truth[count]
                    else:
                        certified += 1
        assert certified > 40 * 4 * 3 // 2  # 297 of 480: half the positions are pairs

    @pytest.mark.parametrize("loader", ["pickle", "snapshot"])
    @pytest.mark.parametrize("name", ["dual", "chain"])
    def test_a_pickled_tree_restores_and_serves(self, name, loader, tmp_path):
        """A tree over its dual, or over a chain of collinear sites, restores
        through either reader with its lists, and keeps retrieving and
        updating."""
        if name == "dual":
            tree = VoRTree(uniform_points(24, extent=100.0, seed=5))
            tree.insert(tree.point(3))
            tree.delete(3)
            tree.delete(10)
            tree.insert(Point(50.0, 50.0))
        else:
            tree = VoRTree([Point(float(x), 0.0) for x in range(5)])
            tree.insert(Point(2.0, 0.0))
            tree.delete(0)
        if loader == "pickle":
            tree = pickle.loads(pickle.dumps(tree))
        else:
            tree = read_snapshot(write_snapshot(str(tmp_path), tree, wal_seq=1))[1]
        assert (tree.voronoi is None) == (name == "chain")
        restored = {i: set(tree.voronoi_neighbors(i)) for i in tree.active_indexes()}
        tree.full_rebuild()
        assert restored == {i: set(tree.voronoi_neighbors(i)) for i in tree.active_indexes()}
        query = tree.point(tree.active_indexes()[-1])
        check_every_hint(tree, query, counts=(1, 3, len(tree)))
        index, changed = tree.insert(Point(query.x + 0.5, query.y + 0.25))
        assert index in changed
        assert tree.delete(tree.active_indexes()[0])[0]
        check_every_hint(tree, query, counts=(1, 3, len(tree)))

    @pytest.mark.parametrize(
        "seed, maintenance",
        [
            (9, "rebuild"), (16, "incremental"), (16, "rebuild"), (33, "rebuild"),
            (53, "incremental"), (53, "rebuild"), (90, "incremental"), (90, "rebuild"),
            (95, "rebuild"), (97, "incremental"), (97, "rebuild"), (167, "incremental"),
            (167, "rebuild"), (202, "rebuild"), (277, "rebuild"),
        ],
    )
    def test_dense_stacks_keep_every_mutation_local_to_distinct_positions(
        self, seed, maintenance
    ):
        """Six positions, four of them stacked 2-5 deep: a from-scratch build
        over the stacked objects themselves let "no triangle circumcircle
        contains the new site" escape insert/delete on exactly these streams.
        A position is one site however many objects stand on it."""
        rng = random.Random(seed)
        base = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(6)]
        stacked = [p for p in rng.sample(base, 4) for _ in range(rng.randint(2, 5))]
        tree = TREES[maintenance](base + stacked)
        for _ in range(40):
            move = rng.random()
            if move < 0.4 and len(tree) > 3:
                tree.delete(rng.choice(tree.active_indexes()))
            elif move < 0.8:
                tree.insert(tree.point(rng.choice(tree.active_indexes())))
            else:
                tree.insert(Point(rng.uniform(0, 100), rng.uniform(0, 100)))
            query = Point(rng.uniform(-5, 105), rng.uniform(-5, 105))
            for count in range(1, len(tree) + 1):
                check_retrieve(tree, query, count, rng.choice(tree.active_indexes()))

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 10_000),
        maintenance=st.sampled_from(["incremental", "rebuild"]),
        churn=st.booleans(),
    )
    def test_multiplicities_of_three_and_more(self, seed, maintenance, churn):
        """Three or more objects at one point: when each was a jittered site
        of its own some neighbour lists held only a pair of twins, the walk
        stalled there and the local certificate passed."""
        rng = random.Random(seed)
        base = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(20)]
        stacked = [p for p in rng.sample(base, 4) for _ in range(rng.randint(2, 4))]
        tree = TREES[maintenance](base + stacked)
        for _ in range(12):
            if churn:
                move = rng.random()
                if move < 0.4 and len(tree) > 8:
                    tree.delete(rng.choice(tree.active_indexes()))
                elif move < 0.8:
                    tree.insert(tree.point(rng.choice(tree.active_indexes())))
                else:
                    tree.insert(Point(rng.uniform(0, 100), rng.uniform(0, 100)))
            active = tree.active_indexes()
            total = len(tree.positions)
            for query in (
                Point(rng.uniform(-5, 105), rng.uniform(-5, 105)),
                tree.point(rng.choice(active)),
            ):
                for count in (1, 2, 3, 5, 8):
                    for hint in (None, rng.choice(active), rng.randrange(total), total):
                        check_retrieve(tree, query, count, hint)


class TestTwinsKnownAnswers:
    """Hand-computed answers on a rhombus with twins stacked on one corner.

    Objects 0-3 are the rhombus (-10, 0), (0, -3), (10, 0), (0, 3).  The
    short diagonal 1-3 is Delaunay (the circle through 0, 1, 3 has centre
    (-4.55, 0) and radius 5.45, far from 2), the long one 0-2 is not, so
    the lists are 0: {1, 3}, 1: {0, 2, 3}, 2: {1, 3}, 3: {0, 1, 2}.  Twins
    appended at (-10, 0) share site 0.  The query (-9, 0.5) is 1.118 from
    the stack, 9.34 from 3, 9.66 from 1 and 19.01 from 2.
    """

    QUERY = Point(-9.0, 0.5)

    def rhombus(self, twins=0):
        corners = [Point(-10.0, 0.0), Point(0.0, -3.0), Point(10.0, 0.0), Point(0.0, 3.0)]
        return VoRTree(corners + [Point(-10.0, 0.0)] * twins)

    def lists(self, tree):
        return {i: set(tree.voronoi_neighbors(i)) for i in tree.active_indexes()}

    def certified(self, tree, count):
        """``retrieve`` with no fallback counted; the rebuild oracle agrees on the lists."""
        before = fallbacks()
        answer = check_retrieve(tree, self.QUERY, count, hint=2)
        assert fallbacks() == before
        lists = self.lists(tree)
        tree.full_rebuild()
        assert self.lists(tree) == lists
        return answer

    def test_a_pair(self):
        """Twins 0 and 4 are each other's neighbours and both of 1's and 3's."""
        tree = self.rhombus(twins=1)
        assert self.lists(tree) == {
            0: {1, 3, 4}, 1: {0, 2, 3, 4}, 2: {1, 3}, 3: {0, 1, 2, 4}, 4: {0, 1, 3},
        }
        assert self.certified(tree, 2) == ([0, 4], {1, 3})
        assert self.certified(tree, 3) == ([0, 4, 3], {1, 2})

    def test_a_triple(self):
        tree = self.rhombus(twins=2)
        assert self.certified(tree, 3) == ([0, 4, 5], {1, 3})
        assert self.certified(tree, 4) == ([0, 4, 5, 3], {1, 2})

    def test_twins_split_by_the_answer_are_a_tie(self):
        """k = 1 at the stack: 0 and 4 tie at the first distance, so nothing
        certifies and the scan answers with the lower index."""
        tree = self.rhombus(twins=1)
        before = reason_counts()
        nearest, _ = check_retrieve(tree, self.QUERY, 1, hint=2)
        assert nearest == [0]
        after = reason_counts()
        assert after.pop("uncertified") == before.pop("uncertified") + 1
        assert after == before

    def test_an_insert_on_an_occupied_position(self):
        """The triangulation stays: the stack and its neighbours change, 2 does not."""
        tree = self.rhombus()
        assert tree.insert(Point(-10.0, 0.0)) == (4, {0, 1, 3, 4})
        assert not tree.voronoi.is_active(4)
        assert tree.insert(Point(-10.0, 0.0)) == (5, {0, 1, 3, 4, 5})

    def test_the_representative_leaves_and_a_twin_takes_over(self):
        """Site 0 keeps its id and its triangle; 4 and 5 answer for it."""
        tree = self.rhombus(twins=2)
        assert tree.delete(0) == (True, {1, 3, 4, 5})
        assert tree.voronoi.is_active(0)
        assert self.lists(tree) == {
            1: {2, 3, 4, 5}, 2: {1, 3}, 3: {1, 2, 4, 5}, 4: {1, 3, 5}, 5: {1, 3, 4},
        }
        assert self.certified(tree, 2) == ([4, 5], {1, 3})
        assert tree.delete(4) == (True, {1, 3, 5})
        assert self.lists(tree) == {1: {2, 3, 5}, 2: {1, 3}, 3: {1, 2, 5}, 5: {1, 3}}
        assert self.certified(tree, 1) == ([5], {1, 3})

    def test_the_last_twin_leaves_and_the_site_is_single_again(self):
        tree = self.rhombus(twins=1)
        assert tree.delete(4) == (True, {0, 1, 3})
        assert self.lists(tree) == {0: {1, 3}, 1: {0, 2, 3}, 2: {1, 3}, 3: {0, 1, 2}}
        assert self.certified(tree, 1) == ([0], {1, 3})

    def test_the_last_object_at_a_position_takes_its_site_away(self):
        """With 0 gone, 5 was the stack's last object: the site leaves the
        triangulation and 1, 2, 3 are one triangle."""
        tree = self.rhombus(twins=2)
        tree.delete(0)
        tree.delete(4)
        assert tree.delete(5) == (True, {1, 3})
        assert not tree.voronoi.is_active(0)
        assert self.lists(tree) == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}


class TestTinyAndCollinear:
    @pytest.mark.parametrize(
        "points",
        [
            [Point(1.0, 1.0)],
            [Point(0.0, 0.0), Point(4.0, 0.0)],
            [Point(0.0, 0.0), Point(4.0, 0.0), Point(1.0, 3.0)],
            [Point(0.0, 0.0), Point(2.0, 2.0), Point(4.0, 4.0)],
            [Point(0.0, 0.0), Point(0.0, 0.0)],
        ],
        ids=["one", "two", "triangle", "three-collinear", "two-coincident"],
    )
    def test_populations_of_one_to_three(self, points):
        tree = VoRTree(points)
        for query in (Point(0.0, 0.0), Point(2.0, 0.0), Point(3.0, 1.0), Point(-5.0, 9.0)):
            check_every_hint(tree, query)

    def test_collinear_objects(self):
        tree = VoRTree([Point(float(i), 0.0) for i in range(10)])
        for query in (Point(4.5, 0.0), Point(4.0, 2.0), Point(-3.0, 0.0), Point(4.5, 7.0)):
            check_every_hint(tree, query, counts=(1, 2, 3, 9, 10))

    def test_collinear_objects_plus_one(self):
        tree = VoRTree([Point(float(i), 0.0) for i in range(10)] + [Point(4.5, 3.0)])
        for query in (Point(4.5, 0.0), Point(4.5, 1.5), Point(0.0, 0.0), Point(11.0, -2.0)):
            check_every_hint(tree, query, counts=(1, 2, 3, 5, 11))

    def test_shrinking_to_one_object_and_regrowing(self):
        tree = VoRTree([Point(0.0, 0.0), Point(5.0, 1.0), Point(2.0, 6.0), Point(7.0, 7.0)])
        query = Point(3.0, 3.0)
        for index in (0, 2, 3):
            tree.delete(index)
            check_every_hint(tree, query)
        for point in (Point(1.0, 1.0), Point(6.0, 2.0), Point(3.0, 8.0)):
            tree.insert(point)
            check_every_hint(tree, query)


class TestAfterUpdates:
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        maintenance=st.sampled_from(["incremental", "rebuild"]),
        duplicates=st.booleans(),
    )
    def test_inserts_and_deletes_under_both_maintenance_modes(
        self, seed, maintenance, duplicates
    ):
        rng = random.Random(seed)
        tree = TREES[maintenance](uniform_points(30, extent=100.0, seed=seed))
        for _ in range(25):
            if rng.random() < 0.45 and len(tree) > 6:
                tree.delete(rng.choice(tree.active_indexes()))
            elif duplicates and rng.random() < 0.3:
                tree.insert(tree.point(rng.choice(tree.active_indexes())))
            else:
                tree.insert(Point(rng.uniform(0, 100), rng.uniform(0, 100)))
            query = Point(rng.uniform(-10, 110), rng.uniform(-10, 110))
            count = rng.randint(1, min(12, len(tree)))
            total = len(tree.positions)
            for hint in (None, rng.randrange(total), rng.randrange(total), total + 2):
                check_retrieve(tree, query, count, hint)

    def test_batch_update_bulk_and_incremental_paths(self):
        """Bursts one short of the bulk threshold (patched) and at it (rebuilt)."""
        rng = random.Random(8)
        tree = VoRTree(uniform_points(60, extent=100.0, seed=8))
        for above in (False, True, False, True):
            size = max(8, int(len(tree) * VoRTree.BULK_REBUILD_FRACTION)) - 1 + above
            deletes = rng.sample(tree.active_indexes(), size // 2)
            inserts = [
                Point(rng.uniform(0, 100), rng.uniform(0, 100))
                for _ in range(size - len(deletes))
            ]
            tree.batch_update(inserts, deletes)
            for hint in (None, *deletes, len(tree.positions) - 1):
                check_retrieve(tree, Point(50.0, 50.0), 9, hint)


class TestFallbackReasons:
    """Each reason of ``insq_retrieval_fallbacks_total``, provoked by
    damaging the neighbour map the expansion trusts (white box): the answer
    still comes back right, from the linear scan — its distances included."""

    def moved(self, tree, count, hint, query=Point(0.0, 0.0)):
        before = reason_counts()
        nearest, _ = check_retrieve(tree, query, count, hint)
        assert nearest == tree.nearest(query, count)
        after = reason_counts()
        return {reason for reason in REASONS if after[reason] != before[reason]}

    def islands(self):
        """Objects 0-2 near the query and 3-8 far away, the two groups'
        neighbour lists cut apart."""
        near = [Point(1.0, 0.0), Point(0.0, 2.0), Point(-3.0, -1.0)]
        far = [Point(50.0 + 3 * i, 40.0 + (i * i) % 7) for i in range(6)]
        tree = VoRTree(near + far)
        for index, members in list(tree._neighbor_map.items()):
            island = range(3) if index < 3 else range(3, 9)
            tree._neighbor_map[index] = frozenset(members) & frozenset(island)
        return tree

    def test_no_seed(self):
        tree = VoRTree(uniform_points(20, extent=100.0, seed=6))
        tree._neighbor_map = {index: frozenset() for index in tree.active_indexes()}
        assert self.moved(tree, 3, hint=5) == {"no_seed"}

    def test_short(self):
        assert self.moved(self.islands(), 5, hint=1) == {"short"}

    def test_an_empty_frontier_certifies_only_the_whole_population(self):
        assert self.moved(self.islands(), 3, hint=1) == {"uncertified"}

    def test_a_tie_is_uncertified(self):
        tree = VoRTree([Point(1.0, 0.0), Point(-1.0, 0.0), Point(0.0, 5.0), Point(4.0, -6.0)])
        assert self.moved(tree, 1, hint=0) == {"uncertified"}

    @pytest.mark.parametrize("reason", REASONS)
    def test_each_fallback_reports_the_floats_of_distance_to(self, reason):
        """One case per reason, off the origin so that no distance is round:
        ``check_retrieve`` compares the scan's distances with ``==``."""
        if reason == "no_seed":
            tree, count = VoRTree(uniform_points(20, extent=100.0, seed=6)), 3
            tree._neighbor_map = {index: frozenset() for index in tree.active_indexes()}
        else:
            tree, count = self.islands(), 5 if reason == "short" else 3
        assert self.moved(tree, count, hint=1, query=Point(0.3, -0.7)) == {reason}
