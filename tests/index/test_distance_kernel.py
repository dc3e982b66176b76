"""One plane distance, three spellings, the same bits.

The serving path measures every plane distance with ``math.dist`` over the
VoR-tree's flat ``(x, y)`` rows: the held-set validation, the walk, the jump,
the expansion whose frontier becomes I(R), the scan fallback and the plane
baselines.  Answers, ties and digests stay what they were only because

    dist(q, r) == hypot(q[0] - r[0], q[1] - r[1]) == Point(*q).distance_to(Point(*r))

holds exactly: ``dist`` takes ``|q_i - r_i|`` per axis and hands them to the
same norm ``hypot`` applies to ``|x_i|``.  Every comparison below is on the
floats' bits (``float.hex``), never approximate.
"""

import random
from math import dist, hypot

import pytest

from repro.baselines import NaiveProcessor
from repro.core.ins_euclidean import INSProcessor
from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.workloads.datasets import uniform_points


def _bits(value: float) -> str:
    return float.hex(value)


def _assert_one_kernel(q, r):
    expected = _bits(Point(*q).distance_to(Point(*r)))
    assert _bits(dist(q, r)) == _bits(hypot(q[0] - r[0], q[1] - r[1])) == expected, (q, r)


def _uniform(rng):
    return rng.uniform(0.0, 10_000.0)


def _signed(rng):
    return rng.uniform(-10_000.0, 10_000.0)


def _negative(rng):
    return -rng.uniform(0.0, 10_000.0)


def _any_magnitude(rng):
    # 1e-300 .. 1e300, with a random sign; subnormals come from _subnormal.
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)


def _subnormal(rng):
    return rng.choice((-1.0, 1.0)) * rng.randint(1, 2**52 - 1) * 5e-324


DRAWS = {
    "uniform": _uniform,
    "negative": _negative,
    "mixed_sign": _signed,
    "magnitudes": _any_magnitude,
    "subnormal": _subnormal,
}


class TestOneKernel:
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_seeded_pairs(self, draw):
        rng = random.Random(f"kernel-{draw}")
        value = DRAWS[draw]
        for _ in range(2_000):
            _assert_one_kernel((value(rng), value(rng)), (value(rng), value(rng)))

    def test_magnitudes_meet_subnormals(self):
        rng = random.Random(44)
        for _ in range(2_000):
            draws = [rng.choice((_any_magnitude, _subnormal)) for _ in range(4)]
            coordinates = [draw(rng) for draw in draws]
            _assert_one_kernel(tuple(coordinates[:2]), tuple(coordinates[2:]))

    @pytest.mark.parametrize(
        "q",
        [(0.0, 0.0), (-0.0, 0.0), (3.5, -2.25), (1e300, -1e300), (5e-324, -5e-324)],
    )
    def test_equal_points_are_zero(self, q):
        _assert_one_kernel(q, q)
        assert _bits(dist(q, q)) == _bits(0.0)

    def test_ints_mixed_with_floats(self):
        rng = random.Random(45)
        for _ in range(2_000):
            q = (rng.randint(-10_000, 10_000), rng.uniform(-10_000.0, 10_000.0))
            r = (rng.uniform(-10_000.0, 10_000.0), rng.randint(-10_000, 10_000))
            _assert_one_kernel(q, r)
            _assert_one_kernel(r, q)
            _assert_one_kernel((q[0], r[1]), (r[0], q[1]))


def _churned_tree(seed: int) -> VoRTree:
    rng = random.Random(seed)
    tree = VoRTree(uniform_points(400, seed=seed))
    for _ in range(30):
        inserts = [Point(_uniform(rng), _uniform(rng)) for _ in range(2)]
        deletes = rng.sample(tree.active_indexes(), 2)
        tree.batch_update(inserts, deletes)
    return tree


def _positions(seed: int, count: int):
    rng = random.Random(seed)
    return [Point(_uniform(rng), _uniform(rng)) for _ in range(count)]


class TestTheServingPathReadsTheKernel:
    """Every caller of the kernel reports ``Point.distance_to``'s floats."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_held_distances(self, seed):
        tree = _churned_tree(seed)
        processor = INSProcessor(tree, k=6)
        positions = _positions(seed + 1, 40)
        processor.initialize(positions[0])
        for position in positions[1:]:
            processor.update(position)
            held = processor._held
            expected = [position.distance_to(tree.point(index)) for index in held]
            assert list(map(_bits, processor._held_distances(position))) == list(
                map(_bits, expected)
            )

    @pytest.mark.parametrize("seed", [3, 17])
    def test_retrieve_matches_the_scan_reference(self, seed):
        tree = _churned_tree(seed)
        hint = None
        for position in _positions(seed + 2, 60):
            R, ins, distances = tree.retrieve(position, 10, hint)
            nearest = tree.nearest(position, 10)
            assert R == nearest
            assert ins == tree.influential_neighbor_set(nearest)
            expected = [position.distance_to(tree.point(index)) for index in nearest]
            assert list(map(_bits, distances)) == list(map(_bits, expected))
            hint = R[0]

    def test_plane_baseline_distances(self):
        points = uniform_points(300, seed=9)
        processor = NaiveProcessor(VoRTree(points), k=4)
        rng = random.Random(10)
        for position in _positions(10, 20):
            indexes = rng.sample(range(len(points)), 25)
            expected = [position.distance_to(points[index]) for index in indexes]
            got = processor._distances(position, indexes)
            assert list(map(_bits, got)) == list(map(_bits, expected))
