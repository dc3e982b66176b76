"""Bit-identity of the baselines, pinned in tier-1.

Each baseline runs one fixed walk and every float and every integer it
reports is hashed: every :class:`~repro.core.objects.QueryResult` field, the
V* candidate list and known radius after each timestamp, and every integer
field of ``stats``.  The order-k safe region also takes a stream of moved,
removed and blanket-invalidated objects, which drives its stale-index
rebuilds.  A refactor of the baselines proves "same answers, same ties, same
floats, same counters" by leaving these digests alone.

The expected digests are literals generated by running this test body at
commit 6ad9032 (the parent of the change that wrote each baseline policy
once over a plane search and a road search), before any source edit.
Change one only with a reason a reviewer can check.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.baselines import (
    NaiveProcessor,
    NaiveRoadProcessor,
    OrderKSafeRegionProcessor,
    VStarProcessor,
    VStarRoadProcessor,
)
from repro.geometry.point import Point
from repro.workloads.scenarios import default_euclidean_scenario, default_road_scenario

PLANE = default_euclidean_scenario(
    object_count=250, k=4, steps=90, step_length=60.0, seed=5
)
ROAD = default_road_scenario(
    rows=8, columns=8, object_count=24, k=4, steps=90, step_length=30.0, seed=9
)


def _absorber():
    digest = hashlib.blake2b(digest_size=16)

    def absorb(*values):
        digest.update(repr(values).encode())

    return digest, absorb


def _absorb_result(absorb, result):
    absorb(
        result.timestamp,
        result.knn,
        result.knn_distances,
        sorted(result.guard_objects),
        result.action.value,
        result.was_valid,
    )


def _absorb_stats(absorb, stats):
    absorb(
        *(
            (field.name, getattr(stats, field.name))
            for field in dataclasses.fields(stats)
            if isinstance(getattr(stats, field.name), int)
        )
    )


def _walk_digest(processor, trajectory, between=None, state=None) -> str:
    """Hash one processor's whole walk.  ``between(step, result)`` runs
    before each update with the previous result (the data-update stream, if
    any); ``state(processor)`` is hashed after each timestamp."""
    digest, absorb = _absorber()
    result = processor.initialize(trajectory[0])
    for step, position in enumerate(trajectory[1:], start=1):
        _absorb_result(absorb, result)
        if state is not None:
            absorb(state(processor))
        if between is not None:
            between(step, result)
        result = processor.update(position)
    _absorb_result(absorb, result)
    if state is not None:
        absorb(state(processor))
    _absorb_stats(absorb, processor.stats)
    return digest.hexdigest()


def _order_k_digest() -> str:
    points = list(PLANE.points)
    processor = OrderKSafeRegionProcessor(points, PLANE.k)
    rng = random.Random(61)
    removed = set()

    def churn(step, result):
        if step % 9 == 4:
            index = rng.randrange(len(points))
            points[index] = Point(rng.uniform(0.0, 10_000.0), rng.uniform(0.0, 10_000.0))
            processor.notify_data_update(changed=(index,))
        if step in (30, 55):
            alive = [
                index
                for index in range(len(points))
                if index not in removed and index not in result.knn
            ]
            victim = rng.choice(alive)
            removed.add(victim)
            processor.notify_data_update(removed=(victim,))
        if step == 70:
            processor.invalidate()

    return _walk_digest(processor, PLANE.trajectory, churn)


CASES = {
    "naive": lambda: _walk_digest(NaiveProcessor(PLANE.points, PLANE.k), PLANE.trajectory),
    "vstar": lambda: _walk_digest(
        VStarProcessor(PLANE.points, PLANE.k, auxiliary=3),
        PLANE.trajectory,
        state=lambda vstar: (vstar.candidates, vstar.known_region_radius),
    ),
    "order-k": _order_k_digest,
    "naive-road": lambda: _walk_digest(
        NaiveRoadProcessor(ROAD.network, ROAD.object_vertices, ROAD.k), ROAD.trajectory
    ),
    "vstar-road": lambda: _walk_digest(
        VStarRoadProcessor(
            ROAD.network,
            ROAD.object_vertices,
            ROAD.k,
            auxiliary=4,
            step_length=ROAD.step_length,
        ),
        ROAD.trajectory,
        state=lambda vstar: vstar.candidates,
    ),
}

EXPECTED = {
    "naive": "18feaacd8a3fb3f33d51cf698736ebed",
    "vstar": "2d4a7b8df3173219ae65d0c83e87a537",
    "order-k": "589ad8d14728127f01a4c1dbde5df7c6",
    "naive-road": "8a5c6573c1ce805da880e0aa5663626a",
    "vstar-road": "b5c39246ad1fb64144ff713953fa8533",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_answers_floats_and_counters_are_bit_identical(case):
    assert CASES[case]() == EXPECTED[case]
