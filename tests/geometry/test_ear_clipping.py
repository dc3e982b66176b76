"""A deletion's inline ear test decides exactly as the predicates it stands for.

``DelaunayTriangulation._retriangulate_hole`` tests a real ear on floats read
once per hole; ``tests/ear_reference.py`` clips the same hole through
``predicates.orientation`` and ``_circumcircle_contains``.  Both run over
randomized deletes on inputs where those predicates are exact, tied or
noise — uniform sites, a lattice and a ring (co-circular), near-collinear
sites, and the convex hull (ghost ears) — and must agree on every
replacement triangle, every refusal and the whole edge map after each step.
"""

import math
import random

import pytest
from ear_reference import PredicateEarTriangulation, clip_ears

from repro.errors import GeometryError
from repro.geometry.delaunay import GHOST, DelaunayTriangulation
from repro.geometry.point import Point
from repro.workloads.datasets import uniform_points


def lattice(side=8, spacing=10.0):
    return [Point(x * spacing, y * spacing) for x in range(side) for y in range(side)]


def ring_with_centre(count=24, radius=100.0):
    return [Point(0.0, 0.0)] + [
        Point(radius * math.cos(2 * math.pi * i / count), radius * math.sin(2 * math.pi * i / count))
        for i in range(count)
    ]


def near_collinear(count=40, spacing=1.0, stray=1e-13):
    """A line whose sites stray within ``orientation``'s tolerance, which
    scales with the coordinates down to a floor of 1."""
    rng = random.Random(41)
    line = [Point(x * spacing, rng.uniform(-stray, stray)) for x in range(count)]
    off = [Point(x * spacing, y * spacing) for x, y in ((5.0, 9.0), (20.0, -7.0), (33.0, 4.0))]
    return line + off


#: Family -> (sites, jitter).  Unjittered, the lattice and the ring tie the
#: in-circle test exactly and the near-collinear line ties orientation
#: within its tolerance; jittered, the ties become noise.
FAMILIES = {
    "uniform": (lambda: uniform_points(60, extent=1_000.0, seed=23), 1e-9),
    "lattice": (lattice, 1e-9),
    "lattice-unjittered": (lattice, 0.0),
    "ring-with-centre": (ring_with_centre, 1e-9),
    "ring-with-centre-unjittered": (ring_with_centre, 0.0),
    "near-collinear-unjittered": (near_collinear, 0.0),
    "near-collinear-below-1-unjittered": (lambda: near_collinear(spacing=1e-3, stray=1e-10), 0.0),
    "hull": (lambda: uniform_points(60, extent=1_000.0, seed=29), 1e-9),
}


def outcome(call):
    """``call()``'s result, or the message of the ``GeometryError`` it raised."""
    try:
        return call()
    except GeometryError as error:
        return str(error)


def delete_beside_the_reference(points, jitter, seed, hull_only):
    """Delete random sites from the product and the reference in step (a
    refusal must come from both and mutate neither), comparing each hole's
    clipping and then the two edge maps.  Returns the holes clipped and how
    many of them held a ghost ear."""
    product = DelaunayTriangulation(points, jitter=jitter)
    reference = PredicateEarTriangulation(points, jitter=jitter)
    assert product.edge_map() == reference.edge_map()
    rng = random.Random(seed)
    clipped = ghost_holes = 0
    for _ in range(80):
        if len(product.active_indexes()) <= 4:
            break
        sites = product.active_indexes()
        if hull_only:
            sites = [site for site in sites if GHOST in product._link(site)]
        site = rng.choice(sites)
        hole = product._link(site)
        inline = outcome(lambda: product._retriangulate_hole(hole))
        assert inline == outcome(lambda: clip_ears(product, hole)), f"hole of {site}"
        if len(hole) > 3 and not isinstance(inline, str):
            clipped += 1
            ghost_holes += GHOST in hole
        removed = outcome(lambda: product.remove_site(site))
        assert removed == outcome(lambda: reference.remove_site(site))
        assert product.edge_map() == reference.edge_map()
    return clipped, ghost_holes


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_inline_ear_test_clips_as_the_predicates(family, seed):
    sites, jitter = FAMILIES[family]
    clipped, ghost_holes = delete_beside_the_reference(
        sites(), jitter, seed, hull_only=family == "hull"
    )
    assert clipped >= 10
    if family == "hull":
        assert ghost_holes == clipped
