"""Geometric predicates used by the triangulation and clipping code.

These are the standard orientation and in-circle tests.  They are written
directly against coordinates (rather than :class:`~repro.geometry.point.Point`
objects) in the hot inner loops of the Delaunay construction, with thin
point-based wrappers for readability elsewhere.

The predicates use a small relative epsilon rather than exact arithmetic.
The library only ever triangulates randomly generated or lightly perturbed
point sets, for which this is sufficient; the Delaunay builder additionally
perturbs exactly-cocircular configurations (see
:mod:`repro.geometry.delaunay`).
"""

from __future__ import annotations

from repro.geometry.point import Point

#: Default tolerance for treating a determinant as zero.
EPSILON = 1e-12


def orientation_value(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    """Signed doubled area of triangle ``abc``.

    Positive when ``abc`` makes a counter-clockwise turn, negative when
    clockwise, (near) zero when collinear.
    """
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def orientation(a: Point, b: Point, c: Point, tolerance: float = EPSILON) -> int:
    """Return +1 for counter-clockwise, -1 for clockwise, 0 for collinear."""
    value = orientation_value(a.x, a.y, b.x, b.y, c.x, c.y)
    scale = max(abs(a.x), abs(a.y), abs(b.x), abs(b.y), abs(c.x), abs(c.y), 1.0)
    if value > tolerance * scale:
        return 1
    if value < -tolerance * scale:
        return -1
    return 0


def collinear(a: Point, b: Point, c: Point, tolerance: float = 1e-9) -> bool:
    """True when the three points are (nearly) collinear."""
    return orientation(a, b, c, tolerance) == 0


def in_circumcircle(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    cx: float,
    cy: float,
    px: float,
    py: float,
) -> float:
    """In-circle determinant for point ``p`` against triangle ``abc``.

    The triangle is assumed counter-clockwise.  The return value is positive
    when ``p`` lies strictly inside the circumcircle of ``abc``, negative when
    outside, and (near) zero when on the circle.
    """
    adx = ax - px
    ady = ay - py
    bdx = bx - px
    bdy = by - py
    cdx = cx - px
    cdy = cy - py
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    return (
        adx * (bdy * cd - bd * cdy)
        - ady * (bdx * cd - bd * cdx)
        + ad * (bdx * cdy - bdy * cdx)
    )
