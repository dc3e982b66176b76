"""The deletion ear clipper written against the predicates: the reference the inline one is tested against.

``DelaunayTriangulation._retriangulate_hole`` tests a real ear inline, on
floats it reads once per hole.  ``PredicateEarTriangulation`` clips the same
hole through the point-based calls the inline test stands for —
``predicates.orientation`` per candidate ear, then
``_circumcircle_contains`` per other hole vertex — so a test that drives one
beside the product sees any decision the inlining moved.
"""

from repro.errors import GeometryError
from repro.geometry.delaunay import DelaunayTriangulation
from repro.geometry.predicates import orientation


def clip_ears(triangulation, hole):
    """``triangulation._retriangulate_hole(hole)``, one predicate call per test."""
    points = triangulation._points
    contains = triangulation._circumcircle_contains
    polygon = list(hole)
    result = []
    while len(polygon) > 3:
        size = len(polygon)
        for i in range(size):
            a = polygon[i - 1]
            b = polygon[i]
            c = polygon[(i + 1) % size]
            real = a >= 0 and b >= 0 and c >= 0
            if real and orientation(points[a], points[b], points[c]) <= 0:
                continue
            if any(
                other >= 0 and other not in (a, b, c) and contains(a, b, c, points[other])
                for other in polygon
            ):
                continue
            if c in triangulation._apex[a]:
                raise GeometryError("a diagonal of the deletion hole already exists")
            result.append((a, b, c))
            polygon.pop(i)
            break
        else:
            raise GeometryError("could not re-triangulate the deletion hole")
    result.append(tuple(polygon))
    return result


class PredicateEarTriangulation(DelaunayTriangulation):
    """A triangulation whose deletions clip ears through the predicates."""

    def _retriangulate_hole(self, hole):
        return clip_ears(self, hole)
