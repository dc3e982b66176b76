"""Planar geometry substrate used by the INSQ reproduction.

This package provides the geometric machinery the INS algorithm is built on:

* :mod:`repro.geometry.point` — immutable 2-D points and distance helpers.
* :mod:`repro.geometry.primitives` — segments, circles and axis-aligned boxes.
* :mod:`repro.geometry.predicates` — orientation / in-circle predicates.
* :mod:`repro.geometry.polygon` — convex polygons and half-plane clipping.
* :mod:`repro.geometry.delaunay` — incremental Bowyer–Watson triangulation.
* :mod:`repro.geometry.voronoi` — influential neighbour sets over Voronoi neighbours.
* :mod:`repro.geometry.order_k` — order-k Voronoi cells of kNN sets.
"""

from repro.geometry.point import Point, centroid, distance, distance_squared, midpoint
from repro.geometry.primitives import BoundingBox, Circle, Segment
from repro.geometry.polygon import ConvexPolygon, HalfPlane, bisector_halfplane
from repro.geometry.delaunay import DelaunayTriangulation, Triangle
from repro.geometry.order_k import OrderKCell, order_k_cell

__all__ = [
    "Point",
    "centroid",
    "distance",
    "distance_squared",
    "midpoint",
    "BoundingBox",
    "Circle",
    "Segment",
    "ConvexPolygon",
    "HalfPlane",
    "bisector_halfplane",
    "DelaunayTriangulation",
    "Triangle",
    "OrderKCell",
    "order_k_cell",
]
