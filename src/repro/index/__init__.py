"""Spatial indexing substrate.

The paper indexes the data objects (and their precomputed Voronoi neighbour
lists) with a VoR-tree, whose points carry their Voronoi neighbours.  This
package provides:

* :mod:`repro.index.rtree` — an R-tree with quadratic split, STR bulk
  loading, range search and best-first (incremental) kNN search; the
  baselines' index.
* :mod:`repro.index.vortree` — the VoR-tree: the neighbour lists alone,
  which also serve its point location (jump-and-walk).
* :mod:`repro.index.kdtree` — a k-d tree used as an independent oracle in
  tests and as an alternative backend.
* :mod:`repro.index.grid` — a uniform grid index, the simplest possible
  backend, useful for cross-checking and for very dense data.
"""

from repro.index.rtree import RTree, RTreeEntry
from repro.index.vortree import VoRTree
from repro.index.kdtree import KDTree
from repro.index.grid import GridIndex

__all__ = ["RTree", "RTreeEntry", "VoRTree", "KDTree", "GridIndex"]
