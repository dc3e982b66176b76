"""Spatial indexing substrate.

The paper indexes the data objects (and their precomputed Voronoi neighbour
lists) with a VoR-tree, whose points carry their Voronoi neighbours.  This
package provides:

* :mod:`repro.index.rtree` — an R-tree with quadratic split, STR bulk
  loading, range search and best-first (incremental) kNN search; the
  baselines' index.
* :mod:`repro.index.vortree` — the VoR-tree: the neighbour lists alone,
  which also serve its point location (jump-and-walk).
"""

from repro.index.rtree import RTree, RTreeEntry
from repro.index.vortree import VoRTree

__all__ = ["RTree", "RTreeEntry", "VoRTree"]
