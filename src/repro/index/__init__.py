"""Spatial indexing substrate.

The paper indexes the data objects (and their precomputed Voronoi neighbour
lists) with a VoR-tree, whose points carry their Voronoi neighbours.
:mod:`repro.index.vortree` keeps the neighbour lists alone; they serve its
kNN retrieval and its point location (jump-and-walk) for the INS processor
and the plane baselines alike.
"""

from repro.index.vortree import VoRTree

__all__ = ["VoRTree"]
