"""Synthetic data-object sets.

The original evaluation used real POI data sets; this reproduction generates
synthetic ones with comparable density characteristics:

* :func:`uniform_points` — points drawn uniformly from a square, matching
  the paper demo's "number of data objects to generate" control.
* :func:`clustered_points` — a Gaussian-mixture point set, reproducing the
  skew of real POI data (dense downtown clusters, sparse outskirts).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.primitives import BoundingBox

#: Default data-space extent used throughout the experiments.
DEFAULT_EXTENT = 10_000.0


def data_space(extent: float = DEFAULT_EXTENT) -> BoundingBox:
    """The square data space ``[0, extent] x [0, extent]``."""
    if extent <= 0:
        raise ConfigurationError("extent must be positive")
    return BoundingBox(0.0, 0.0, extent, extent)


def uniform_points(count: int, extent: float = DEFAULT_EXTENT, seed: int = 1) -> List[Point]:
    """``count`` points drawn uniformly at random from the data space.

    Args:
        count: number of points (>= 1).
        extent: side length of the square data space.
        seed: random seed for reproducibility.
    """
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    if extent <= 0:
        raise ConfigurationError("extent must be positive")
    rng = random.Random(seed)
    return [Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent)) for _ in range(count)]


def clustered_points(
    count: int,
    clusters: int = 10,
    extent: float = DEFAULT_EXTENT,
    spread_fraction: float = 0.03,
    seed: int = 2,
) -> List[Point]:
    """``count`` points drawn from a Gaussian mixture inside the data space.

    Args:
        count: number of points (>= 1).
        clusters: number of mixture components (cluster centers are uniform
            in the data space).
        extent: side length of the square data space.
        spread_fraction: standard deviation of each cluster as a fraction of
            the extent.
        seed: random seed for reproducibility.

    Points falling outside the data space are clamped back onto its border,
    keeping every experiment inside the declared extent.
    """
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    if clusters < 1:
        raise ConfigurationError("clusters must be at least 1")
    if extent <= 0:
        raise ConfigurationError("extent must be positive")
    if spread_fraction <= 0:
        raise ConfigurationError("spread_fraction must be positive")
    rng = random.Random(seed)
    centers = [
        (rng.uniform(0.0, extent), rng.uniform(0.0, extent)) for _ in range(clusters)
    ]
    spread = extent * spread_fraction
    points: List[Point] = []
    for _ in range(count):
        cx, cy = rng.choice(centers)
        x = min(max(rng.gauss(cx, spread), 0.0), extent)
        y = min(max(rng.gauss(cy, spread), 0.0), extent)
        points.append(Point(x, y))
    return points
