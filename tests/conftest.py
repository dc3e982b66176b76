"""Shared fixtures for the test suite.

Fixtures provide small, deterministic data sets and road networks that are
cheap enough to use in many tests.  Anything larger (the integration-scale
workloads) is built inside the specific test module that needs it.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest
from hypothesis import settings

from repro.geometry.point import Point
from repro.index.vortree import VoRTree
from repro.roadnet.generators import grid_network, place_objects
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.network_voronoi import NetworkVoronoiDiagram
from repro.workloads.datasets import uniform_points

# Tier-1 and CI draw the same hypothesis examples on every run, so a red
# `pytest -x -q` is a regression and never a lucky draw.  Exploratory runs
# get the stock randomised settings back with `--hypothesis-profile=default`.
settings.register_profile("tier1", derandomize=True, deadline=None)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile", default=None):
        settings.load_profile("tier1")


@pytest.fixture
def rng() -> random.Random:
    """A seeded random generator for ad-hoc randomness in tests."""
    return random.Random(12345)


@pytest.fixture
def index_builds(monkeypatch) -> List[type]:
    """The class of every VoR-tree and network Voronoi diagram built while
    the test runs, in build order."""
    builds: List[type] = []
    for index in (VoRTree, NetworkVoronoiDiagram):

        def init(self, *args, _init=index.__init__, **kwargs):
            builds.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(index, "__init__", init)
    return builds


@pytest.fixture
def small_points() -> List[Point]:
    """Twelve points in general position (mirrors the scale of Figure 1)."""
    return [
        Point(2.0, 8.5),
        Point(5.5, 9.0),
        Point(8.5, 8.0),
        Point(1.5, 5.5),
        Point(4.5, 6.0),
        Point(7.0, 6.5),
        Point(3.0, 3.5),
        Point(5.5, 4.0),
        Point(8.0, 4.5),
        Point(2.0, 1.5),
        Point(5.0, 1.0),
        Point(8.5, 1.5),
    ]


@pytest.fixture
def medium_points() -> List[Point]:
    """Two hundred uniform points used by index and processor tests."""
    return uniform_points(200, extent=1_000.0, seed=42)


@pytest.fixture
def small_grid_network() -> RoadNetwork:
    """A 4x4 grid road network with 100-unit edges."""
    return grid_network(4, 4, spacing=100.0)


@pytest.fixture
def grid_with_objects(small_grid_network: RoadNetwork):
    """The 4x4 grid plus six data objects on distinct vertices."""
    objects = place_objects(small_grid_network, 6, seed=7)
    return small_grid_network, objects


def brute_force_knn(points: List[Point], query: Point, k: int) -> List[int]:
    """Brute-force kNN oracle shared by several test modules."""
    order = sorted(range(len(points)), key=lambda i: (query.distance_squared_to(points[i]), i))
    return order[:k]
