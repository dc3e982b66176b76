"""Tests for repro.roadnet.location."""

import pickle

import pytest

from repro.errors import RoadNetworkError
from repro.geometry.point import Point
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.location import NetworkLocation


@pytest.fixture
def simple_network():
    network = RoadNetwork()
    a = network.add_vertex(Point(0, 0))
    b = network.add_vertex(Point(100, 0))
    c = network.add_vertex(Point(100, 50))
    e_ab = network.add_edge(a, b)  # length 100
    e_bc = network.add_edge(b, c)  # length 50
    return network, (a, b, c), (e_ab, e_bc)


class TestValidation:
    def test_valid_location(self, simple_network):
        network, _, (e_ab, _) = simple_network
        location = NetworkLocation(e_ab, 40.0).validated(network)
        assert location.offset == pytest.approx(40.0)

    def test_offset_out_of_range(self, simple_network):
        network, _, (e_ab, _) = simple_network
        with pytest.raises(RoadNetworkError):
            NetworkLocation(e_ab, 150.0).validated(network)
        with pytest.raises(RoadNetworkError):
            NetworkLocation(e_ab, -5.0).validated(network)

    def test_unknown_edge(self, simple_network):
        network, _, _ = simple_network
        with pytest.raises(RoadNetworkError):
            NetworkLocation(999, 0.0).validated(network)

    def test_in_range_location_is_returned_itself(self, simple_network):
        # No copy on the hot path: every search validates its location.
        network, _, (e_ab, _) = simple_network
        for offset in (0.0, 40.0, 100.0):
            location = NetworkLocation(e_ab, offset)
            assert location.validated(network) is location
        assert NetworkLocation(e_ab, 100.0 + 1e-12).validated(network).offset == 100.0
        with pytest.raises(RoadNetworkError):
            NetworkLocation(e_ab, 100.0 + 1e-6).validated(network)

    def test_small_negative_offset_is_clamped(self, simple_network):
        network, _, (e_ab, _) = simple_network
        location = NetworkLocation(e_ab, -1e-12).validated(network)
        assert location.offset == 0.0


class TestGeometry:
    def test_endpoint_distances(self, simple_network):
        network, (a, b, _), (e_ab, _) = simple_network
        u, du, v, dv = NetworkLocation(e_ab, 30.0).endpoint_distances(network)
        assert (u, v) == (a, b)
        assert du == pytest.approx(30.0)
        assert dv == pytest.approx(70.0)

    def test_position_interpolates_along_edge(self, simple_network):
        network, _, (e_ab, _) = simple_network
        assert NetworkLocation(e_ab, 25.0).position(network).almost_equal(Point(25.0, 0.0))

    def test_is_at_vertex(self, simple_network):
        network, _, (e_ab, _) = simple_network
        assert NetworkLocation(e_ab, 0.0).is_at_vertex(network)
        assert NetworkLocation(e_ab, 100.0).is_at_vertex(network)
        assert not NetworkLocation(e_ab, 50.0).is_at_vertex(network)

    def test_nearest_vertex(self, simple_network):
        network, (a, b, _), (e_ab, _) = simple_network
        assert NetworkLocation(e_ab, 10.0).nearest_vertex(network) == a
        assert NetworkLocation(e_ab, 90.0).nearest_vertex(network) == b

    def test_at_vertex_constructor(self, simple_network):
        network, (a, b, c), _ = simple_network
        location = NetworkLocation.at_vertex(network, b)
        assert location.is_at_vertex(network)
        assert location.position(network).almost_equal(Point(100.0, 0.0))

    def test_at_vertex_requires_incident_edge(self, simple_network):
        network, _, _ = simple_network
        isolated = network.add_vertex(Point(500, 500))
        with pytest.raises(RoadNetworkError):
            NetworkLocation.at_vertex(network, isolated)


class TestSlots:
    def test_a_location_has_no_instance_dict(self):
        assert not hasattr(NetworkLocation(7, 3.5), "__dict__")

    def test_a_slotted_location_round_trips(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(NetworkLocation(7, 3.5), protocol))
            assert restored == NetworkLocation(7, 3.5) and restored != NetworkLocation(7, 3.0)
