"""Road validation without Theorem 2: the reference the cell filter is tested against.

``INSRoadProcessor`` confines its validation search to the Voronoi cells of
the held objects (Theorem 2), by asking the diagram for each vertex's owner
as the search relaxes.  ``FullNetworkRoadProcessor`` is the same processor
with every cell in its region, so the same search runs on the whole network;
everything else — the radius, the bill, the fallback counters — is shared.
A test that runs both and compares them sees exactly what the filter changes.

``VALIDATIONS`` and ``SERVERS`` name the two under the labels the tests
report them with: ``"restricted"`` (the product) and ``"exact"``.
"""

from repro.core.ins_road import INSRoadProcessor
from repro.core.road_server import MovingRoadKNNServer


class _EveryCell:
    """A region holding every cell label (and ``None``, an unowned vertex)."""

    def __contains__(self, owner):
        return True


class FullNetworkRoadProcessor(INSRoadProcessor):
    """Road INS whose validation searches the full network."""

    def _held_changed(self):
        self._region = _EveryCell()


class FullNetworkRoadServer(MovingRoadKNNServer):
    """A road server whose sessions are ``processor``s over its shared diagram."""

    processor = FullNetworkRoadProcessor

    def _build_processor(self, kind, k, rho):
        return self.processor(self._voronoi, k, rho=rho)


VALIDATIONS = {"restricted": INSRoadProcessor, "exact": FullNetworkRoadProcessor}
SERVERS = {"restricted": MovingRoadKNNServer, "exact": FullNetworkRoadServer}
