"""Typed wire messages of the non-kNN continuous query kinds.

The new responses *subclass* :class:`~repro.service.messages.KNNResponse`
rather than wrapping it: every continuous kind still reports a ranked
member list with distances and a guard set, so clients that only read the
kNN surface (the transport layer's retry/dispatch machinery included) keep
working unchanged, while kind-aware clients read the widened result payload
(`result.sites`, ``result.event``/``result.departed``) through the extra
conveniences below.  Dataclass equality is class-strict, so a
``KNNResponse`` and an ``InfluentialResponse`` with identical fields never
compare equal — the equivalence suites keep their exactness.

``OpenQuery`` is the kind-polymorphic session opener: ``OpenSession``
remains the wire frame for plain kNN (durability logs and old clients keep
replaying byte-identically), and ``OpenQuery`` carries everything it does
plus the kind name.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Tuple

from repro.core.objects import immutable
from repro.queries.influential import InfluentialResult
from repro.queries.region import RegionResult
from repro.service.messages import KNNResponse

__all__ = ["InfluentialResponse", "OpenQuery", "RegionEvent", "response_for"]


@immutable
class OpenQuery:
    """Open a continuous query session of an arbitrary registered kind.

    Attributes:
        kind: registered query-kind name (``"knn"``, ``"influential"``,
            ``"region"``; see :mod:`repro.queries.kinds`).
        position: the session's initial position.
        k: number of members to monitor.
        rho: prefetch ratio for kinds that prefetch (ignored by kinds with
            exact safe regions).
        options: ``(name, value)`` string pairs, kept on the frozen wire
            format; the engine takes none, so clients send it empty and the
            server refuses a non-empty one (as for ``OpenSession``).
    """

    kind: str
    position: Any
    k: int
    rho: float = 1.6
    options: Tuple[Tuple[str, str], ...] = ()

    def payload_size(self) -> int:
        """Object states carried: none — this is a control message."""
        return 0


@immutable
class InfluentialResponse(KNNResponse):
    """A :class:`KNNResponse` whose result reports influential sites."""

    @property
    def sites(self) -> Tuple[int, ...]:
        """The influential sites, sorted ascending."""
        return self.result.sites

    @property
    def site_set(self) -> FrozenSet[int]:
        """The influential sites, order-insensitive."""
        return frozenset(self.result.sites)


@immutable
class RegionEvent(KNNResponse):
    """A :class:`KNNResponse` whose result reports region entry/exit."""

    @property
    def event(self) -> str:
        """``"enter"`` or ``"stay"``."""
        return self.result.event

    @property
    def entered(self) -> bool:
        """True when this answer crossed into a new order-k region."""
        return self.result.event == "enter"

    @property
    def departed(self) -> Tuple[int, ...]:
        """Members that left the region at an ``"enter"`` event, sorted."""
        return self.result.departed


#: A widened result's response class; any other result rides in a plain
#: :class:`KNNResponse`.
_RESPONSE_OF = {InfluentialResult: InfluentialResponse, RegionResult: RegionEvent}


def response_for(
    query_id: int,
    result: Any,
    objects_shipped: int,
    round_trips: int,
    epoch: int,
) -> KNNResponse:
    """Build the wire response matching ``result``'s query kind.

    Dispatches on the result's concrete type: widened results map to their
    widened responses, anything else stays a plain :class:`KNNResponse`.
    """
    cls = _RESPONSE_OF.get(type(result), KNNResponse)
    return cls(query_id, result, objects_shipped, round_trips, epoch)
