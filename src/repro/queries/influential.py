"""Continuous influential-sites monitoring on top of the INS machinery.

A continuous influential-sites query asks, at every timestamp, *which data
objects currently count the moving query among their influenced region* —
equivalently, which sites are Voronoi neighbours of the query's current kNN
members without being kNN members themselves.  That is exactly the paper's
influential neighbour set I(kNN), so the processor rides on
:class:`~repro.core.ins_euclidean.INSProcessor` wholesale: same prefetched
set R, same lazy delta settlement, same safe-region validation.  The only
addition is that every answer is widened with the *sites* tuple, read off
the live VoR-tree's per-site Voronoi neighbour lists.

Reading the live tree is sound under the delta contract: the kNN members are
always drawn from R (``_perform_update`` reorders within R before falling
back to retrieval), and any data update that could change a member's
neighbour list lands in ``changed ∩ R`` and forces an I(R) refresh before
the next answer — so at answer time the settled lists and the live tree
agree on every member.
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Set, Tuple

from repro.core.ins_euclidean import INSProcessor
from repro.core.objects import QueryResult, immutable
from repro.geometry.point import Point

__all__ = ["InfluentialResult", "InfluentialSitesProcessor"]


@immutable
class InfluentialResult(QueryResult):
    """A :class:`QueryResult` widened with the influential sites.

    Attributes:
        sites: object indexes whose influence set contains the query's
            position — the Voronoi neighbours of the current kNN members
            that are not members themselves — sorted ascending.
    """

    sites: Tuple[int, ...] = ()

    @property
    def site_set(self) -> FrozenSet[int]:
        """The influential sites, order-insensitive."""
        return frozenset(self.sites)


class InfluentialSitesProcessor(INSProcessor):
    """INS processor whose answers report the influential sites.

    Everything about query maintenance — retrieval, validation, lazy delta
    settlement, communication accounting — is inherited; this subclass only
    derives the sites from the live VoR-tree at answer time and bills their
    transmission when the timestamp already required a server round trip.
    """

    @property
    def name(self) -> str:
        return "INS-Influential"

    # ------------------------------------------------------------------
    # Answer widening
    # ------------------------------------------------------------------
    def current_sites(self, members: Sequence[int]) -> Tuple[int, ...]:
        """The influential sites of ``members``: ∪ N(m) \\ members, sorted."""
        member_set = set(members)
        sites: Set[int] = set()
        for member in member_set:
            sites.update(self._index.voronoi_neighbors(member))
        sites -= member_set
        return tuple(sorted(sites))

    def _with_sites(self, result: QueryResult) -> InfluentialResult:
        sites = self.current_sites(result.knn)
        if result.action.requires_communication:
            # The sites ride on the same response that shipped R / I(R);
            # bill them as transmitted objects like the guard set.
            self._stats.transmitted_objects += len(sites)
        return InfluentialResult(
            timestamp=result.timestamp,
            knn=result.knn,
            knn_distances=result.knn_distances,
            guard_objects=result.guard_objects,
            action=result.action,
            was_valid=result.was_valid,
            sites=sites,
        )

    def _initialize(self, position: Point) -> InfluentialResult:
        return self._with_sites(super()._initialize(position))

    def _update(self, position: Point) -> InfluentialResult:
        return self._with_sites(super()._update(position))
