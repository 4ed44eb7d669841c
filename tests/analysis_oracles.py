"""Reference implementations the analysis layer's array paths must match.

These are verbatim copies of the straightforward code the CSR compliance
audit and the dense-label cluster partition replaced:

* :func:`reference_policy_compliance` rebuilds every AS's candidate set
  in a Python dict from ``graph.neighbors`` and the neighbors' ``Route``
  objects, one AS at a time;
* :class:`ReferenceClusterState` keeps the partition as a dict of ASN
  sets and splits one catchment at a time.

The equivalence tests in ``test_analysis_equivalence.py`` compare the
production code against them.
"""

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.bgp.policy import PolicyModel
from repro.bgp.simulator import RoutingOutcome
from repro.core.prediction import ComplianceStats
from repro.errors import ClusteringError
from repro.topology.graph import ASGraph
from repro.topology.peering import OriginNetwork
from repro.topology.relationships import Relationship
from repro.types import ASN, LinkId, path_without_prepending


#: Gao-Rexford class ranks (lower = more preferred).
_CLASS_RANK = {
    Relationship.CUSTOMER: 0,
    Relationship.PEER: 1,
    Relationship.PROVIDER: 2,
}


def reference_policy_compliance(
    outcome: RoutingOutcome,
    graph: ASGraph,
    policy: PolicyModel,
    origin: Optional[OriginNetwork] = None,
) -> ComplianceStats:
    """Check observed routing decisions against Gao-Rexford criteria.

    For each AS holding a route, the candidate set is reconstructed from
    its neighbors' selected routes (applying export filters), mirroring
    how the paper reconstructs alternatives from paths observed across its
    dataset.  Path lengths are compared with prepending collapsed — the
    inflation the origin injected is not the AS's own choice.

    Args:
        outcome: the routing outcome to audit.
        graph: the topology.
        policy: export rules used to reconstruct candidate sets.
        origin: when given, the origin's direct announcements are included
            as candidates at its providers.
    """
    checked = 0
    relationship_ok = 0
    both_ok = 0
    origin_asn = outcome.origin_asn
    link_of_provider: Dict[ASN, LinkId] = {}
    if origin is not None:
        link_of_provider = {
            origin.provider_of(link): link
            for link in outcome.config.announced
        }
    for asn, route in outcome.routes.items():
        candidates: Dict[ASN, Tuple[int, int]] = {}
        for neighbor, neighbor_relationship in graph.neighbors(asn).items():
            if neighbor == origin_asn:
                link = link_of_provider.get(asn)
                if link is not None:
                    announced = outcome.config.as_path_for_link(origin_asn, link)
                    candidates[neighbor] = (
                        _CLASS_RANK[neighbor_relationship],
                        len(path_without_prepending(announced)),
                    )
                continue
            neighbor_route = outcome.routes.get(neighbor)
            if neighbor_route is None or neighbor_route.learned_from == asn:
                continue
            if not policy.exports(
                neighbor_route.relationship, graph.relationship(neighbor, asn)
            ):
                continue
            collapsed = path_without_prepending(neighbor_route.as_path)
            candidates[neighbor] = (
                _CLASS_RANK[neighbor_relationship],
                len(collapsed) + 1,
            )
        if len(candidates) < 2:
            continue  # no real choice to audit
        checked += 1
        chosen = candidates.get(route.learned_from)
        if chosen is None:
            continue
        best_class = min(rank for rank, _ in candidates.values())
        if chosen[0] != best_class:
            continue
        relationship_ok += 1
        shortest_in_class = min(
            length for rank, length in candidates.values() if rank == best_class
        )
        if chosen[1] <= shortest_in_class:
            both_ok += 1
    return ComplianceStats(
        ases_checked=checked,
        best_relationship=relationship_ok / checked if checked else 1.0,
        best_relationship_and_shortest=both_ok / checked if checked else 1.0,
    )


class ReferenceClusterState:
    """Mutable partition of a fixed universe of sources.

    Args:
        universe: the sources to partition.  The paper fixes this to the
            ASes observed under the initial anycast-all configuration
            (§IV-d); sources outside the universe are ignored by
            :meth:`refine`.
    """

    def __init__(self, universe: Iterable[ASN]) -> None:
        members = set(universe)
        if not members:
            raise ClusteringError("cluster universe must be non-empty")
        self._clusters: Dict[int, Set[ASN]] = {0: members}
        self._cluster_of: Dict[ASN, int] = {asn: 0 for asn in members}
        self._next_id = 1

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------

    def refine(self, catchment: Iterable[ASN]) -> int:
        """Split clusters against one catchment; return the number of splits.

        For each cluster κ overlapping the catchment α, replace κ with
        κ∩α and κ∖α (no-op when κ ⊆ α or κ∩α is empty).
        """
        inside = {asn for asn in catchment if asn in self._cluster_of}
        if not inside:
            return 0
        affected: Dict[int, Set[ASN]] = {}
        for asn in inside:
            affected.setdefault(self._cluster_of[asn], set()).add(asn)
        splits = 0
        for cluster_id, overlap in affected.items():
            cluster = self._clusters[cluster_id]
            if len(overlap) == len(cluster):
                continue  # κ ⊆ α: no information
            cluster -= overlap
            new_id = self._next_id
            self._next_id += 1
            self._clusters[new_id] = overlap
            for asn in overlap:
                self._cluster_of[asn] = new_id
            splits += 1
        return splits

    def refine_with_catchments(
        self,
        catchments: Mapping[LinkId, Iterable[ASN]],
        degraded_links: Iterable[LinkId] = (),
    ) -> int:
        """Refine against every catchment of one configuration.

        Links listed in ``degraded_links`` are *skipped*: their
        catchments are known to be partial (measurement loss), and a
        partial catchment would split off sources that merely went
        unmeasured.  Skipping degrades gracefully — clusters stay wider
        than they could be, but never become wrong.
        """
        skip = frozenset(degraded_links)
        splits = 0
        for link in sorted(catchments):
            if link in skip:
                continue
            splits += self.refine(catchments[link])
        return splits

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def universe(self) -> FrozenSet[ASN]:
        """The full set of partitioned sources."""
        return frozenset(self._cluster_of)

    def clusters(self) -> List[FrozenSet[ASN]]:
        """Current clusters, largest first (ties broken by smallest member)."""
        return sorted(
            (frozenset(cluster) for cluster in self._clusters.values()),
            key=lambda cluster: (-len(cluster), min(cluster)),
        )

    def cluster_of(self, asn: ASN) -> FrozenSet[ASN]:
        """The cluster containing ``asn``.

        Raises:
            ClusteringError: if ``asn`` is not in the universe.
        """
        try:
            cluster_id = self._cluster_of[asn]
        except KeyError:
            raise ClusteringError(f"AS {asn} not in cluster universe") from None
        return frozenset(self._clusters[cluster_id])

    def num_clusters(self) -> int:
        """Number of clusters in the current partition."""
        return len(self._clusters)

    def sizes(self) -> List[int]:
        """Cluster sizes in descending order."""
        return sorted((len(c) for c in self._clusters.values()), reverse=True)

    def mean_size(self) -> float:
        """Mean cluster size (per cluster): |universe| / #clusters."""
        return len(self._cluster_of) / len(self._clusters)

    def size_percentile(self, percentile: float) -> float:
        """Percentile of cluster sizes (linear interpolation, 0–100)."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        ordered = sorted(len(c) for c in self._clusters.values())
        if len(ordered) == 1:
            return float(ordered[0])
        rank = (percentile / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        if ordered[low] == ordered[high]:
            return float(ordered[low])
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def singleton_fraction(self) -> float:
        """Fraction of clusters containing exactly one source."""
        singles = sum(1 for c in self._clusters.values() if len(c) == 1)
        return singles / len(self._clusters)

    def copy(self) -> "ReferenceClusterState":
        """Independent copy of the current partition."""
        clone = ReferenceClusterState.__new__(ReferenceClusterState)
        clone._clusters = {cid: set(c) for cid, c in self._clusters.items()}
        clone._cluster_of = dict(self._cluster_of)
        clone._next_id = self._next_id
        return clone

    # ------------------------------------------------------------------
    # Serialization (checkpointing)
    # ------------------------------------------------------------------

    def as_serializable(self) -> List[List[ASN]]:
        """The partition as plain nested lists (JSON-safe, canonical order).

        Internal cluster ids are not part of the partition's identity, so
        a round trip through :meth:`from_serializable` preserves exactly
        the observable state (:meth:`clusters` and everything derived).
        """
        return [sorted(cluster) for cluster in self.clusters()]

    @classmethod
    def from_serializable(cls, clusters: Iterable[Iterable[ASN]]) -> "ReferenceClusterState":
        """Rebuild a partition dumped by :meth:`as_serializable`.

        Raises:
            ClusteringError: if the clusters overlap or are empty.
        """
        state = cls.__new__(cls)
        state._clusters = {}
        state._cluster_of = {}
        state._next_id = 0
        for members in clusters:
            cluster = set(members)
            if not cluster:
                raise ClusteringError("serialized cluster must be non-empty")
            for asn in cluster:
                if asn in state._cluster_of:
                    raise ClusteringError(
                        f"AS {asn} appears in more than one serialized cluster"
                    )
                state._cluster_of[asn] = state._next_id
            state._clusters[state._next_id] = cluster
            state._next_id += 1
        if not state._clusters:
            raise ClusteringError("cluster universe must be non-empty")
        return state
