"""AS-level topology graph annotated with business relationships.

:class:`ASGraph` is the substrate every other subsystem builds on: the BGP
simulator propagates routes over it, the traceroute engine walks it, and
the analysis code computes AS-hop distances and customer cones from it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Set, Tuple

from ..errors import TopologyError
from ..types import ASN, validate_asn
from .relationships import Relationship


class ASGraph:
    """Undirected AS graph whose edges carry business relationships.

    Each link is stored from both endpoints with inverse relationship
    annotations, so ``graph.relationship(a, b)`` answers "what is ``b`` to
    ``a``?" in O(1).

    :attr:`version` counts mutations (a new AS, a new or removed link),
    so tables compiled from the graph can tell that they went stale.
    """

    def __init__(self) -> None:
        self._adjacency: Dict[ASN, Dict[ASN, Relationship]] = {}
        self._version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_as(self, asn: ASN) -> None:
        """Add an AS with no links.  Adding an existing AS is a no-op."""
        validate_asn(asn)
        if asn not in self._adjacency:
            self._adjacency[asn] = {}
            self._version += 1

    def add_link(self, a: ASN, b: ASN, relationship_of_b: Relationship) -> None:
        """Add a link between ``a`` and ``b``.

        Args:
            a: first endpoint.
            b: second endpoint.
            relationship_of_b: what ``b`` is to ``a`` — e.g.
                ``Relationship.PROVIDER`` means ``b`` provides transit to
                ``a``.

        Raises:
            TopologyError: for self-links or if the link already exists with
                a different relationship.
        """
        validate_asn(a)
        validate_asn(b)
        if a == b:
            raise TopologyError(f"self-link on AS {a}")
        self.add_as(a)
        self.add_as(b)
        existing = self._adjacency[a].get(b)
        if existing is not None and existing is not relationship_of_b:
            raise TopologyError(
                f"link {a}-{b} already annotated {existing.name}, "
                f"refusing to overwrite with {relationship_of_b.name}"
            )
        if existing is None:
            self._adjacency[a][b] = relationship_of_b
            self._adjacency[b][a] = relationship_of_b.inverse
            self._version += 1

    def remove_link(self, a: ASN, b: ASN) -> None:
        """Remove the link between ``a`` and ``b``.

        Raises:
            TopologyError: if the link does not exist.
        """
        if b not in self._adjacency.get(a, {}):
            raise TopologyError(f"no link {a}-{b} to remove")
        del self._adjacency[a][b]
        del self._adjacency[b][a]
        self._version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Number of mutations so far (moves on every structural change)."""
        return self._version

    def __contains__(self, asn: ASN) -> bool:
        return asn in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __iter__(self) -> Iterator[ASN]:
        return iter(self._adjacency)

    @property
    def ases(self) -> FrozenSet[ASN]:
        """All ASes in the graph."""
        return frozenset(self._adjacency)

    def num_links(self) -> int:
        """Number of (undirected) links."""
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def neighbors(self, asn: ASN) -> Mapping[ASN, Relationship]:
        """Neighbors of ``asn`` with their relationship seen from ``asn``."""
        try:
            return self._adjacency[asn]
        except KeyError:
            raise TopologyError(f"AS {asn} not in topology") from None

    def relationship(self, a: ASN, b: ASN) -> Relationship:
        """Relationship of ``b`` as seen from ``a``.

        Raises:
            TopologyError: if ``a`` is unknown or not linked to ``b``.
        """
        neighbors = self.neighbors(a)
        try:
            return neighbors[b]
        except KeyError:
            raise TopologyError(f"no link between {a} and {b}") from None

    def has_link(self, a: ASN, b: ASN) -> bool:
        """Return True if ``a`` and ``b`` are directly connected."""
        return b in self._adjacency.get(a, {})

    def customers(self, asn: ASN) -> List[ASN]:
        """Direct customers of ``asn``."""
        return self._neighbors_with(asn, Relationship.CUSTOMER)

    def peers(self, asn: ASN) -> List[ASN]:
        """Settlement-free peers of ``asn``."""
        return self._neighbors_with(asn, Relationship.PEER)

    def providers(self, asn: ASN) -> List[ASN]:
        """Transit providers of ``asn``."""
        return self._neighbors_with(asn, Relationship.PROVIDER)

    def _neighbors_with(self, asn: ASN, relationship: Relationship) -> List[ASN]:
        return sorted(
            neighbor
            for neighbor, rel in self.neighbors(asn).items()
            if rel is relationship
        )

    def degree(self, asn: ASN) -> int:
        """Total number of links of ``asn``."""
        return len(self.neighbors(asn))

    def tier1_ases(self) -> FrozenSet[ASN]:
        """ASes with no providers (the transit-free top of the hierarchy)."""
        return frozenset(
            asn for asn in self._adjacency if not self.providers(asn)
        )

    def stub_ases(self) -> FrozenSet[ASN]:
        """ASes with no customers (the edge of the hierarchy)."""
        return frozenset(
            asn for asn in self._adjacency if not self.customers(asn)
        )

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def customer_cone(self, asn: ASN) -> FrozenSet[ASN]:
        """Customer cone of ``asn``: itself plus all recursive customers.

        Matches CAIDA's definition used by the paper to characterize
        coverage ("73% of ASes with customer cone larger than 300 ASes").
        """
        if asn not in self._adjacency:
            raise TopologyError(f"AS {asn} not in topology")
        cone: Set[ASN] = {asn}
        frontier = deque([asn])
        while frontier:
            current = frontier.popleft()
            for customer in self.customers(current):
                if customer not in cone:
                    cone.add(customer)
                    frontier.append(customer)
        return frozenset(cone)

    def hop_distances(self, sources: Iterable[ASN]) -> Dict[ASN, int]:
        """Shortest AS-hop distance from the nearest of ``sources``.

        Plain BFS over links (ignoring routing policy), matching the
        paper's Figure 7 metric: distance, in AS-hops, between an AS and
        the closest announcement location.
        """
        distances: Dict[ASN, int] = {}
        frontier: deque = deque()
        for source in sources:
            if source not in self._adjacency:
                raise TopologyError(f"source AS {source} not in topology")
            distances[source] = 0
            frontier.append(source)
        while frontier:
            current = frontier.popleft()
            next_distance = distances[current] + 1
            for neighbor in self._adjacency[current]:
                if neighbor not in distances:
                    distances[neighbor] = next_distance
                    frontier.append(neighbor)
        return distances

    def connected_component(self, asn: ASN) -> FrozenSet[ASN]:
        """All ASes reachable from ``asn`` over any links."""
        return frozenset(self.hop_distances([asn]))

    def links(self) -> Iterator[Tuple[ASN, ASN, Relationship]]:
        """Iterate links once each as ``(a, b, relationship_of_b)`` with a < b."""
        for a in sorted(self._adjacency):
            for b, rel in sorted(self._adjacency[a].items()):
                if a < b:
                    yield a, b, rel

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency and hierarchy sanity.

        Raises:
            TopologyError: on asymmetric links, provider cycles, or a
                disconnected graph (when non-empty).
        """
        for a, nbrs in self._adjacency.items():
            for b, rel in nbrs.items():
                back = self._adjacency.get(b, {}).get(a)
                if back is not rel.inverse:
                    raise TopologyError(
                        f"asymmetric link {a}-{b}: {rel.name} vs {back}"
                    )
        self._check_no_provider_cycles()
        if self._adjacency:
            first = next(iter(self._adjacency))
            component = self.connected_component(first)
            if len(component) != len(self._adjacency):
                missing = len(self._adjacency) - len(component)
                raise TopologyError(f"topology is disconnected ({missing} ASes unreachable)")

    def _check_no_provider_cycles(self) -> None:
        """Detect cycles in the customer→provider digraph (forbidden).

        A provider cycle (A provides for B provides for ... provides for A)
        breaks the hierarchy assumption behind valley-free routing.
        """
        state: Dict[ASN, int] = {}  # 0 = visiting, 1 = done
        for start in self._adjacency:
            if start in state:
                continue
            stack: List[Tuple[ASN, Iterator[ASN]]] = [
                (start, iter(self.providers(start)))
            ]
            state[start] = 0
            while stack:
                node, providers = stack[-1]
                advanced = False
                for provider in providers:
                    seen = state.get(provider)
                    if seen == 0:
                        raise TopologyError(
                            f"provider cycle involving AS {provider}"
                        )
                    if seen is None:
                        state[provider] = 0
                        stack.append((provider, iter(self.providers(provider))))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 1
                    stack.pop()

    def copy(self) -> "ASGraph":
        """Deep copy of the graph."""
        clone = ASGraph()
        for asn, nbrs in self._adjacency.items():
            clone._adjacency[asn] = dict(nbrs)
        return clone
