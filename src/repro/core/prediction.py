"""Routing-policy compliance and catchment prediction (paper §V-C, Fig. 9).

Two pieces:

* :func:`policy_compliance` checks, per configuration, which ASes route
  according to BGP's first two decision criteria — *best relationship*
  (customer > peer > provider) and *shortest path* among equally-preferred
  routes (together, the Gao-Rexford model).  The paper finds most ASes
  follow both, suggesting catchments are predictable.
* :class:`CatchmentPredictor` exploits exactly that: it predicts a
  configuration's catchments by simulating with a *clean* Gao-Rexford
  policy (no deviants, no disabled loop prevention) and reports how well
  the prediction matches reality — the paper's proposed shortcut to avoid
  measuring every configuration.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..bgp.policy import PolicyModel
from ..bgp.simulator import RoutingOutcome, RoutingSimulator
from ..errors import TopologyError
from ..topology.arrays import AdjacencyArrays, adjacency_arrays, asn_positions
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..topology.relationships import Relationship
from ..types import ASN, ASPath, path_without_prepending


@dataclass(frozen=True)
class ComplianceStats:
    """Per-configuration policy-compliance fractions.

    Attributes:
        ases_checked: ASes with a route and at least one alternative.
        best_relationship: fraction choosing a route in the most-preferred
            available relationship class.
        best_relationship_and_shortest: fraction additionally choosing a
            shortest (prepending-collapsed) path within that class —
            the Gao-Rexford model.
    """

    ases_checked: int
    best_relationship: float
    best_relationship_and_shortest: float


#: Gao-Rexford class ranks (lower = more preferred).
_CLASS_RANK = {
    Relationship.CUSTOMER: 0,
    Relationship.PEER: 1,
    Relationship.PROVIDER: 2,
}

#: Candidate sort key ``rank * _RANK_SHIFT + length``: the smallest key
#: is the best class's shortest candidate.
_RANK_SHIFT = 1 << 32
#: Key of a non-candidate edge (above every real candidate's key).
_NO_CANDIDATE = len(_CLASS_RANK) * _RANK_SHIFT

#: Per-relationship lookups, indexed by the relationship's value.
_RELATIONSHIPS = sorted(Relationship)
_RANK_OF = np.array([_CLASS_RANK[r] for r in _RELATIONSHIPS], dtype=np.int64)
_INVERSE_OF = np.array([r.inverse for r in _RELATIONSHIPS], dtype=np.int64)


class _ComplianceTable:
    """What the audit needs per edge of one graph version.

    Built over the graph's shared CSR layout
    (:class:`~repro.topology.arrays.AdjacencyArrays`): edge ``e`` runs
    from ``owner[e]`` to ``adj[e]`` and carries the neighbor's class rank
    seen from the owner and the owner's relationship seen from the
    neighbor (the export filter's second argument).  ``starts`` are the
    first edges of the ``rows`` that have any edge, so ``np.*.reduceat``
    over them reduces exactly each row's edges.
    """

    def __init__(self, arrays: AdjacencyArrays) -> None:
        self.arrays = arrays
        self.asns = np.array(arrays.asns, dtype=np.int64)
        degree = np.diff(np.array(arrays.off, dtype=np.int64))
        self.owner = np.repeat(np.arange(len(degree)), degree)
        self.adj = np.array(arrays.adj, dtype=np.int64)
        rel = np.array(arrays.rel, dtype=np.int64)
        self.rank_key = _RANK_OF[rel] * _RANK_SHIFT
        self.inverse = _INVERSE_OF[rel]
        self.rows = np.flatnonzero(degree)
        self.starts = np.array(arrays.off[:-1], dtype=np.int64)[self.rows]


#: Audit tables per graph, rebuilt with the graph's adjacency arrays.
_TABLES: "weakref.WeakKeyDictionary[ASGraph, _ComplianceTable]" = (
    weakref.WeakKeyDictionary()
)


def _compliance_table(graph: ASGraph) -> _ComplianceTable:
    arrays = adjacency_arrays(graph)
    table = _TABLES.get(graph)
    if table is None or table.arrays is not arrays:
        table = _TABLES[graph] = _ComplianceTable(arrays)
    return table


def _routed(
    outcome: RoutingOutcome, table: _ComplianceTable
) -> Tuple[np.ndarray, List[ASN], Iterable[Relationship], List[ASPath]]:
    """The routed ASes' positions in ``table``, next hops, classes, paths.

    Raises:
        TopologyError: if a routed AS is not in the table's graph.
    """
    columns = outcome.columns
    if columns is not None and columns.topology.asns is table.arrays.asns:
        # Simulated on this graph version: the columns' dense index is
        # the table's, so the routed rows are the positions.
        rows = columns.rows()
        return (
            np.array(rows, dtype=np.int64),
            list(map(columns.learned_from.__getitem__, rows)),
            map(columns.relationship.__getitem__, rows),
            list(map(columns.path.__getitem__, rows)),
        )
    routes = outcome.routes
    holders = asn_positions(
        table.asns, np.fromiter(routes, np.int64, len(routes))
    )
    if len(holders) and holders.min() < 0:
        index = table.arrays.index
        missing = next(asn for asn in routes if asn not in index)
        raise TopologyError(f"AS {missing} not in topology")
    values = list(routes.values())
    return (
        holders,
        list(map(attrgetter("learned_from"), values)),
        map(attrgetter("relationship"), values),
        list(map(attrgetter("as_path"), values)),
    )


def policy_compliance(
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

    The audit runs on integer arrays: the outcome's route columns (see
    :func:`_routed`; no ``Route`` objects) fill per-AS next hop, learned
    relationship and collapsed path length, and per-edge masks over the
    graph's cached CSR table (:class:`_ComplianceTable`) are reduced per
    AS with ``reduceat``.

    Args:
        outcome: the routing outcome to audit.
        graph: the topology.
        policy: export rules used to reconstruct candidate sets.
        origin: when given, the origin's direct announcements are included
            as candidates at its providers.

    Raises:
        TopologyError: if a routed AS is not in ``graph``.
    """
    table = _compliance_table(graph)
    holders, next_hops, relationships, paths = _routed(outcome, table)
    count = len(holders)
    n = len(table.asns)
    index = table.arrays.index
    lengths = np.fromiter(map(len, paths), np.int64, count)
    flat = np.fromiter(
        itertools.chain.from_iterable(paths), np.int64, int(lengths.sum())
    )
    # Prepending collapsed: drop every hop equal to the one before it
    # within the same path.
    repeat = np.zeros(len(flat), dtype=bool)
    repeat[1:] = flat[1:] == flat[:-1]
    repeat[(np.cumsum(lengths) - lengths)[lengths > 0]] = False
    owner_of_hop = np.repeat(np.arange(count), lengths)

    routed = np.zeros(n, dtype=bool)
    routed[holders] = True
    next_hop = np.full(n, -1, dtype=np.int64)
    next_hop[holders] = asn_positions(
        table.asns, np.array(next_hops, dtype=np.int64)
    )
    learned = np.zeros(n, dtype=np.int64)
    learned[holders] = np.fromiter(relationships, np.int64, count)
    length = np.zeros(n, dtype=np.int64)
    length[holders] = lengths - np.bincount(
        owner_of_hop[repeat], minlength=count
    )
    # The origin's own announcements, as candidates at its providers.
    direct = np.full(n, -1, dtype=np.int64)
    if origin is not None:
        for link in outcome.config.announced:
            provider = index.get(origin.provider_of(link))
            if provider is not None:
                announced = outcome.config.as_path_for_link(
                    outcome.origin_asn, link
                )
                direct[provider] = len(path_without_prepending(announced))
    exports = np.array(
        [
            [policy.exports(learned_from, export_to) for export_to in _RELATIONSHIPS]
            for learned_from in _RELATIONSHIPS
        ]
    )

    owner, adj = table.owner, table.adj
    origin_index = index.get(outcome.origin_asn, -1)
    to_origin = adj == origin_index
    via_neighbor = (
        ~to_origin
        & routed[adj]
        & (next_hop[adj] != owner)
        & exports[learned[adj], table.inverse]
    )
    via_origin = to_origin & (direct[owner] >= 0)
    candidate = via_neighbor | via_origin
    key = np.where(
        candidate,
        table.rank_key + np.where(via_origin, direct[owner], length[adj] + 1),
        _NO_CANDIDATE,
    )
    picked = candidate & (adj == next_hop[owner])

    starts = table.starts
    best = np.minimum.reduceat(key, starts)
    chosen = np.add.reduceat(np.where(picked, key, 0), starts)
    audited = routed[table.rows] & (
        np.add.reduceat(candidate, starts, dtype=np.int64) >= 2
    )
    relationship_ok = (
        audited
        & np.logical_or.reduceat(picked, starts)
        & (chosen // _RANK_SHIFT == best // _RANK_SHIFT)
    )
    # Same class, so comparing keys compares the path lengths.
    both_ok = relationship_ok & (chosen <= best)
    checked = int(np.count_nonzero(audited))
    relationship_count = int(np.count_nonzero(relationship_ok))
    both_count = int(np.count_nonzero(both_ok))
    return ComplianceStats(
        ases_checked=checked,
        best_relationship=relationship_count / checked if checked else 1.0,
        best_relationship_and_shortest=both_count / checked if checked else 1.0,
    )


@dataclass(frozen=True)
class PredictionAccuracy:
    """Agreement between predicted and actual catchments.

    Attributes:
        ases_compared: ASes present in both outcomes.
        fraction_correct: fraction assigned to the same link.
    """

    ases_compared: int
    fraction_correct: float


class CatchmentPredictor:
    """Predicts catchments with an idealized Gao-Rexford simulation.

    The predictor shares the topology but none of the deviant-policy
    state, standing in for an operator's model of the Internet built from
    public relationship data.
    """

    def __init__(self, graph: ASGraph, origin: OriginNetwork) -> None:
        ideal_policy = PolicyModel(
            graph,
            seed=0,
            policy_noise=0.0,
            loop_prevention_disabled_fraction=0.0,
        )
        self._simulator = RoutingSimulator(graph, origin, ideal_policy)

    def predict(self, config) -> RoutingOutcome:
        """Predicted routing outcome for ``config``."""
        return self._simulator.simulate(config)

    @staticmethod
    def accuracy(
        predicted: RoutingOutcome, actual: RoutingOutcome
    ) -> PredictionAccuracy:
        """Fraction of ASes whose predicted catchment matches reality."""
        compared = 0
        correct = 0
        for asn in actual.covered_ases:
            predicted_link = predicted.catchment_of(asn)
            if predicted_link is None:
                continue
            compared += 1
            if predicted_link == actual.catchment_of(asn):
                correct += 1
        return PredictionAccuracy(
            ases_compared=compared,
            fraction_correct=correct / compared if compared else 1.0,
        )
