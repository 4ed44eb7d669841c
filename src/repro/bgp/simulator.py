"""BGP route propagation over an AS graph for one announcement configuration.

The simulator computes, for every AS, the best route toward the origin's
prefix under the configured announcement ⟨A; P; Q⟩, applying the decision
process of §II (LocalPref → AS-path length → deterministic tiebreaks) and
the import/export policies of :class:`repro.bgp.policy.PolicyModel`.

Propagation is a Gauss-Seidel fixpoint iteration: ASes are visited in a
fixed order, each re-selecting its best route from its neighbors' current
selections, until a full pass changes nothing.  Under Gao-Rexford policies
this converges in a number of passes proportional to the routing-system
diameter; deviant-policy ASes can in principle oscillate, so the iteration
is bounded and the outcome records whether a fixpoint was reached.

The iteration runs on the compiled, integer-indexed frontier core in
:mod:`repro.bgp.indexed`, which re-evaluates only ASes whose
neighborhood changed; its trajectory is bit-identical to a full sweep
(routes, catchments, passes, decision changes).  The compiler inlines
the base import/export logic, so policies overriding
``accepts``/``exports`` are rejected at construction.

The per-link *catchment* — the set of ASes whose best route descends from
that peering link — falls directly out of the fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Union

from ..errors import SimulationError
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..types import ASN, ASPath, LinkId
from .announcement import AnnouncementConfig
from .indexed import CompiledTopology, RouteColumns, uncompilable_overrides
from .policy import PolicyModel
from .route import Route

#: Default bound on Gauss-Seidel passes before declaring non-convergence.
DEFAULT_MAX_PASSES = 60


@dataclass
class RoutingOutcome:
    """Result of simulating one announcement configuration.

    A simulated outcome holds its routes as :class:`RouteColumns`, the
    propagation core's per-AS arrays, and every accessor below reads
    them directly.  :attr:`routes` builds one :class:`Route` per routed
    AS on first access; from then on that dict is the outcome's state,
    so edits to it are seen by every accessor.  An outcome built with a
    ``routes`` dict (by hand, or unpickled) is dict-backed from the
    start.  Either way the pickled form is the field dict below with
    ``routes`` materialized.

    Attributes:
        config: the configuration that was simulated.
        routes: best route per AS (ASes with no route are absent).
        catchments: per announced link, the set of ASes routed toward it.
        passes: Gauss-Seidel passes executed.
        decision_changes: total number of best-route changes observed.
        converged: whether a full pass with no changes was reached.
        columns: the per-AS route arrays, or None once the outcome is
            dict-backed.
    """

    config: AnnouncementConfig
    #: ``None`` together with ``columns``: built from them on access.
    routes: Optional[Dict[ASN, Route]]
    catchments: Dict[LinkId, FrozenSet[ASN]]
    passes: int
    decision_changes: int
    converged: bool
    origin_asn: ASN
    #: All ASes of the simulated topology (shared frozenset, not a copy);
    #: empty on outcomes built by hand before this field existed.
    known_ases: FrozenSet[ASN] = frozenset()
    #: Whether the fixpoint was seeded from a prior outcome's routes.
    warm_started: bool = False
    columns: Optional[RouteColumns] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.routes is not None:
            self.columns = None
        elif self.columns is None:
            raise SimulationError("a RoutingOutcome needs routes or columns")
        else:
            del self.routes  # built by __getattr__ on first access

    def __getattr__(self, name: str):
        # Python calls this only for attributes not found the normal way:
        # here, ``routes`` before its first access.
        columns = self.__dict__.get("columns")
        if name != "routes" or columns is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        routes = self.routes = columns.routes()
        self.columns = None
        return routes

    def __getstate__(self) -> Dict[str, object]:
        """The field dict (``routes`` materialized), without the columns."""
        columns = self.columns
        return {
            "config": self.config,
            "routes": self.routes if columns is None else columns.routes(),
            "catchments": self.catchments,
            "passes": self.passes,
            "decision_changes": self.decision_changes,
            "converged": self.converged,
            "origin_asn": self.origin_asn,
            "known_ases": self.known_ases,
            "warm_started": self.warm_started,
        }

    def route(self, asn: ASN) -> Optional[Route]:
        """Best route of ``asn``, or None if it has no route."""
        columns = self.columns
        if columns is None:
            return self.routes.get(asn)
        i = columns.row(asn)
        return columns.route(i) if i >= 0 else None

    def catchment_of(self, asn: ASN) -> Optional[LinkId]:
        """Peering link whose catchment contains ``asn`` (None if unrouted)."""
        columns = self.columns
        if columns is not None:
            return columns.link_of(asn)
        route = self.routes.get(asn)
        return route.link_id if route is not None else None

    def next_hop(self, asn: ASN) -> Optional[ASN]:
        """Neighbor ``asn`` learned its best route from (None if unrouted)."""
        columns = self.columns
        if columns is not None:
            return columns.next_hop(asn)
        route = self.routes.get(asn)
        return route.learned_from if route is not None else None

    def as_path(self, asn: ASN) -> Optional[ASPath]:
        """AS-path of ``asn``'s best route as received (None if unrouted)."""
        columns = self.columns
        if columns is not None:
            return columns.as_path(asn)
        route = self.routes.get(asn)
        return route.as_path if route is not None else None

    @property
    def covered_ases(self) -> FrozenSet[ASN]:
        """ASes holding a route toward the prefix (built once per columns)."""
        columns = self.columns
        if columns is not None:
            return columns.covered_ases()
        return frozenset(self.routes)

    def link_assignment(self) -> Dict[ASN, LinkId]:
        """Origin link of every routed AS, in ``routes`` order."""
        columns = self.columns
        if columns is not None:
            return columns.link_assignment()
        return {asn: route.link_id for asn, route in self.routes.items()}

    def forwarding_path(self, asn: ASN) -> ASPath:
        """Data-plane AS path from ``asn`` to the origin.

        Unlike the control-plane AS-path, this excludes prepending
        repetitions and poison stuffing: it is the chain of ASes packets
        actually traverse, ending at the origin.  Used by the traceroute
        simulation.

        Raises:
            SimulationError: if ``asn`` is not part of the simulated
                topology at all, if it holds no route, or if the next-hop
                chain is broken (only possible on non-converged outcomes).
        """
        if self.known_ases and asn not in self.known_ases:
            raise SimulationError(
                f"AS {asn} is not part of the simulated topology"
            )
        if asn == self.origin_asn:
            return (asn,)
        columns = self.columns
        if columns is not None:
            next_hop_of, routed = columns.next_hop, columns.count
        else:
            next_hop_of, routed = self.next_hop, len(self.routes)
        hops: List[ASN] = [asn]
        current = asn
        for _ in range(routed + 2):
            next_hop = next_hop_of(current)
            if next_hop is None:
                raise SimulationError(
                    f"AS {current} holds no route toward the prefix"
                    if current == asn
                    else f"AS {current} (next hop of AS {asn}) holds no route "
                    "toward the prefix"
                )
            hops.append(next_hop)
            if next_hop == self.origin_asn:
                return tuple(hops)
            current = next_hop
        raise SimulationError(f"forwarding loop detected starting at AS {asn}")


class RoutingSimulator:
    """Propagates announcement configurations over a topology.

    Args:
        graph: AS topology including the attached origin AS.
        origin: the origin network whose links announce the prefix.
        policy: routing policies; a default Gao-Rexford model is built
            when omitted.
        max_passes: bound on fixpoint iterations.
        strict: when True, non-convergence raises
            :class:`repro.errors.ConvergenceError`; when False the
            (still well-defined) state at the bound is returned with
            ``converged=False``.

    Raises:
        SimulationError: if an origin link is missing from ``graph``,
            ``max_passes`` is not positive, or ``policy`` overrides
            ``accepts``/``exports`` (the compiled core cannot honor them).

    The simulator is bound to ``graph`` as it is at construction: once
    the graph is mutated (:attr:`ASGraph.version` moves), :meth:`simulate`
    raises :class:`~repro.errors.SimulationError` instead of routing over
    the topology it compiled.
    """

    def __init__(
        self,
        graph: ASGraph,
        origin: OriginNetwork,
        policy: Optional[PolicyModel] = None,
        max_passes: int = DEFAULT_MAX_PASSES,
        strict: bool = False,
    ) -> None:
        for link in origin.links:
            if not graph.has_link(origin.asn, link.provider):
                raise SimulationError(
                    f"origin {origin.asn} not linked to provider {link.provider} "
                    f"of {link.link_id!r} in the topology"
                )
        if max_passes < 1:
            raise SimulationError("max_passes must be positive")
        self.graph = graph
        self.origin = origin
        self.policy = policy if policy is not None else PolicyModel(graph)
        overridden = uncompilable_overrides(self.policy)
        if overridden:
            raise SimulationError(
                f"{type(self.policy).__name__} overrides "
                f"{', '.join(overridden)}; the compiled core only supports "
                "the base PolicyModel import/export logic"
            )
        self.max_passes = max_passes
        self.strict = strict
        # Stable visit order: hierarchy-ish (providers of the origin first
        # via BFS from the origin) so information flows outward quickly and
        # convergence needs few passes.
        distances = graph.hop_distances([origin.asn])
        self._visit_order: List[ASN] = sorted(
            (asn for asn in graph.ases if asn != origin.asn),
            key=lambda asn: (distances.get(asn, len(graph)), asn),
        )
        # Compiled lazily on first use, so the tables never ride along
        # when a simulator is pickled to a worker process (see
        # __getstate__).
        self._compiled: Optional[CompiledTopology] = None
        self._known_ases: FrozenSet[ASN] = graph.ases
        self._graph_version = graph.version

    # ------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the compiled tables; workers rebuild them."""
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def simulate(
        self,
        config: AnnouncementConfig,
        warm_start: Union[RoutingOutcome, Mapping[ASN, Route], None] = None,
    ) -> RoutingOutcome:
        """Propagate ``config`` to a fixpoint and return the outcome.

        Args:
            config: the announcement configuration to propagate.
            warm_start: a previously simulated, similar configuration's
                outcome (e.g. the same announcement set without
                prepending), or its best routes.  An outcome of this
                simulator seeds from its route columns without building
                :class:`Route` objects; otherwise its ``routes`` are
                read.  The fixpoint iteration is seeded from these
                routes instead of the empty state, which typically cuts
                the number of Gauss-Seidel passes substantially.  Seeded
                routes through links the new configuration does not
                announce — or whose AS-path no longer ends in the path
                this configuration announces through their link (e.g.
                after a prepending change) — are discarded; every
                surviving seed is still re-evaluated by the decision
                process, so the fixpoint reached is a genuine stable
                state of ``config`` (route chains can never be circular —
                path lengths grow along them — so at a fixpoint every
                chain terminates in a freshly announced path).  The
                stale-tail filter matters: deviant-policy topologies
                admit multiple stable states, and stale seeds can steer
                the iteration into a different one than a cold start
                reaches.

        Raises:
            SimulationError: if the graph was mutated after this
                simulator was built, or ``config`` announces from an
                unknown link.
        """
        if self.graph.version != self._graph_version:
            raise SimulationError(
                "topology changed after this simulator was built "
                f"(graph version {self._graph_version} -> {self.graph.version}); "
                "build a new RoutingSimulator for the new topology"
            )
        self._validate_config(config)
        if self._compiled is None:
            self._compiled = CompiledTopology.compile(
                self.graph, self.origin, self.policy, self._visit_order
            )
        if isinstance(warm_start, RoutingOutcome):
            columns = warm_start.columns
            warm_start = columns if columns is not None else warm_start.routes
        return self._compiled.propagate(
            config, warm_start, self.max_passes, self.strict,
            self._known_ases,
        )

    # ------------------------------------------------------------------

    def _validate_config(self, config: AnnouncementConfig) -> None:
        known = set(self.origin.link_ids)
        unknown = set(config.announced) - known
        if unknown:
            raise SimulationError(
                f"configuration announces from unknown links {sorted(unknown)}"
            )
