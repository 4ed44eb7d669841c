"""Event-driven, message-level BGP convergence simulation.

The fixpoint simulator (:mod:`repro.bgp.simulator`) answers *where routes
end up*; this engine answers *how long they take to get there*.  The
paper's deployment methodology hinges on convergence dynamics: each
configuration stays active for 70 minutes because route convergence takes
under 2.5 minutes 99% of the time and three post-convergence traceroute
rounds must fit (§IV-a).

The engine models:

* per-session UPDATE/WITHDRAW messages carrying full AS-paths,
* per-link propagation delays (deterministic, seeded),
* per-router processing delays,
* the MRAI timer (minimum route advertisement interval) that batches
  successive updates to the same neighbor — the main source of BGP's
  multi-second convergence tail,
* import/export policies identical to the fixpoint simulator's, so the
  converged state provably matches :class:`RoutingSimulator`'s outcome
  (asserted in the test suite).
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..errors import ConvergenceError
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..topology.relationships import Relationship
from ..types import ASN, ASPath, LinkId
from .announcement import AnnouncementConfig
from .policy import PolicyModel
from .route import Route, stable_tiebreak
from .simulator import RoutingOutcome

#: Default MRAI for eBGP sessions (RFC 4271 suggests 30 seconds).
DEFAULT_MRAI_SECONDS = 30.0
#: Default per-message processing delay at a router.
DEFAULT_PROCESSING_SECONDS = 0.05


@dataclass(frozen=True)
class ConvergenceParams:
    """Timing knobs for the convergence engine.

    Attributes:
        mrai_seconds: minimum spacing between successive advertisements to
            the same neighbor (0 disables the timer).
        min_link_delay_seconds / max_link_delay_seconds: range of the
            deterministic per-link propagation delays.
        processing_seconds: per-message processing time.
        seed: drives the per-link delay assignment.
    """

    mrai_seconds: float = DEFAULT_MRAI_SECONDS
    min_link_delay_seconds: float = 0.01
    max_link_delay_seconds: float = 0.25
    processing_seconds: float = DEFAULT_PROCESSING_SECONDS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mrai_seconds < 0:
            raise ConvergenceError("MRAI cannot be negative")
        if not 0 <= self.min_link_delay_seconds <= self.max_link_delay_seconds:
            raise ConvergenceError("link delay range is inverted or negative")
        if self.processing_seconds < 0:
            raise ConvergenceError("processing delay cannot be negative")


@dataclass
class ConvergenceResult:
    """Outcome of one event-driven convergence run.

    Attributes:
        routes: converged best route per AS.
        convergence_time: time of the last best-route change (seconds).
        messages_sent: total UPDATE/WITHDRAW messages exchanged.
        last_change_by_as: per AS, when its best route last changed.
        events_processed: total events popped from the queue.
    """

    config: AnnouncementConfig
    routes: Dict[ASN, Route]
    convergence_time: float
    messages_sent: int
    last_change_by_as: Dict[ASN, float]
    events_processed: int
    origin_asn: ASN

    def catchments(self) -> Dict[LinkId, frozenset]:
        """Per-link catchments of the converged state."""
        catchments: Dict[LinkId, set] = {
            link: set() for link in self.config.announced
        }
        for asn, route in self.routes.items():
            catchments[route.link_id].add(asn)
        return {link: frozenset(members) for link, members in catchments.items()}

    def agrees_with(self, outcome: RoutingOutcome) -> bool:
        """True if the converged catchment assignment matches a fixpoint outcome."""
        if set(self.routes) != outcome.covered_ases:
            return False
        return all(
            route.link_id == outcome.catchment_of(asn)
            and route.learned_from == outcome.next_hop(asn)
            for asn, route in self.routes.items()
        )


class _AdjRibIn:
    """Per-AS table of the routes each neighbor last advertised."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        # neighbor → (as_path as received, link_id, sender_relationship)
        self.entries: Dict[ASN, Tuple[ASPath, LinkId]] = {}


class ConvergenceEngine:
    """Simulates BGP message exchange for one announcement configuration.

    Args:
        graph: AS topology (origin attached).
        origin: the announcing network.
        policy: import/export policies; must be shared with any
            :class:`RoutingSimulator` whose outcome is compared against.
        params: timing parameters.
        max_events: safety bound on processed events.
    """

    def __init__(
        self,
        graph: ASGraph,
        origin: OriginNetwork,
        policy: Optional[PolicyModel] = None,
        params: Optional[ConvergenceParams] = None,
        max_events: int = 2_000_000,
    ) -> None:
        self.graph = graph
        self.origin = origin
        self.policy = policy if policy is not None else PolicyModel(graph)
        self.params = params or ConvergenceParams()
        self.max_events = max_events
        self._neighbors: Dict[ASN, List[Tuple[ASN, Relationship]]] = {
            asn: sorted(graph.neighbors(asn).items()) for asn in graph.ases
        }

    # ------------------------------------------------------------------

    def link_delay(self, a: ASN, b: ASN) -> float:
        """Deterministic propagation delay of the a→b session."""
        low, high = (
            self.params.min_link_delay_seconds,
            self.params.max_link_delay_seconds,
        )
        if high <= low:
            return low
        key = (a, b) if a < b else (b, a)
        digest = zlib.crc32(f"delay|{key[0]}|{key[1]}|{self.params.seed}".encode())
        return low + (digest % 10_000) / 10_000.0 * (high - low)

    # ------------------------------------------------------------------

    def run(self, config: AnnouncementConfig) -> ConvergenceResult:
        """Propagate ``config`` from scratch until the event queue drains."""
        origin_asn = self.origin.asn
        announced_paths: Dict[LinkId, ASPath] = {
            link: config.as_path_for_link(origin_asn, link)
            for link in sorted(config.announced)
        }
        provider_by_link: Dict[LinkId, ASN] = {
            link: self.origin.provider_of(link)
            for link in sorted(config.announced)
        }

        rib_in: Dict[ASN, _AdjRibIn] = {asn: _AdjRibIn() for asn in self.graph.ases}
        best: Dict[ASN, Route] = {}
        # Per (sender, receiver): earliest next send time (MRAI) and
        # whether a send is already scheduled (coalescing).
        mrai_ready: Dict[Tuple[ASN, ASN], float] = {}
        send_scheduled: Set[Tuple[ASN, ASN]] = set()

        # Event queue: (time, sequence, kind, payload)
        #  kind "deliver": payload = (sender, receiver)  — receiver reads
        #  the sender's *current* export (coalescing semantics).
        queue: List[Tuple[float, int, str, Tuple[ASN, ASN]]] = []
        sequence = 0
        messages_sent = 0
        last_change: Dict[ASN, float] = {}
        convergence_time = 0.0

        def schedule_send(sender: ASN, receiver: ASN, now: float) -> None:
            nonlocal sequence
            key = (sender, receiver)
            if key in send_scheduled:
                return  # a pending delivery will pick up the latest state
            ready = mrai_ready.get(key, 0.0)
            fire = max(now, ready) + self.link_delay(sender, receiver)
            send_scheduled.add(key)
            sequence += 1
            heapq.heappush(queue, (fire, sequence, "deliver", key))

        def export_of(sender: ASN, receiver: ASN) -> Optional[Route]:
            """What ``sender`` currently advertises to ``receiver``."""
            if sender == origin_asn:
                link = _link_of_provider(provider_by_link, receiver)
                if link is None:
                    return None
                path = announced_paths[link]
                return Route(
                    as_path=path,
                    link_id=link,
                    learned_from=origin_asn,
                    relationship=Relationship.PROVIDER,  # placeholder; unused
                    local_pref=0,
                )
            route = best.get(sender)
            if route is None:
                return None
            if not self.policy.exports(
                route.relationship, self.graph.relationship(sender, receiver)
            ):
                return None
            blocked = config.no_export_for_link(route.link_id)
            if (
                blocked
                and receiver in blocked
                and sender == provider_by_link[route.link_id]
            ):
                return None
            return route

        def reselect(asn: ASN, now: float) -> None:
            """Re-run best-path selection at ``asn``; propagate changes."""
            nonlocal convergence_time
            candidates: List[Route] = []
            salt = self.policy.salt_for(asn)
            best_key = None
            best_route: Optional[Route] = None
            for neighbor, (path, link) in rib_in[asn].entries.items():
                relationship = self.graph.relationship(asn, neighbor)
                announced = announced_paths[link]
                stuffed_len = len(announced)
                transit = path[:-stuffed_len] if stuffed_len < len(path) else ()
                if not self.policy.accepts(asn, transit, announced, relationship):
                    continue
                local_pref = self.policy.local_pref(asn, relationship)
                key = (
                    -local_pref,
                    len(path),
                    self.policy.igp_cost(asn, neighbor),
                    stable_tiebreak(asn, neighbor, salt),
                    neighbor,
                    link,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_route = Route(
                        as_path=path,
                        link_id=link,
                        learned_from=neighbor,
                        relationship=relationship,
                        local_pref=local_pref,
                    )
            old = best.get(asn)
            if best_route == old:
                return
            if best_route is None:
                del best[asn]
            else:
                best[asn] = best_route
            last_change[asn] = now
            convergence_time = max(convergence_time, now)
            for neighbor, _ in self._neighbors[asn]:
                if neighbor == origin_asn:
                    continue
                schedule_send(asn, neighbor, now)

        # Kick-off: the origin advertises to each announced link's provider.
        for link in sorted(config.announced):
            schedule_send(origin_asn, provider_by_link[link], 0.0)

        events = 0
        while queue:
            events += 1
            if events > self.max_events:
                raise ConvergenceError(
                    f"exceeded {self.max_events} events for {config.describe()}"
                )
            now, _, _, (sender, receiver) = heapq.heappop(queue)
            send_scheduled.discard((sender, receiver))
            mrai_ready[(sender, receiver)] = now + self.params.mrai_seconds
            messages_sent += 1
            advertised = export_of(sender, receiver)
            entries = rib_in[receiver].entries
            if advertised is None:
                if sender not in entries:
                    continue  # withdraw of something never installed
                del entries[sender]
            else:
                exported_path = (
                    advertised.as_path
                    if sender == origin_asn
                    else (sender,) + advertised.as_path
                )
                if entries.get(sender) == (exported_path, advertised.link_id):
                    continue  # duplicate advertisement
                entries[sender] = (exported_path, advertised.link_id)
            reselect(receiver, now + self.params.processing_seconds)

        return ConvergenceResult(
            config=config,
            routes=dict(best),
            convergence_time=convergence_time,
            messages_sent=messages_sent,
            last_change_by_as=last_change,
            events_processed=events,
            origin_asn=origin_asn,
        )


def _link_of_provider(
    provider_by_link: Mapping[LinkId, ASN], provider: ASN
) -> Optional[LinkId]:
    for link, asn in provider_by_link.items():
        if asn == provider:
            return link
    return None
