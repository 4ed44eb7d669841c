"""Router-level traceroute simulation toward the announced prefix.

The paper's catchment measurements combine BGP feeds with traceroutes
issued from RIPE Atlas probes (§IV-b).  This engine produces traceroute
output with the artifacts that make the paper's repair pipeline
(:mod:`repro.measurement.repair`) necessary:

* multiple routers per AS,
* unresponsive hops (``*``),
* hops on IXP peering LANs (addresses belonging to no member AS),
* border interfaces numbered from the upstream neighbor's address space,
* occasional bogus paths (probe misattribution / stale routes), and
* truncated measurements that never reach the target.

All randomness is derived from ``(seed, probe AS, round)`` so a
measurement is reproducible regardless of call order.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bgp.simulator import RoutingOutcome
from ..errors import MeasurementError, SimulationError
from ..topology.graph import ASGraph
from ..types import ASN, ASPath
from .ip2as import AddressPlan
from .ixp import IXPRegistry


@dataclass(frozen=True)
class Traceroute:
    """One traceroute measurement.

    Attributes:
        probe_as: AS hosting the probe.
        target: destination address (inside the announced prefix).
        hops: per-hop responding address, None for unresponsive hops.
        reached_target: whether the last hop is the target.
    """

    probe_as: ASN
    target: int
    hops: Tuple[Optional[int], ...]
    reached_target: bool

    @property
    def responsive_hops(self) -> Tuple[int, ...]:
        """Addresses of hops that responded."""
        return tuple(hop for hop in self.hops if hop is not None)


@dataclass(frozen=True)
class TracerouteParams:
    """Artifact rates for the traceroute engine.

    Attributes:
        max_routers_per_as: internal router chain length is
            1 + (stable hash % this) per AS.
        unresponsive_rate: per-hop probability of no reply.
        border_sharing_rate: probability the entry interface into an AS is
            numbered from the previous AS's space (real-world IP-to-AS
            error source).
        path_error_rate: probability the probe measures a neighbor's path
            instead of its own (probe misattribution).
        truncation_rate: probability the measurement dies before the
            target.
        divergence_rate: probability a traceroute diverges from the
            AS-level best path at an intermediate AS — "different routers
            within an AS may choose different routes" (paper §IV-c).  This
            is the mechanism that puts an AS in multiple catchments.
        seed: base seed for per-measurement PRNGs.
    """

    max_routers_per_as: int = 2
    unresponsive_rate: float = 0.08
    border_sharing_rate: float = 0.15
    path_error_rate: float = 0.01
    truncation_rate: float = 0.03
    divergence_rate: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_routers_per_as < 1:
            raise MeasurementError("max_routers_per_as must be at least 1")
        for name in (
            "unresponsive_rate",
            "border_sharing_rate",
            "path_error_rate",
            "truncation_rate",
            "divergence_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise MeasurementError(f"{name} must be in [0, 1], got {value}")


class TracerouteEngine:
    """Simulates traceroutes along a routing outcome's forwarding paths.

    Each AS's router chain (its router count and interface addresses) is
    a pure function of the AS and the seed, so it is derived once per
    engine, on first use.  Work shared by every probe of one routing
    outcome lives in an :class:`OutcomeTracer` (see :meth:`tracer`).
    """

    def __init__(
        self,
        graph: ASGraph,
        plan: AddressPlan,
        ixps: Optional[IXPRegistry] = None,
        params: Optional[TracerouteParams] = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.ixps = ixps or IXPRegistry()
        self.params = params or TracerouteParams()
        self._chains: Dict[ASN, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}

    def _routers_in(self, asn: ASN) -> int:
        digest = zlib.crc32(f"routers|{asn}|{self.params.seed}".encode("ascii"))
        return 1 + digest % self.params.max_routers_per_as

    def _hop_slot(self, asn: ASN, router_index: int) -> int:
        """Stable interface index so the same router keeps its address."""
        digest = zlib.crc32(f"slot|{asn}|{router_index}|{self.params.seed}".encode("ascii"))
        return digest % 1024 + router_index

    def _chain(self, asn: ASN) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Hop slots and interface addresses of ``asn``'s router chain."""
        chain = self._chains.get(asn)
        if chain is None:
            slots = tuple(
                self._hop_slot(asn, router_index)
                for router_index in range(self._routers_in(asn))
            )
            addresses = tuple(self.plan.router_address(asn, slot) for slot in slots)
            chain = self._chains[asn] = (slots, addresses)
        return chain

    def tracer(self, outcome: RoutingOutcome) -> "OutcomeTracer":
        """A tracer sharing per-outcome work across many probes."""
        return OutcomeTracer(self, outcome)

    def measure(
        self,
        outcome: RoutingOutcome,
        probe_as: ASN,
        round_index: int = 0,
    ) -> Optional[Traceroute]:
        """Run one traceroute from ``probe_as`` toward the prefix.

        Returns None when the probe currently has no route (e.g. its
        region lost reachability under a withdrawal) — matching a real
        measurement timing out entirely.
        """
        return self.tracer(outcome).measure(probe_as, round_index)


class OutcomeTracer:
    """Traceroutes toward the prefix under one routing outcome.

    Holds what every probe of the outcome shares: the configuration key
    of the per-probe seeds, the forwarding path of each AS (computed on
    first use) and one PRNG, reseeded per probe.  Reseeding with the same
    integer yields the same stream a fresh ``random.Random`` would, so a
    measurement does not depend on which probes ran before it — but the
    PRNG makes a tracer single-threaded: give each thread its own.
    """

    def __init__(self, engine: TracerouteEngine, outcome: RoutingOutcome) -> None:
        self.engine = engine
        self.outcome = outcome
        self._seed_suffix = f"|{outcome.config.describe()}|{engine.params.seed}"
        self._paths: Dict[ASN, Optional[ASPath]] = {}
        self._rng = random.Random()

    def _forwarding_path(self, asn: ASN) -> Optional[ASPath]:
        """The outcome's forwarding path from ``asn``; None without one."""
        try:
            return self._paths[asn]
        except KeyError:
            pass
        try:
            path: Optional[ASPath] = self.outcome.forwarding_path(asn)
        except SimulationError:
            path = None
        self._paths[asn] = path
        return path

    def measure(self, probe_as: ASN, round_index: int = 0) -> Optional[Traceroute]:
        """Run one traceroute; see :meth:`TracerouteEngine.measure`."""
        engine = self.engine
        params = engine.params
        rng = self._rng
        rng.seed(
            zlib.crc32(
                f"probe|{probe_as}|{round_index}{self._seed_suffix}".encode("ascii")
            )
        )
        random_unit = rng.random
        measured_as = probe_as
        if params.path_error_rate and random_unit() < params.path_error_rate:
            catchment_of = self.outcome.catchment_of
            neighbors = [
                n
                for n in sorted(engine.graph.neighbors(probe_as))
                if catchment_of(n) is not None
            ]
            if neighbors:
                measured_as = rng.choice(neighbors)
        as_path = self._forwarding_path(measured_as)
        if as_path is None:
            return None
        if (
            params.divergence_rate
            and len(as_path) > 3
            and random_unit() < params.divergence_rate
        ):
            as_path = self._diverge(as_path, rng)

        unresponsive_rate = params.unresponsive_rate
        border_sharing_rate = params.border_sharing_rate
        ixps = engine.ixps
        chain_of = engine._chain
        target = engine.plan.target_address()
        hops: List[Optional[int]] = []
        previous_as: Optional[ASN] = None
        for asn in as_path[:-1]:  # the origin is represented by the target hop
            if previous_as is not None:
                ixp = ixps.ixp_for_link(previous_as, asn)
                if ixp is not None:
                    hops.append(
                        None
                        if random_unit() < unresponsive_rate
                        else ixps.lan_address(ixp, asn)
                    )
            slots, addresses = chain_of(asn)
            for router_index, address in enumerate(addresses):
                if random_unit() < unresponsive_rate:
                    hops.append(None)
                    continue
                if (
                    router_index == 0
                    and previous_as is not None
                    and random_unit() < border_sharing_rate
                ):
                    # Entry interface numbered from the upstream's space.
                    address = engine.plan.router_address(previous_as, slots[0])
                hops.append(address)
            previous_as = asn

        if params.truncation_rate and random_unit() < params.truncation_rate and hops:
            cut = rng.randrange(1, len(hops) + 1)
            return Traceroute(
                probe_as=probe_as,
                target=target,
                hops=tuple(hops[:cut]),
                reached_target=False,
            )
        hops.append(target)
        return Traceroute(
            probe_as=probe_as, target=target, hops=tuple(hops), reached_target=True
        )

    def _diverge(self, as_path: ASPath, rng: random.Random) -> ASPath:
        """Fork the path at an intermediate AS onto a neighbor's best path.

        Models per-flow routing diversity inside large ASes: the packet
        exits through a different border than the AS's (single) best route
        in our model, continuing along that neighbor's path to the origin.
        Divergences that would create AS-level loops are discarded.
        """
        fork_index = rng.randrange(1, len(as_path) - 2)
        fork_as = as_path[fork_index]
        prefix = as_path[: fork_index + 1]
        default_next = as_path[fork_index + 1]
        catchment_of = self.outcome.catchment_of
        neighbors = [
            neighbor
            for neighbor in sorted(self.engine.graph.neighbors(fork_as))
            if neighbor != default_next and catchment_of(neighbor) is not None
        ]
        rng.shuffle(neighbors)
        for neighbor in neighbors:
            suffix = self._forwarding_path(neighbor)
            if suffix is None:
                continue
            candidate = prefix + suffix
            if len(candidate) == len(set(candidate)):
                return candidate
        return as_path
