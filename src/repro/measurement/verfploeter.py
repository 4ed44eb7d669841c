"""Verfploeter-style active catchment measurement (paper §I, citing [11]).

The paper's first suggestion for catchment mapping: "sending out pings and
measuring which link replies arrive at" (de Vries et al., *Verfploeter*).
The anycast origin pings addresses across the Internet *from* the anycast
prefix; each reply is routed back toward the prefix and therefore ingresses
on the link whose catchment contains the reply's source — one probe, one
direct catchment observation, no inference.

Compared to the passive feed/traceroute pipeline, Verfploeter achieves far
higher coverage (every ping-responsive AS) with no AS-path parsing, at the
cost of requiring the origin to source Internet-wide probe traffic —
which is exactly why the paper could not run it from PEERING (§IV-b notes
the platform's concerns about Internet-wide scans).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from ..bgp.simulator import RoutingOutcome
from ..errors import MeasurementError
from ..topology.graph import ASGraph
from ..types import ASN, LinkId


@dataclass(frozen=True)
class VerfploeterParams:
    """Knobs for the active prober.

    Attributes:
        responsiveness: fraction of ASes hosting at least one
            ping-responsive address (ICMP studies put this around 0.6–0.8).
        seed: drives the deterministic per-AS responsiveness assignment.
    """

    responsiveness: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.responsiveness <= 1.0:
            raise MeasurementError("responsiveness must be in [0, 1]")


class VerfploeterProber:
    """Active anycast catchment mapper.

    Args:
        graph: the topology (to enumerate probe targets).
        origin: ASN of the anycast origin (never probes itself).
        params: responsiveness model.
    """

    def __init__(
        self,
        graph: ASGraph,
        origin_asn: ASN,
        params: Optional[VerfploeterParams] = None,
    ) -> None:
        self.graph = graph
        self.origin_asn = origin_asn
        self.params = params or VerfploeterParams()

    def is_responsive(self, asn: ASN) -> bool:
        """Deterministic: does ``asn`` answer pings at all?"""
        digest = zlib.crc32(f"verfploeter|{asn}|{self.params.seed}".encode())
        return (digest % 10_000) / 10_000.0 < self.params.responsiveness

    def measure(self, outcome: RoutingOutcome) -> Dict[ASN, LinkId]:
        """Ping sweep under ``outcome``: source AS → ingress link of reply.

        An AS appears iff it is ping-responsive *and* currently holds a
        route to the prefix (otherwise its reply never arrives).  The
        observed link is exact — replies follow the reply's own best
        route, which is precisely the catchment definition.
        """
        assignment: Dict[ASN, LinkId] = {}
        for asn, link in outcome.link_assignment().items():
            if asn == self.origin_asn:
                continue
            if self.is_responsive(asn):
                assignment[asn] = link
        return assignment

    def coverage(self, outcome: RoutingOutcome) -> float:
        """Fraction of routed ASes the sweep observes."""
        origin_asn = self.origin_asn
        routed = [asn for asn in outcome.covered_ases if asn != origin_asn]
        if not routed:
            return 0.0
        return sum(1 for asn in routed if self.is_responsive(asn)) / len(routed)
