"""Public BGP feed emulation (RouteViews / RIPE RIS).

Route collectors peer with a few hundred ASes — disproportionately large
transit networks — and archive the AS-paths those peers export.  The paper
uses all public feeds from RouteViews and RIPE RIS both to measure
catchments directly and to backfill traceroute gaps (§IV-b).

:class:`BGPCollectorSet` observes a :class:`~repro.bgp.simulator.RoutingOutcome`
from a fixed set of vantage ASes and reports the control-plane AS-paths
exactly as a collector would see them: vantage-first, with prepending
repetitions and poison stuffing intact.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

from ..bgp.simulator import RoutingOutcome
from ..errors import MeasurementError
from ..topology.graph import ASGraph
from ..topology.peering import OriginNetwork
from ..types import ASN, ASPath, LinkId


def select_vantages(
    graph: ASGraph,
    count: int,
    seed: int = 0,
    exclude: Iterable[ASN] = (),
    degree_bias: float = 0.7,
) -> List[ASN]:
    """Choose collector vantage ASes, biased toward high-degree networks.

    A ``degree_bias`` fraction of vantages is taken from the highest-degree
    ASes (mirroring tier-1/large-transit collector peers); the remainder is
    sampled uniformly from what is left.

    Raises:
        MeasurementError: when the graph has fewer eligible ASes than
            ``count``.
    """
    if not 0.0 <= degree_bias <= 1.0:
        raise MeasurementError("degree_bias must be in [0, 1]")
    excluded = set(exclude)
    eligible = sorted(asn for asn in graph.ases if asn not in excluded)
    if count > len(eligible):
        raise MeasurementError(
            f"requested {count} vantages but only {len(eligible)} eligible ASes"
        )
    by_degree = sorted(eligible, key=lambda asn: (-graph.degree(asn), asn))
    top_count = round(count * degree_bias)
    vantages = by_degree[:top_count]
    remainder = [asn for asn in eligible if asn not in set(vantages)]
    rng = random.Random(seed)
    vantages.extend(rng.sample(remainder, count - len(vantages)))
    return sorted(vantages)


class BGPCollectorSet:
    """A fixed set of feed vantage points.

    Args:
        vantages: ASes exporting their best path to the collectors.
        origin: the origin network (needed to attribute paths to links).
    """

    def __init__(self, vantages: Sequence[ASN], origin: OriginNetwork) -> None:
        if not vantages:
            raise MeasurementError("collector set needs at least one vantage")
        if len(set(vantages)) != len(vantages):
            raise MeasurementError("duplicate vantage ASes")
        self.vantages = sorted(vantages)
        self.origin = origin

    def observe(self, outcome: RoutingOutcome) -> Dict[ASN, ASPath]:
        """AS-paths exported by each vantage under ``outcome``.

        Vantages with no route are absent (a collector simply sees no
        announcement from them).
        """
        observations: Dict[ASN, ASPath] = {}
        for vantage in self.vantages:
            path = outcome.as_path(vantage)
            if path is not None:
                observations[vantage] = (vantage,) + path
        return observations

    def observed_paths(self, outcome: RoutingOutcome) -> List[ASPath]:
        """All observed paths (for BGP-bracketing traceroute repair)."""
        return list(self.observe(outcome).values())


def link_of_bgp_path(origin: OriginNetwork, path: ASPath) -> Optional[LinkId]:
    """Attribute a collector-observed AS-path to an origin peering link.

    The link is identified by the AS immediately preceding the first
    occurrence of the origin ASN — the directly-connected provider the
    announcement entered the Internet through.  Returns None for paths
    that do not contain the origin or whose preceding AS is not one of the
    origin's providers (e.g. badly repaired paths).
    """
    try:
        index = path.index(origin.asn)
    except ValueError:
        return None
    if index == 0:
        return None
    provider = path[index - 1]
    for link in origin.links:
        if link.provider == provider:
            return link.link_id
    return None
