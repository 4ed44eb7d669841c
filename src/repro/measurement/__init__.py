"""Catchment measurement substrate: feeds, traceroutes, mapping, resolution."""

from .atlas import AtlasProbeFleet, MeasurementRound, select_probe_ases
from .campaign import ConfigMeasurement, MeasurementCampaign
from .catchment import (
    KIND_BGP,
    KIND_TRACEROUTE,
    CatchmentHistory,
    CatchmentObservation,
    ResolutionStats,
    assignment_to_catchments,
    resolve_observations,
)
from .collectors import BGPCollectorSet, link_of_bgp_path, select_vantages
from .ip2as import AddressPlan, IPToASMapper, ORIGIN_PREFIX, PrefixTrie
from .ixp import IXP, IXPRegistry, synthesize_ixps
from .repair import (
    as_path_from_traceroute,
    build_bgp_segment_index,
    build_gap_index,
    map_hops_to_ases,
    repair_ip_gaps,
    resolve_as_gaps,
)
from .traceroute import OutcomeTracer, Traceroute, TracerouteEngine, TracerouteParams
from .verfploeter import VerfploeterParams, VerfploeterProber

__all__ = [
    "AddressPlan",
    "IPToASMapper",
    "PrefixTrie",
    "ORIGIN_PREFIX",
    "IXP",
    "IXPRegistry",
    "synthesize_ixps",
    "Traceroute",
    "TracerouteEngine",
    "TracerouteParams",
    "OutcomeTracer",
    "repair_ip_gaps",
    "map_hops_to_ases",
    "resolve_as_gaps",
    "as_path_from_traceroute",
    "build_gap_index",
    "build_bgp_segment_index",
    "BGPCollectorSet",
    "select_vantages",
    "link_of_bgp_path",
    "AtlasProbeFleet",
    "MeasurementRound",
    "select_probe_ases",
    "CatchmentObservation",
    "CatchmentHistory",
    "ResolutionStats",
    "resolve_observations",
    "assignment_to_catchments",
    "KIND_BGP",
    "KIND_TRACEROUTE",
    "MeasurementCampaign",
    "ConfigMeasurement",
    "VerfploeterProber",
    "VerfploeterParams",
]
