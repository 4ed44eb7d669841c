"""Dense integer view of an :class:`~repro.topology.graph.ASGraph`.

The compiled consumers of a topology — the BGP propagation core
(:class:`~repro.bgp.indexed.CompiledTopology`) and the Fig. 9 compliance
audit (:func:`~repro.core.prediction.policy_compliance`) — both work on
the same CSR layout: ASes indexed densely in ascending ASN order, and
each AS's edges stored contiguously in ascending neighbor-ASN order.
:func:`adjacency_arrays` builds that layout once per graph and rebuilds
it only when :attr:`ASGraph.version` moves; each consumer derives its
own per-edge constants from it.
"""

from __future__ import annotations

import weakref
from typing import Dict, List

import numpy as np

from ..types import ASN
from .graph import ASGraph
from .relationships import Relationship


class AdjacencyArrays:
    """CSR adjacency of one graph version.

    Attributes:
        version: the :attr:`ASGraph.version` the arrays were built from.
        asns: every AS in ascending order; an AS's dense index is its
            position here.
        index: ASN → dense index.
        off: row offsets, ``n + 1`` long; AS ``i``'s edges are
            ``off[i] … off[i + 1] - 1``.
        adj: per edge, the neighbor's dense index.
        rel: per edge, the neighbor's relationship seen from the owner.
    """

    __slots__ = ("version", "asns", "index", "off", "adj", "rel")

    def __init__(self, graph: ASGraph) -> None:
        self.version = graph.version
        asns = sorted(graph.ases)
        index = {asn: i for i, asn in enumerate(asns)}
        off = [0] * (len(asns) + 1)
        adj: List[int] = []
        rel: List[Relationship] = []
        for i, asn in enumerate(asns):
            for neighbor, relationship in sorted(graph.neighbors(asn).items()):
                adj.append(index[neighbor])
                rel.append(relationship)
            off[i + 1] = len(adj)
        self.asns: List[ASN] = asns
        self.index: Dict[ASN, int] = index
        self.off = off
        self.adj = adj
        self.rel = rel


_CACHE: "weakref.WeakKeyDictionary[ASGraph, AdjacencyArrays]" = (
    weakref.WeakKeyDictionary()
)


def adjacency_arrays(graph: ASGraph) -> AdjacencyArrays:
    """The CSR adjacency of ``graph`` as it is now (cached per version)."""
    arrays = _CACHE.get(graph)
    if arrays is None or arrays.version != graph.version:
        arrays = _CACHE[graph] = AdjacencyArrays(graph)
    return arrays


def asn_positions(sorted_asns: np.ndarray, asns: np.ndarray) -> np.ndarray:
    """Position of each of ``asns`` in ``sorted_asns``, -1 where absent."""
    if not len(sorted_asns):
        return np.full(len(asns), -1, dtype=np.int64)
    # Searching in ascending query order keeps the binary searches
    # cache-friendly: a sort plus a sorted search beats an unsorted one.
    order = np.argsort(asns)
    found = np.empty_like(order)
    found[order] = np.searchsorted(sorted_asns, asns[order])
    found[found == len(sorted_asns)] = 0
    return np.where(sorted_asns[found] == asns, found, -1)
