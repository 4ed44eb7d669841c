"""Reference implementations the measurement layer's fast paths must match.

These are verbatim copies of the straightforward code the memoized
IP-to-AS mapping and the run-deduplicating gap index replaced: a
bit-by-bit trie walk per query (twice per hop, as the hop mapper used to
do) and a per-trace, per-hop gap-index loop growing a list segment.  The
equivalence tests in ``test_measure_equivalence.py`` compare the
production code against them.
"""

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.measurement.ip2as import AddressPlan

#: Sentinel value stored for IXP prefixes.
IXP = "IXP"


class TrieWalkMapper:
    """IP-to-AS mapping by a fresh longest-prefix trie walk per query."""

    def __init__(self, plan: AddressPlan, ixp_prefixes=()) -> None:
        self._root: list = [None, None, None]
        for asn in plan.ases:
            self._insert(plan.block_of(asn), asn)
        self._insert(plan.announced_prefix, plan.origin_asn)
        for prefix in ixp_prefixes:
            self._insert(prefix, IXP)

    def _insert(self, prefix, value) -> None:
        node = self._root
        for bit_index in range(prefix.length):
            bit = (prefix.network >> (31 - bit_index)) & 1
            if node[bit] is None:
                node[bit] = [None, None, None]
            node = node[bit]
        node[2] = value

    def lookup(self, address: int):
        node = self._root
        best = node[2]
        for bit_index in range(32):
            bit = (address >> (31 - bit_index)) & 1
            node = node[bit]
            if node is None:
                break
            if node[2] is not None:
                best = node[2]
        return best

    def map_address(self, address: int):
        value = self.lookup(address)
        if value == IXP:
            return None
        return value

    def is_ixp_address(self, address: int) -> bool:
        return self.lookup(address) == IXP

    def map_hops(self, hops) -> List[Optional[int]]:
        mapped: List[Optional[int]] = []
        for hop in hops:
            if hop is None:
                mapped.append(None)
            elif self.is_ixp_address(hop):
                mapped.append(None)
            else:
                mapped.append(self.map_address(hop))
        return mapped


def build_gap_index_loop(traceroutes) -> Dict[Tuple[int, int], Set[Tuple[int, ...]]]:
    """The per-trace, per-hop gap index."""
    index: Dict[Tuple[int, int], Set[Tuple[int, ...]]] = defaultdict(set)
    for trace in traceroutes:
        hops = trace.hops
        for i, first in enumerate(hops):
            if first is None:
                continue
            segment: List[int] = []
            for j in range(i + 1, len(hops)):
                hop = hops[j]
                if hop is None:
                    break
                index[(first, hop)].add(tuple(segment))
                segment.append(hop)
    return dict(index)
