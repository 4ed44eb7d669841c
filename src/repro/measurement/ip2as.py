"""IP-to-AS mapping: longest-prefix-match trie and synthetic address plan.

The paper maps traceroute hops to ASes with Team Cymru's IP-to-ASN data
plus PeeringDB IXP prefixes (§IV-b).  Offline, the equivalent is an
:class:`AddressPlan` that deterministically assigns every AS in the
topology an address block (and the origin its announced prefix), plus a
:class:`PrefixTrie` implementing longest-prefix match over those blocks.
"""

from __future__ import annotations

import random
from typing import Dict, Generic, Iterable, List, Mapping, Optional, Tuple, TypeVar

from ..errors import MappingError
from ..types import ASN, Prefix

V = TypeVar("V")


class PrefixTrie(Generic[V]):
    """Binary trie over IPv4 prefixes with longest-prefix-match lookup."""

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root: list = [None, None, None]  # [zero-child, one-child, value]
        self._size = 0

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert ``prefix`` → ``value``.

        Raises:
            MappingError: if the exact prefix is already present with a
                different value.
        """
        node = self._root
        for bit_index in range(prefix.length):
            bit = (prefix.network >> (31 - bit_index)) & 1
            if node[bit] is None:
                node[bit] = [None, None, None]
            node = node[bit]
        if node[2] is not None and node[2] != value:
            raise MappingError(
                f"prefix {prefix} already mapped to {node[2]!r}, refusing {value!r}"
            )
        if node[2] is None:
            self._size += 1
        node[2] = value

    def lookup(self, address: int) -> Optional[V]:
        """Longest-prefix-match lookup; None when nothing covers ``address``."""
        node = self._root
        best: Optional[V] = node[2]
        for bit_index in range(32):
            bit = (address >> (31 - bit_index)) & 1
            node = node[bit]
            if node is None:
                break
            if node[2] is not None:
                best = node[2]
        return best

    def lookup_prefix(self, address: int) -> Optional[Tuple[Prefix, V]]:
        """Like :meth:`lookup` but also returns the matching prefix."""
        node = self._root
        best: Optional[Tuple[Prefix, V]] = None
        matched_network = 0
        for bit_index in range(33):
            if node[2] is not None:
                best = (Prefix(matched_network, bit_index), node[2])
            if bit_index == 32:
                break
            bit = (address >> (31 - bit_index)) & 1
            child = node[bit]
            if child is None:
                break
            matched_network |= bit << (31 - bit_index)
            node = child
        return best

    def __len__(self) -> int:
        return self._size


#: Base of the per-AS /16 allocation: 16.0.0.0 onward.
AS_BLOCK_BASE = 16 << 24
#: The origin announces PEERING's real experiment prefix.
ORIGIN_PREFIX = Prefix.parse("184.164.224.0/24")
#: Base of synthetic IXP peering-LAN /24s.
IXP_BLOCK_BASE = 206 << 24
#: Addresses :class:`IPToASMapper` remembers before it starts afresh.
#: A testbed's traceroutes use a few thousand distinct addresses; the
#: bound only matters for callers querying arbitrary address space.
OWNER_MEMO_LIMIT = 1 << 16


class AddressPlan:
    """Deterministic address assignment for a topology.

    Every AS receives one /16 from a sequential pool; the origin AS
    additionally owns the announced /24.  Router interface addresses are
    derived arithmetically so traceroute output is reproducible.

    Args:
        ases: all ASes needing address space (origin included).
        origin_asn: the AS announcing :data:`ORIGIN_PREFIX`.
    """

    def __init__(self, ases: Iterable[ASN], origin_asn: ASN) -> None:
        ordered = sorted(set(ases) | {origin_asn})
        if len(ordered) * 0x10000 + AS_BLOCK_BASE >= IXP_BLOCK_BASE:
            raise MappingError(
                f"{len(ordered)} ASes exceed the synthetic /16 pool"
            )
        self.origin_asn = origin_asn
        self._block_of: Dict[ASN, Prefix] = {
            asn: Prefix(AS_BLOCK_BASE + index * 0x10000, 16)
            for index, asn in enumerate(ordered)
        }
        self.announced_prefix = ORIGIN_PREFIX

    @property
    def ases(self) -> List[ASN]:
        """All ASes with an assigned block."""
        return sorted(self._block_of)

    def block_of(self, asn: ASN) -> Prefix:
        """The /16 owned by ``asn``.

        Raises:
            MappingError: for ASes outside the plan.
        """
        try:
            return self._block_of[asn]
        except KeyError:
            raise MappingError(f"AS {asn} has no address block") from None

    def router_address(self, asn: ASN, router_index: int) -> int:
        """Deterministic interface address of router ``router_index`` in ``asn``."""
        block = self.block_of(asn)
        if not 0 <= router_index < block.num_addresses - 2:
            raise MappingError(
                f"router index {router_index} outside block {block} of AS {asn}"
            )
        return block.network + 1 + router_index

    def random_address_in(self, asn: ASN, rng: random.Random) -> int:
        """Uniform random address inside ``asn``'s block."""
        block = self.block_of(asn)
        return block.network + rng.randrange(block.num_addresses)

    def target_address(self) -> int:
        """An address inside the announced prefix (the traceroute target)."""
        return self.announced_prefix.network + 1


class IPToASMapper:
    """Team-Cymru-style IP→AS mapping built from an address plan.

    The mapper is *authoritative for allocations*, not for who answers
    from an address: border interfaces numbered out of a neighbor's block
    (see :class:`repro.measurement.traceroute.TracerouteEngine`) are
    exactly the real-world error this data source carries into AS-path
    inference.

    The trie is the source of truth; each answer it gives is memoized per
    address (up to :data:`OWNER_MEMO_LIMIT` addresses), since traceroutes
    keep crossing the same router interfaces.

    Args:
        plan: the address plan to index.
        ixp_prefixes: optional IXP peering-LAN prefixes mapped to None
            (IXP addresses belong to no member AS); see
            :mod:`repro.measurement.ixp`.
    """

    #: Sentinel value stored for IXP prefixes.
    IXP = "IXP"

    def __init__(
        self,
        plan: AddressPlan,
        ixp_prefixes: Iterable[Prefix] = (),
    ) -> None:
        self.plan = plan
        self._trie: PrefixTrie = PrefixTrie()
        for asn in plan.ases:
            self._trie.insert(plan.block_of(asn), asn)
        self._trie.insert(plan.announced_prefix, plan.origin_asn)
        for prefix in ixp_prefixes:
            self._trie.insert(prefix, self.IXP)
        self._owners = _OwnerMemo(self._trie)

    def map_address(self, address: int) -> Optional[ASN]:
        """AS owning ``address``; None for unmapped or IXP space."""
        value = self._owners[address]
        if value == self.IXP:
            return None
        return value

    def map_addresses(self, addresses: Iterable[Optional[int]]) -> List[Optional[ASN]]:
        """:meth:`map_address` of each address; None entries stay None."""
        owners = self._owners
        ixp = self.IXP
        return [
            None if address is None or (owner := owners[address]) == ixp else owner
            for address in addresses
        ]

    def is_ixp_address(self, address: int) -> bool:
        """True if ``address`` falls in registered IXP space."""
        return self._owners[address] == self.IXP


class _OwnerMemo(dict):
    """Address → trie value (an ASN, :attr:`IPToASMapper.IXP` or None).

    Filled on first lookup of each address; starts afresh once it holds
    :data:`OWNER_MEMO_LIMIT` addresses.
    """

    def __init__(self, trie: PrefixTrie) -> None:
        super().__init__()
        self._trie = trie

    def __missing__(self, address: int) -> object:
        if len(self) >= OWNER_MEMO_LIMIT:
            self.clear()
        value = self[address] = self._trie.lookup(address)
        return value
