"""The measurement layer's memoized paths against reference implementations.

* IP-to-AS mapping: the memoized :class:`IPToASMapper` and the one-lookup
  hop mapper against a fresh trie walk per query.
* Gap index: the tail-deduplicating :func:`build_gap_index` against the
  per-trace, per-hop loop — same keys, same key order, same segments.
* Traceroutes: per-outcome sharing must not make a measurement depend on
  which probes, rounds or outcomes were measured before it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.announcement import anycast_all
from repro.core.configgen import ScheduleParams, generate_schedule
from repro.measurement import ip2as
from repro.measurement.atlas import AtlasProbeFleet
from repro.measurement.ip2as import (
    AS_BLOCK_BASE,
    IXP_BLOCK_BASE,
    ORIGIN_PREFIX,
    AddressPlan,
    IPToASMapper,
)
from repro.measurement.repair import build_gap_index, map_hops_to_ases
from repro.measurement.traceroute import Traceroute, TracerouteEngine, TracerouteParams
from repro.types import Prefix
from tests.measure_oracles import TrieWalkMapper, build_gap_index_loop

ASES = list(range(100, 160))
ORIGIN_AS = 47065
IXP_PREFIXES = [Prefix(IXP_BLOCK_BASE + index * 0x100, 24) for index in range(4)]
PLAN = AddressPlan(ASES, ORIGIN_AS)
#: One mapper across all examples, so its memo is exercised warm.
MAPPER = IPToASMapper(PLAN, IXP_PREFIXES)
ORACLE = TrieWalkMapper(PLAN, IXP_PREFIXES)

in_as_blocks = st.integers(
    AS_BLOCK_BASE, AS_BLOCK_BASE + (len(ASES) + 1) * 0x10000 - 1
)
in_origin_prefix = st.integers(
    ORIGIN_PREFIX.network, ORIGIN_PREFIX.network + ORIGIN_PREFIX.num_addresses - 1
)
in_ixp_lans = st.integers(IXP_BLOCK_BASE, IXP_BLOCK_BASE + 4 * 0x100 - 1)
#: Just past the last AS block and the IXP LANs, and below the pool.
in_unmapped = st.one_of(
    st.integers(AS_BLOCK_BASE + (len(ASES) + 1) * 0x10000, IXP_BLOCK_BASE - 1),
    st.integers(IXP_BLOCK_BASE + 4 * 0x100, IXP_BLOCK_BASE + 0x10000),
    st.integers(0, AS_BLOCK_BASE - 1),
)
any_address = st.integers(0, 2**32 - 1)
addresses = st.one_of(
    in_as_blocks, in_origin_prefix, in_ixp_lans, in_unmapped, any_address
)


class TestIPToASMemo:
    @settings(max_examples=300, deadline=None)
    @given(address=addresses)
    def test_address_queries_match_trie_walk(self, address):
        # Twice: the second answer comes from the memo.
        for _ in range(2):
            assert MAPPER.map_address(address) == ORACLE.map_address(address)
            assert MAPPER.is_ixp_address(address) == ORACLE.is_ixp_address(address)

    @settings(max_examples=200, deadline=None)
    @given(hops=st.lists(st.one_of(st.none(), addresses), max_size=24))
    def test_hop_mapping_matches_two_walks_per_hop(self, hops):
        trace = Traceroute(probe_as=1, target=2, hops=tuple(hops), reached_target=True)
        assert map_hops_to_ases(trace, MAPPER) == ORACLE.map_hops(hops)

    def test_memo_bounded_and_still_exact(self, monkeypatch):
        monkeypatch.setattr(ip2as, "OWNER_MEMO_LIMIT", 8)
        mapper = IPToASMapper(PLAN, IXP_PREFIXES)
        rng = random.Random(5)
        probes = [rng.randrange(2**32) for _ in range(50)]
        probes += [PLAN.router_address(asn, 3) for asn in ASES[:20]]
        probes += [prefix.network + 7 for prefix in IXP_PREFIXES]
        for address in probes + probes:
            assert mapper.map_address(address) == ORACLE.map_address(address)
            assert len(mapper._owners) <= 8


#: Few distinct addresses, so runs and segments repeat across traces.
hop_values = st.one_of(st.none(), st.integers(1, 7))
traces = st.builds(
    lambda hops, reached: Traceroute(
        probe_as=1, target=99, hops=tuple(hops), reached_target=reached
    ),
    st.lists(hop_values, max_size=12),
    st.booleans(),
)


def _as_lists(index):
    return [(key, sorted(segments)) for key, segments in index.items()]


class TestGapIndex:
    @settings(max_examples=300, deadline=None)
    @given(batch=st.lists(traces, max_size=10))
    def test_matches_per_hop_loop(self, batch):
        # Same keys in the same order, and the same segment sets.
        assert _as_lists(build_gap_index(batch)) == _as_lists(
            build_gap_index_loop(batch)
        )

    @settings(max_examples=100, deadline=None)
    @given(batch=st.lists(traces, min_size=1, max_size=6), copies=st.integers(2, 4))
    def test_repeated_traces(self, batch, copies):
        repeated = batch * copies
        assert build_gap_index(repeated) == build_gap_index_loop(repeated)
        assert build_gap_index(repeated) == build_gap_index(batch)

    @pytest.mark.parametrize(
        "hops",
        [
            (),
            (None,),
            (None, None, None),
            (5,),
            (5, None, 6, None, 7),  # single-hop runs index nothing
            (1, 2, 3, 4),
            (1, 2, None),  # truncated mid-gap
            (None, 1, 2, 3, None, 2, 3, 4),  # runs sharing a tail
            (3, 4, 3, 4, 3),  # repeated addresses inside one run
        ],
    )
    def test_edge_cases(self, hops):
        batch = [Traceroute(probe_as=1, target=9, hops=hops, reached_target=False)]
        batch += [Traceroute(probe_as=2, target=9, hops=hops[1:], reached_target=True)]
        assert _as_lists(build_gap_index(batch)) == _as_lists(
            build_gap_index_loop(batch)
        )


#: High artifact rates so misattribution, divergence and truncation fire.
NOISY = TracerouteParams(
    unresponsive_rate=0.1,
    border_sharing_rate=0.3,
    path_error_rate=0.3,
    truncation_rate=0.2,
    divergence_rate=0.5,
    max_routers_per_as=3,
    seed=4,
)


@pytest.fixture(scope="module")
def outcomes(small_testbed):
    configs = generate_schedule(
        small_testbed.origin, small_testbed.graph, ScheduleParams()
    )[:6]
    configs.append(anycast_all(small_testbed.origin.link_ids))
    return [small_testbed.simulator.simulate(config) for config in configs]


def _engine(testbed, params):
    ixps = testbed.campaign.fleet.engine.ixps
    return TracerouteEngine(testbed.graph, testbed.plan, ixps, params)


@pytest.mark.parametrize("params", [TracerouteParams(), NOISY], ids=["default", "noisy"])
class TestTracerouteCallOrder:
    def test_probes_out_of_order(self, small_testbed, outcomes, params):
        probes = small_testbed.campaign.fleet.probe_ases
        calls = [
            (o, p, r) for o in range(len(outcomes)) for p in probes for r in range(3)
        ]
        in_order_engine = _engine(small_testbed, params)
        expected = {
            (o, p, r): in_order_engine.measure(outcomes[o], p, r) for o, p, r in calls
        }
        assert any(
            trace is not None and not trace.reached_target
            for trace in expected.values()
        )
        shuffled = list(calls)
        random.Random(11).shuffle(shuffled)
        engine = _engine(small_testbed, params)
        for o, p, r in shuffled:
            assert engine.measure(outcomes[o], p, r) == expected[(o, p, r)]
        # One tracer per outcome, its probes and rounds interleaved.
        tracers = [engine.tracer(outcome) for outcome in outcomes]
        for o, p, r in reversed(shuffled):
            assert tracers[o].measure(p, r) == expected[(o, p, r)]

    def test_fleet_matches_single_measurements(self, small_testbed, outcomes, params):
        probes = small_testbed.campaign.fleet.probe_ases
        fleet = AtlasProbeFleet(
            probes, _engine(small_testbed, params), rounds_per_config=3
        )
        lone = _engine(small_testbed, params)
        for outcome in outcomes:
            expected = [
                trace
                for r in range(3)
                for trace in (lone.measure(outcome, p, r) for p in probes)
                if trace is not None
            ]
            assert fleet.all_traceroutes(outcome) == expected
