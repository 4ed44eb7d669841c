"""The analysis layer's array paths against reference implementations.

* Fig. 9 compliance: the CSR audit against the per-AS candidate-dict
  loop, over random configurations (prepending, poisoning, no-export)
  on deviant-policy topologies, with and without the origin, on
  outcomes with routes removed, and on a graph whose last-indexed AS
  has no links (the ``reduceat`` row edge case).
* Cluster refinement: the dense-label partition against the dict of
  ASN sets, compared after every step — overlapping catchments,
  degraded links, ASes outside the universe, empty maps, ``refine()``,
  ``copy()`` independence and the serialization round trip.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.announcement import AnnouncementConfig
from repro.bgp.policy import PolicyModel
from repro.bgp.simulator import RoutingSimulator
from repro.core import prediction
from repro.core.clustering import ClusterState
from repro.core.prediction import policy_compliance
from repro.errors import ClusteringError, TopologyError
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.peering import attach_origin
from repro.topology.relationships import Relationship
from tests.analysis_oracles import ReferenceClusterState, reference_policy_compliance

ORIGIN_ASN = 47065
#: An AS numbered above every generated one: last in the dense index.
ISOLATED_ASN = 900_000


def _substrate(seed, policy_noise, loop_off, isolated):
    topology = generate_topology(
        TopologyParams(num_tier1=4, num_transit=25, num_stub=80, seed=seed)
    )
    origin = attach_origin(topology, ORIGIN_ASN, num_links=5, seed=seed)
    graph = topology.graph
    if isolated:
        graph.add_as(ISOLATED_ASN)
    policy = PolicyModel(
        graph,
        seed=seed,
        policy_noise=policy_noise,
        loop_prevention_disabled_fraction=loop_off,
    )
    return graph, origin, policy, RoutingSimulator(graph, origin, policy)


#: (graph, origin, policy, simulator): clean, deviant, and deviant with an
#: isolated AS at the end of the index.
SUBSTRATES = [
    _substrate(3, 0.0, 0.0, isolated=False),
    _substrate(4, 0.5, 0.3, isolated=False),
    _substrate(5, 1.0, 0.5, isolated=True),
]


def _random_config(rng, graph, origin):
    """A configuration exercising every ⟨A;P;Q⟩ dimension."""
    links = origin.link_ids
    k = rng.randint(1, len(links))
    announced = frozenset(rng.sample(links, k))
    prepended = frozenset(rng.sample(sorted(announced), rng.randint(0, k)))
    poisoned = {}
    if rng.random() < 0.5:
        victims = rng.sample(sorted(graph.ases - {origin.asn}), rng.randint(1, 3))
        poisoned = {rng.choice(sorted(announced)): frozenset(victims)}
    no_export = {}
    if rng.random() < 0.3:
        link = rng.choice(sorted(announced))
        neighbors = sorted(set(graph.neighbors(origin.provider_of(link))) - {origin.asn})
        no_export = {link: frozenset(rng.sample(neighbors, min(2, len(neighbors))))}
    return AnnouncementConfig(
        announced=announced,
        prepended=prepended,
        poisoned=poisoned,
        no_export=no_export,
        prepend_count=rng.choice([1, 2, 4]),
    )


class TestComplianceMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        substrate=st.sampled_from(range(len(SUBSTRATES))),
        seed=st.integers(0, 2**20),
        with_origin=st.booleans(),
        dropped=st.integers(0, 20),
    )
    def test_random_configurations(self, substrate, seed, with_origin, dropped):
        graph, origin, policy, simulator = SUBSTRATES[substrate]
        rng = random.Random(seed)
        outcome = simulator.simulate(_random_config(rng, graph, origin))
        if dropped:
            # Unrouted neighbors drop out of the candidate sets.
            routed = sorted(outcome.routes)
            gone = set(rng.sample(routed, min(dropped, len(routed))))
            outcome = dataclasses.replace(
                outcome,
                routes={a: r for a, r in outcome.routes.items() if a not in gone},
            )
        given_origin = origin if with_origin else None
        assert policy_compliance(
            outcome, graph, policy, given_origin
        ) == reference_policy_compliance(outcome, graph, policy, given_origin)

    def test_routed_zero_degree_as_last_in_index(self):
        graph, origin, policy, simulator = SUBSTRATES[2]
        assert max(graph.ases) == ISOLATED_ASN and not graph.degree(ISOLATED_ASN)
        outcome = simulator.simulate(AnnouncementConfig(announced=frozenset(origin.link_ids)))
        # A hand-built route at the isolated AS: it has no candidates.
        routes = dict(outcome.routes)
        routes[ISOLATED_ASN] = next(iter(outcome.routes.values()))
        outcome = dataclasses.replace(outcome, routes=routes)
        stats = policy_compliance(outcome, graph, policy, origin)
        assert stats == reference_policy_compliance(outcome, graph, policy, origin)
        assert stats.ases_checked > 0

    def test_no_routes(self):
        graph, origin, policy, simulator = SUBSTRATES[1]
        outcome = simulator.simulate(AnnouncementConfig(announced=frozenset(origin.link_ids)))
        empty = dataclasses.replace(outcome, routes={})
        assert policy_compliance(empty, graph, policy, origin) == (
            reference_policy_compliance(empty, graph, policy, origin)
        )

    def test_routed_as_outside_graph_raises(self):
        graph, origin, policy, simulator = SUBSTRATES[0]
        outcome = simulator.simulate(AnnouncementConfig(announced=frozenset(origin.link_ids)))
        routes = dict(outcome.routes)
        routes[ISOLATED_ASN + 1] = next(iter(outcome.routes.values()))
        outcome = dataclasses.replace(outcome, routes=routes)
        with pytest.raises(TopologyError, match=f"AS {ISOLATED_ASN + 1} not in topology"):
            policy_compliance(outcome, graph, policy, origin)


class TestComplianceTableCache:
    def test_table_reused_until_graph_mutates(self):
        graph, origin, policy, simulator = _substrate(6, 0.3, 0.1, isolated=False)
        outcome = simulator.simulate(AnnouncementConfig(announced=frozenset(origin.link_ids)))
        before = policy_compliance(outcome, graph, policy, origin)
        table = prediction._compliance_table(graph)
        assert policy_compliance(outcome, graph, policy, origin) == before
        assert prediction._compliance_table(graph) is table

        # A second provider for a single-homed stub gives it a choice to
        # audit: the audit must see the mutated graph, not the cached table.
        stub = next(
            a for a in sorted(graph.stub_ases())
            if a in outcome.routes and graph.degree(a) == 1
        )
        provider = next(
            a for a in sorted(graph.tier1_ases())
            if a in outcome.routes and not graph.has_link(stub, a)
        )
        graph.add_link(stub, provider, Relationship.PROVIDER)
        mutated = policy_compliance(outcome, graph, policy, origin)
        assert prediction._compliance_table(graph) is not table
        assert mutated.ases_checked == before.ases_checked + 1
        assert mutated == reference_policy_compliance(outcome, graph, policy, origin)
        graph.remove_link(stub, provider)
        assert policy_compliance(outcome, graph, policy, origin) == before


# ----------------------------------------------------------------------
# Cluster refinement
# ----------------------------------------------------------------------

#: Universe members: small ASNs (an ASN-indexed position table) and, in
#: some universes, 32-bit ones (too sparse for a table: binary search).
MEMBERS = list(range(1, 31)) + [3_000_000_000 + 7 * k for k in range(6)]
universes = st.frozensets(st.sampled_from(MEMBERS), min_size=1)
#: Sources also fall outside every universe, below and above the table.
sources = st.sampled_from(MEMBERS + list(range(31, 41)) + [3_000_000_001, 2**32 - 1])
catchment_maps = st.dictionaries(
    st.sampled_from(["l1", "l2", "l3", "l4", "l5"]),
    st.frozensets(sources, max_size=25),
    max_size=5,
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("map"), catchment_maps, st.frozensets(st.sampled_from(["l1", "l3", "l5"]))),
        st.tuples(st.just("refine"), st.lists(sources, max_size=25)),
        st.tuples(st.just("copy")),
    ),
    max_size=12,
)


def assert_same_partition(state, reference):
    assert state.clusters() == reference.clusters()
    assert state.num_clusters() == reference.num_clusters()
    assert state.sizes() == reference.sizes()
    assert state.mean_size() == reference.mean_size()
    assert state.singleton_fraction() == reference.singleton_fraction()
    for percentile in (0.0, 37.5, 50.0, 90.0, 100.0):
        assert state.size_percentile(percentile) == reference.size_percentile(percentile)
    assert state.universe == reference.universe
    for asn in reference.universe:
        assert state.cluster_of(asn) == reference.cluster_of(asn)
    assert state.as_serializable() == reference.as_serializable()


class TestRefinementMatchesDictOfSets:
    @settings(max_examples=200, deadline=None)
    @given(universe=universes, steps=steps)
    def test_every_step(self, universe, steps):
        state, reference = ClusterState(universe), ReferenceClusterState(universe)
        copies = []
        for step in steps:
            if step[0] == "map":
                _, catchments, degraded = step
                assert state.refine_with_catchments(
                    catchments, degraded
                ) == reference.refine_with_catchments(catchments, degraded)
            elif step[0] == "refine":
                assert state.refine(step[1]) == reference.refine(step[1])
            else:
                copies.append((state.copy(), reference.copy(), reference.as_serializable()))
            assert_same_partition(state, reference)
        for clone, reference_clone, at_copy in copies:
            # Later refinements of the original never reach the copy.
            assert clone.as_serializable() == at_copy
            assert_same_partition(clone, reference_clone)
            clone.refine_with_catchments({"l1": frozenset(MEMBERS[::2])})
            reference_clone.refine_with_catchments({"l1": frozenset(MEMBERS[::2])})
            assert_same_partition(clone, reference_clone)
        assert_same_partition(state, reference)

    @settings(max_examples=100, deadline=None)
    @given(universe=universes, steps=steps)
    def test_serialization_round_trip(self, universe, steps):
        state = ClusterState(universe)
        for step in steps:
            if step[0] == "map":
                state.refine_with_catchments(step[1], step[2])
            elif step[0] == "refine":
                state.refine(step[1])
        dumped = state.as_serializable()
        restored = ClusterState.from_serializable(dumped)
        assert_same_partition(restored, ReferenceClusterState.from_serializable(dumped))
        assert restored.as_serializable() == dumped

    def test_outside_universe_and_empty_maps(self):
        state, reference = ClusterState(range(1, 11)), ReferenceClusterState(range(1, 11))
        for catchments in ({}, {"l1": frozenset()}, {"l1": frozenset({50, 60})}):
            assert state.refine_with_catchments(catchments) == 0
            assert reference.refine_with_catchments(catchments) == 0
        assert state.refine([]) == reference.refine([]) == 0
        assert_same_partition(state, reference)
        with pytest.raises(ClusteringError, match="AS 50 not in cluster universe"):
            state.cluster_of(50)

    @pytest.mark.parametrize(
        "clusters",
        [[], [[1, 2], []], [[1, 2], [2, 3]], [[4], [1, 2, 3], [3]]],
    )
    def test_serialization_errors_match(self, clusters):
        with pytest.raises(ClusteringError) as expected:
            ReferenceClusterState.from_serializable(clusters)
        with pytest.raises(ClusteringError) as raised:
            ClusterState.from_serializable(clusters)
        assert str(raised.value) == str(expected.value)

    def test_empty_universe_rejected(self):
        with pytest.raises(ClusteringError, match="must be non-empty"):
            ClusterState([])
