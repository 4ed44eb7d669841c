"""Equivalence suite: the indexed core is bit-identical to the reference sweep.

The indexed frontier core (:mod:`repro.bgp.indexed`) earns the right to
be the only core by reproducing the reference oracle
(``tests/sim_oracle.py``) *exactly* — same
routes (field for field), same catchments, same pass counts, same
decision-change totals, same convergence flags — over randomized
topologies, announcement configurations, warm starts, and engine worker
counts.  These are seeded property-style tests: each trial draws a fresh
configuration shape (announced subsets, prepending, poisoning, no-export
communities) and both must agree on everything observable.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.bgp.announcement import AnnouncementConfig, anycast_all
from repro.bgp.indexed import CompiledTopology, uncompilable_overrides
from repro.bgp.policy import PolicyModel
from repro.bgp.simulator import RoutingOutcome, RoutingSimulator
from repro.core.engine import SimulationEngine
from repro.core.pipeline import build_testbed
from repro.errors import SimulationError
from repro.topology.generator import TopologyParams, generate_topology
from repro.topology.peering import attach_origin
from tests.sim_oracle import ReferenceSimulator


def _fresh_topology(seed):
    """A private small topology (attach_origin mutates, so no fixtures)."""
    return generate_topology(
        TopologyParams(num_tier1=4, num_transit=30, num_stub=100, seed=seed)
    )


def assert_outcomes_identical(a, b):
    """Field-for-field equality of two routing outcomes."""
    assert a.routes == b.routes
    assert a.catchments == b.catchments
    assert a.passes == b.passes
    assert a.decision_changes == b.decision_changes
    assert a.converged == b.converged
    assert a.origin_asn == b.origin_asn
    assert a.warm_started == b.warm_started


def _random_config(rng, graph, origin):
    """Draw a random configuration exercising every ⟨A;P;Q⟩ dimension."""
    links = origin.link_ids
    k = rng.randint(1, len(links))
    announced = frozenset(rng.sample(links, k))
    prepended = frozenset(rng.sample(sorted(announced), rng.randint(0, k)))
    poisoned = {}
    if rng.random() < 0.4:
        victims = rng.sample(sorted(graph.ases - {origin.asn}), rng.randint(1, 2))
        poisoned = {rng.choice(sorted(announced)): frozenset(victims)}
    no_export = {}
    if rng.random() < 0.3:
        link = rng.choice(sorted(announced))
        neighbors = sorted(
            set(graph.neighbors(origin.provider_of(link))) - {origin.asn}
        )
        if neighbors:
            no_export = {
                link: frozenset(rng.sample(neighbors, min(2, len(neighbors))))
            }
    return AnnouncementConfig(
        announced=announced,
        prepended=prepended,
        poisoned=poisoned,
        no_export=no_export,
        prepend_count=rng.choice([1, 2, 4]),
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_indexed_equals_legacy_on_random_configs(seed):
    """Cold and warm-started fixpoints agree bit-for-bit per trial."""
    testbed = build_testbed(
        seed=seed,
        topology_params=TopologyParams(
            num_tier1=4, num_transit=25, num_stub=90, seed=seed
        ),
        num_links=5,
        num_vantages=6,
        num_probes=10,
    )
    graph, origin, policy = (
        testbed.topology.graph,
        testbed.origin,
        testbed.policy,
    )
    indexed = RoutingSimulator(graph, origin, policy)
    legacy = ReferenceSimulator(graph, origin, policy)

    rng = random.Random(seed * 101 + 5)
    previous = None
    for _ in range(8):
        config = _random_config(rng, graph, origin)
        outcome_i = indexed.simulate(config)
        outcome_l = legacy.simulate(config)
        assert_outcomes_identical(outcome_i, outcome_l)
        if previous is not None:
            # Seeded from a parent's route columns (a fresh copy: the
            # comparisons above made ``previous`` dict-backed) and from
            # its Route objects.
            parent = indexed.simulate(previous.config)
            warm_c = indexed.simulate(config, warm_start=parent)
            assert parent.columns is not None
            warm_i = indexed.simulate(config, warm_start=previous.routes)
            warm_l = legacy.simulate(config, warm_start=previous.routes)
            assert_outcomes_identical(warm_c, warm_l)
            assert_outcomes_identical(warm_i, warm_l)
            # Warm or cold, the fixpoint is the same stable state.
            assert warm_i.routes == outcome_i.routes
            assert warm_i.catchments == outcome_i.catchments
        previous = outcome_i


def test_indexed_equals_legacy_with_clean_policies(mini):
    """Exact agreement on the hand-built topology with noiseless policy."""
    policy = PolicyModel(
        mini.graph,
        seed=0,
        policy_noise=0.0,
        loop_prevention_disabled_fraction=0.0,
    )
    indexed = RoutingSimulator(mini.graph, mini.origin, policy)
    legacy = ReferenceSimulator(mini.graph, mini.origin, policy)
    for config in (
        anycast_all(mini.origin.link_ids),
        AnnouncementConfig(announced=frozenset({"l1"})),
        AnnouncementConfig(
            announced=frozenset({"l1", "l2"}), prepended=frozenset({"l2"})
        ),
    ):
        assert_outcomes_identical(
            indexed.simulate(config), legacy.simulate(config)
        )


def test_engine_outcomes_identical_across_cores_and_workers():
    """The engine produces the same outcomes with any (simulator, workers)
    pair, the reference oracle included."""
    topology = _fresh_topology(seed=3)
    origin = attach_origin(topology, num_links=4, seed=3)
    policy = PolicyModel(topology.graph, seed=3)
    rng = random.Random(99)
    configs = [_random_config(rng, topology.graph, origin) for _ in range(12)]

    reference = None
    for simulator_cls in (RoutingSimulator, ReferenceSimulator):
        simulator = simulator_cls(topology.graph, origin, policy)
        for workers in (1, 2):
            with SimulationEngine(simulator, workers=workers) as engine:
                outcomes = engine.simulate_many(configs)
            if reference is None:
                reference = outcomes
            else:
                for got, want in zip(outcomes, reference):
                    assert_outcomes_identical(got, want)


def test_overridden_policy_is_rejected():
    """A policy overriding accepts() cannot compile; construction fails
    with an error naming the overridden method."""

    class PickyPolicy(PolicyModel):
        def accepts(self, holder, transit_path, origin_path, learned_from):
            return super().accepts(
                holder, transit_path, origin_path, learned_from
            )

    topology = _fresh_topology(seed=17)
    origin = attach_origin(topology, num_links=3, seed=17)
    policy = PickyPolicy(topology.graph, seed=1)
    assert uncompilable_overrides(policy) == ("accepts",)
    with pytest.raises(SimulationError, match="PickyPolicy overrides accepts"):
        RoutingSimulator(topology.graph, origin, policy)


def test_scalar_policy_overrides_are_compiled():
    """Overriding scalar hooks (salt_for etc.) compiles — and the compiled
    answers still match the reference sweep exactly."""

    class DriftedSalt(PolicyModel):
        def salt_for(self, asn):
            return super().salt_for(asn) + 13

    topology = _fresh_topology(seed=23)
    origin = attach_origin(topology, num_links=3, seed=23)
    policy = DriftedSalt(topology.graph, seed=2)
    assert uncompilable_overrides(policy) == ()
    indexed = RoutingSimulator(topology.graph, origin, policy)
    legacy = ReferenceSimulator(topology.graph, origin, policy)
    config = anycast_all(origin.link_ids)
    assert_outcomes_identical(indexed.simulate(config), legacy.simulate(config))


def test_simulator_pickles_without_compiled_state(mini):
    import pickle

    policy = PolicyModel(mini.graph, seed=0)
    simulator = RoutingSimulator(mini.graph, mini.origin, policy)
    baseline = simulator.simulate(anycast_all(mini.origin.link_ids))
    assert simulator._compiled is not None
    clone = pickle.loads(pickle.dumps(simulator))
    assert clone._compiled is None  # dropped, rebuilt on demand
    outcome = clone.simulate(anycast_all(mini.origin.link_ids))
    assert outcome.routes == baseline.routes


@pytest.mark.parametrize(
    "simulator_cls",
    [RoutingSimulator, ReferenceSimulator],
    ids=["indexed", "legacy"],
)
def test_warm_start_bit_identical_across_prepend_deltas(simulator_cls):
    """Regression guard for the stale-tail warm-start bug.

    Warm-starting a prepend-only delta from the un-prepended fixpoint
    used to seed routes whose AS-paths no longer matched what the new
    configuration announces; under deviant policies that steered the
    Gauss-Seidel iteration into a *different* stable state than a cold
    start reaches.  The stale-tail seed filter discards those seeds, so
    warm and cold runs must now agree bit-for-bit.

    Every warm start is also run several ways — seeded from the parent
    outcome itself (its route columns on the compiled core), from its
    ``routes`` mapping, and by the reference sweep — over prepend,
    poison and no-export deltas and from a parent cut off by
    ``max_passes``; all must agree field for field.
    """
    for seed in range(6):
        testbed = build_testbed(
            seed=seed,
            topology_params=TopologyParams(
                num_tier1=4, num_transit=25, num_stub=80, seed=seed
            ),
            num_links=5,
            num_vantages=5,
            num_probes=10,
        )
        graph, origin = testbed.topology.graph, testbed.origin
        simulator = simulator_cls(graph, origin, testbed.policy)
        reference = ReferenceSimulator(graph, origin, testbed.policy)
        stopped_early = simulator_cls(
            graph, origin, testbed.policy, max_passes=1
        )
        links = origin.link_ids
        base = AnnouncementConfig(announced=frozenset(links))
        base_outcome = simulator.simulate(base)
        rng = random.Random(seed + 7)
        for _ in range(4):
            delta = AnnouncementConfig(
                announced=base.announced,
                prepended=frozenset(
                    rng.sample(links, rng.randint(1, len(links)))
                ),
                prepend_count=rng.choice([1, 2, 4]),
            )
            cold = simulator.simulate(delta)
            warm = _warm_every_way(simulator, reference, base, delta)
            assert warm.warm_started and not cold.warm_started
            assert warm.routes == cold.routes
            assert warm.catchments == cold.catchments
            # Warm starts save work but never change the answer.
            assert warm.passes <= cold.passes
        assert base_outcome.routes  # seeding never consumed the parent

        victims = sorted(graph.ases - {origin.asn})
        link = rng.choice(links)
        neighbors = sorted(
            set(graph.neighbors(origin.provider_of(link))) - {origin.asn}
        )
        for delta in (
            AnnouncementConfig(
                announced=base.announced,
                poisoned={link: frozenset(rng.sample(victims, 2))},
            ),
            AnnouncementConfig(
                announced=base.announced,
                no_export={link: frozenset(neighbors[:2])},
            ),
        ):
            warm = _warm_every_way(simulator, reference, base, delta)
            assert warm.warm_started

        assert not stopped_early.simulate(base).converged
        _warm_every_way(simulator, reference, base, delta, stopped_early)


def _warm_every_way(simulator, reference, parent_config, config, parents=None):
    """Warm-start ``config`` from ``parent_config``'s outcome every way.

    ``parents`` (default ``simulator``) computes the parent outcome.  The
    outcome seeded from the parent outcome itself is checked against the
    ones seeded from its ``routes`` mapping, by the reference sweep and
    by a second simulator (whose compiled index the columns are not
    over), then returned.
    """
    parents = parents or simulator
    parent = parents.simulate(parent_config)
    parent_routes = parents.simulate(parent_config).routes
    from_outcome = simulator.simulate(config, warm_start=parent)
    from_routes = simulator.simulate(config, warm_start=parent_routes)
    from_reference = reference.simulate(config, warm_start=parent_routes)
    other = RoutingSimulator(simulator.graph, simulator.origin, simulator.policy)
    from_other = other.simulate(config, warm_start=parent)
    # The compiled core seeded from the columns, not from .routes.
    assert (parent.columns is None) == isinstance(parents, ReferenceSimulator)
    assert_outcomes_identical(from_outcome, from_routes)
    assert_outcomes_identical(from_outcome, from_reference)
    assert_outcomes_identical(from_outcome, from_other)
    return from_outcome


def test_compiled_topology_direct_use():
    """CompiledTopology.propagate is usable standalone (what workers do)."""
    topology = _fresh_topology(seed=31)
    origin = attach_origin(topology, num_links=3, seed=31)
    policy = PolicyModel(topology.graph, seed=4)
    simulator = ReferenceSimulator(topology.graph, origin, policy)
    compiled = CompiledTopology.compile(
        topology.graph, origin, policy, simulator._visit_order
    )
    config = anycast_all(origin.link_ids)
    outcome = compiled.propagate(
        config, None, simulator.max_passes, False, topology.graph.ases
    )
    assert_outcomes_identical(outcome, simulator.simulate(config))


def _hand_built(outcome):
    """A dict-backed copy of ``outcome`` holding its Route objects."""
    return RoutingOutcome(
        config=outcome.config,
        routes=outcome.routes,
        catchments=outcome.catchments,
        passes=outcome.passes,
        decision_changes=outcome.decision_changes,
        converged=outcome.converged,
        origin_asn=outcome.origin_asn,
        known_ases=outcome.known_ases,
        warm_started=outcome.warm_started,
    )


def test_pickled_outcome_is_the_route_object_form(small_testbed):
    """Pins the pool wire format: an outcome over route columns pickles to
    exactly the bytes of an outcome holding the same Route objects, and
    an unpickled outcome keeps the routes it arrived with.

    (Re-pickling an unpickled outcome is compared with the Route-object
    form of that same clone, not with the first wire bytes: unpickling
    rebuilds each catchment frozenset by insertion, which can lay its
    table out — and so iterate it — in a different order.)"""
    import pickle

    from repro.core.pipeline import SpoofTracker

    configs = SpoofTracker(small_testbed).schedule[:12]
    with SimulationEngine(small_testbed.simulator) as engine:
        outcomes = engine.simulate_many(configs)
    with SimulationEngine(small_testbed.simulator) as engine:
        twins = engine.simulate_many(configs)
    assert any(outcome.warm_started for outcome in outcomes)
    for outcome, twin in zip(outcomes, twins):
        for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            wire = pickle.dumps(outcome, protocol=protocol)
            assert outcome.columns is not None  # pickling left it as is
            assert wire == pickle.dumps(_hand_built(twin), protocol=protocol)
            clone = pickle.loads(wire)
            assert clone.columns is None and clone.routes == twin.routes
            assert clone.__getstate__()["routes"] is clone.routes
            assert pickle.dumps(clone, protocol=protocol) == pickle.dumps(
                _hand_built(clone), protocol=protocol
            )


def test_column_accessors_match_route_objects():
    """Every per-AS accessor answers the same from the route columns as
    from the Route objects, including on a non-converged outcome."""
    topology = _fresh_topology(seed=41)
    origin = attach_origin(topology, num_links=4, seed=41)
    policy = PolicyModel(topology.graph, seed=5)
    rng = random.Random(41)
    for max_passes in (1, 60):
        simulator = RoutingSimulator(
            topology.graph, origin, policy, max_passes=max_passes
        )
        for _ in range(6):
            config = _random_config(rng, topology.graph, origin)
            outcome = simulator.simulate(config)
            routes = _hand_built(simulator.simulate(config))
            assert outcome.columns is not None and routes.columns is None
            assert list(outcome.covered_ases) == list(routes.covered_ases)
            assert list(outcome.link_assignment().items()) == list(
                routes.link_assignment().items()
            )
            for asn in sorted(topology.graph.ases) + [-1]:
                assert outcome.route(asn) == routes.route(asn)
                assert outcome.catchment_of(asn) == routes.catchment_of(asn)
                assert outcome.next_hop(asn) == routes.next_hop(asn)
                assert outcome.as_path(asn) == routes.as_path(asn)
                try:
                    expected = routes.forwarding_path(asn)
                except SimulationError as error:
                    with pytest.raises(SimulationError, match=re.escape(str(error))):
                        outcome.forwarding_path(asn)
                else:
                    assert outcome.forwarding_path(asn) == expected
            assert outcome.columns is not None  # nothing built .routes
            assert outcome.routes == routes.routes
            assert outcome.columns is None  # now dict-backed
