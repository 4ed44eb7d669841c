"""Tests for the traceback-strategy plugin layer (repro.strategy).

The equivalence classes here embed verbatim replicas of the pre-plugin
selection loops (the old ``GreedyScheduler.run`` body and the old
controller ``_score``/``select_next``) and assert the plugin-backed
paths reproduce them bit-identically — order, curve floats, and dwell —
across seeds, both simulation cores, and worker counts.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.bgp.announcement import AnnouncementConfig
from repro.core.clustering import ClusterState
from repro.core.configgen import ScheduleParams, generate_schedule
from repro.core.engine import SimulationEngine
from repro.core.pipeline import SpoofTracker, build_testbed
from repro.core.scheduler import (
    GreedyScheduler,
    VolumeAwareGreedyScheduler,
    measured_catchment_history,
    refinement_gain,
)
from repro.core.timeline import CampaignTimeline
from repro.errors import StrategyError
from repro.live.controller import AdaptiveController, ControllerPolicy
from repro.strategy import (
    NO_SPLIT_REASON,
    GreedyStrategy,
    RandomStrategy,
    TracebackStrategy,
    available_strategies,
    make_strategy,
    register_strategy,
    run_strategy,
    strategy_class,
    weighted_cost,
    weighted_split_score,
)

UNIVERSE = list(range(16))
HISTORY = [
    {"l1": frozenset(range(8)), "l2": frozenset(range(8, 16))},
    {"l1": frozenset(list(range(4)) + list(range(8, 12))),
     "l2": frozenset(list(range(4, 8)) + list(range(12, 16)))},
    {"l1": frozenset(range(8)), "l2": frozenset(range(8, 16))},
    {"l1": frozenset(range(0, 16, 2)), "l2": frozenset(range(1, 16, 2))},
]


def measured_evidence(testbed, max_configs=14):
    """Schedule + measured catchments for a testbed, shared per test."""
    schedule = generate_schedule(
        testbed.origin, testbed.graph, ScheduleParams()
    )[:max_configs]
    engine = SimulationEngine(testbed.simulator)
    try:
        universe, history = measured_catchment_history(engine, schedule)
    finally:
        engine.close()
    return schedule, universe, history


class TestRegistry:
    def test_builtins_registered(self):
        assert {"greedy", "volume-greedy", "bisect", "bgpeek", "random",
                "schedule"} <= set(available_strategies())

    def test_make_strategy(self):
        strategy = make_strategy("greedy")
        assert isinstance(strategy, GreedyStrategy)
        assert not strategy.bound

    def test_unknown_name_lists_available(self):
        with pytest.raises(StrategyError, match="greedy"):
            strategy_class("nope")

    def test_reregistering_same_class_is_noop(self):
        assert register_strategy(GreedyStrategy) is GreedyStrategy

    def test_name_collision_rejected(self):
        class Impostor(TracebackStrategy):
            name = "greedy"

            def propose(self, state, volume_by_as=None):
                return None

        with pytest.raises(StrategyError, match="already registered"):
            register_strategy(Impostor)


class TestInterface:
    def test_bind_validates_lengths(self):
        with pytest.raises(StrategyError):
            make_strategy("greedy").bind(HISTORY, schedule=[object()])

    def test_bind_rejects_empty(self):
        with pytest.raises(StrategyError):
            make_strategy("greedy").bind([])

    def test_double_bind_rejected(self):
        strategy = make_strategy("greedy").bind(HISTORY)
        with pytest.raises(StrategyError):
            strategy.bind(HISTORY)

    def test_observe_unknown_index_rejected(self):
        strategy = make_strategy("greedy").bind(HISTORY)
        state = ClusterState(UNIVERSE)
        strategy.observe(0, state)
        with pytest.raises(StrategyError):
            strategy.observe(0, state)

    def test_converged_reports_exhaustion_and_no_split(self):
        strategy = make_strategy("greedy").bind(HISTORY)
        state = ClusterState(UNIVERSE)
        assert strategy.converged(state) is None
        for index in (0, 1, 3):
            strategy.observe(index, state)
            state.refine_with_catchments(HISTORY[index])
        # Only the redundant config 2 remains: nothing it can split.
        assert strategy.converged(state) == NO_SPLIT_REASON
        strategy.observe(2, state)
        assert strategy.converged(state) == "schedule exhausted"

    def test_run_strategy_requires_maps_when_unbound(self):
        with pytest.raises(StrategyError):
            run_strategy(make_strategy("greedy"), UNIVERSE)

    def test_update_catchments_validates_length(self):
        strategy = make_strategy("greedy").bind(HISTORY)
        with pytest.raises(StrategyError):
            strategy.update_catchments(HISTORY[:2])


class TestScoring:
    def test_weighted_cost(self):
        state = ClusterState(UNIVERSE)
        volume = {asn: 1.0 for asn in UNIVERSE}
        assert weighted_cost(state, volume) == pytest.approx(16.0 * 16.0)

    def test_no_volume_scores_by_split_gain_only(self):
        state = ClusterState(UNIVERSE)
        score = weighted_split_score(state, HISTORY[1], {})
        assert score == (0.0, refinement_gain(state, HISTORY[1].values()))

    def test_noise_reduction_clamps_to_zero(self):
        # Two clusters with equal volume: any refinement that moves no
        # volume between clusters computes a reduction of exactly 0 up
        # to float summation noise — the clamp makes it exactly 0.0 so
        # the split gain decides.
        state = ClusterState(UNIVERSE)
        volume = {asn: 0.1 + 1e-13 * asn for asn in UNIVERSE}
        score = weighted_split_score(state, HISTORY[2], volume)
        assert score[0] >= 0.0  # never a negative "reduction"

    def test_genuine_reduction_dominates(self):
        state = ClusterState(UNIVERSE)
        state.refine_with_catchments(HISTORY[0])
        volume = {asn: (10.0 if asn >= 8 else 0.0) for asn in UNIVERSE}
        score = weighted_split_score(state, HISTORY[1], volume)
        assert score[0] > 0.0


class TestBuiltinStrategies:
    def test_greedy_matches_scheduler(self):
        result = run_strategy(
            make_strategy("greedy"), UNIVERSE, HISTORY, check_converged=False
        )
        order, curve = GreedyScheduler(UNIVERSE, HISTORY).run()
        assert result.order == order
        assert result.curve == curve

    def test_schedule_strategy_deploys_in_order(self):
        # Schedule order deploys everything (even the redundant config 2)
        # as long as *some* remaining configuration could still split.
        result = run_strategy(make_strategy("schedule"), UNIVERSE, HISTORY)
        assert result.order == [0, 1, 2, 3]
        assert result.stop_reason == "schedule exhausted"
        assert strategy_class("schedule").deploys_in_schedule_order

    def test_schedule_strategy_stops_when_nothing_can_split(self):
        # Once only no-op configurations remain, the base convergence
        # check short-circuits even schedule order.
        result = run_strategy(
            make_strategy("schedule"),
            UNIVERSE,
            [HISTORY[0], HISTORY[2], HISTORY[2]],
        )
        assert result.order == [0]
        assert result.stop_reason == NO_SPLIT_REASON

    def test_random_strategy_is_seed_deterministic(self):
        runs = [
            run_strategy(RandomStrategy(seed=7), UNIVERSE, HISTORY)
            for _ in range(2)
        ]
        assert runs[0].order == runs[1].order
        other = run_strategy(RandomStrategy(seed=8), UNIVERSE, HISTORY)
        orders = {tuple(run_strategy(RandomStrategy(seed=s), UNIVERSE,
                                     HISTORY).order) for s in range(6)}
        assert len(orders) > 1  # seeds genuinely vary the shuffle
        assert sorted(other.order) == sorted(set(other.order))

    def test_bisect_halves_the_largest_cluster_first(self):
        result = run_strategy(make_strategy("bisect"), UNIVERSE, HISTORY)
        # Config 0 and 3 both halve the 16-universe; ties break low.
        assert result.order[0] == 0
        assert result.curve[0] == pytest.approx(8.0)
        assert result.stop_reason == NO_SPLIT_REASON
        assert 2 not in result.order  # redundant config never helps

    def test_bgpeek_narrows_to_a_singleton_suspect(self):
        # HISTORY alone bottoms out at clusters of two; an extra config
        # that isolates AS 5 lets the walk finish the bisection.
        evidence = HISTORY + [
            {"l1": frozenset({5}),
             "l2": frozenset(a for a in UNIVERSE if a != 5)},
        ]
        volume = {asn: (100.0 if asn == 5 else 0.0) for asn in UNIVERSE}
        result = run_strategy(
            make_strategy("bgpeek"), UNIVERSE, evidence, volume_by_as=volume
        )
        assert result.stop_reason == "suspect set narrowed to AS 5"
        # log2(16) = 4 halving steps at most; the walk is fast.
        assert len(result.order) <= 4

    def test_bgpeek_without_volume_follows_smallest_piece(self):
        strategy = make_strategy("bgpeek")
        result = run_strategy(strategy, UNIVERSE, HISTORY)
        # No volume signal: the walk still narrows monotonically, down to
        # one of the indivisible pairs this evidence bottoms out at.
        suspects = strategy.extra_state()["suspects"]
        assert suspects is not None and len(suspects) <= 2
        assert result.stop_reason == NO_SPLIT_REASON

    def test_bgpeek_state_roundtrip(self):
        strategy = make_strategy("bgpeek").bind(HISTORY)
        state = ClusterState(UNIVERSE)
        index = strategy.propose(state)
        strategy.observe(index, state)
        dumped = strategy.extra_state()
        clone = make_strategy("bgpeek").bind(HISTORY)
        clone.restore_remaining(strategy.remaining)
        clone.restore_extra(dumped)
        assert clone.extra_state() == dumped
        assert clone.remaining == strategy.remaining

    def test_volume_greedy_prefers_busy_clusters(self):
        volume = {asn: (10.0 if asn >= 12 else 0.0) for asn in UNIVERSE}
        evidence = [
            HISTORY[0],  # halves: busy 12..15 stay in an 8-cluster
            {"l1": frozenset(range(12, 16)),
             "l2": frozenset(range(12))},  # isolates the busy quartet
        ]
        result = run_strategy(
            make_strategy("volume-greedy", volume_by_as=volume),
            UNIVERSE,
            evidence,
            check_converged=False,
        )
        # Isolating the busy quartet cuts weighted cost 40×16→40×4; the
        # plain halving only reaches 40×8.  Reduction ranks 1 first.
        assert result.order[0] == 1


class TestGreedyEquivalence:
    """Plugin greedy vs a verbatim replica of the old scheduler loop."""

    @staticmethod
    def legacy_greedy_run(universe, catchment_history, max_steps=None):
        # Verbatim pre-plugin GreedyScheduler.run (restricted-map gain
        # loop), kept as the bit-identity reference.
        universe_set = set(universe)
        restricted = [
            [
                (link, frozenset(catchment & universe_set))
                for link, catchment in sorted(catchments.items())
            ]
            for catchments in catchment_history
        ]
        steps = len(catchment_history) if max_steps is None else min(
            max_steps, len(catchment_history)
        )
        state = ClusterState(universe)
        remaining = set(range(len(catchment_history)))
        order, curve = [], []
        for _ in range(steps):
            best_index = None
            best_gain = 0
            for index in sorted(remaining):
                gain = refinement_gain(
                    state, (members for _, members in restricted[index])
                )
                if gain > best_gain:
                    best_gain = gain
                    best_index = index
            if best_index is None:
                break
            remaining.discard(best_index)
            state.refine_with_catchments(catchment_history[best_index])
            order.append(best_index)
            curve.append(state.mean_size())
        return order, curve

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_across_seeds(self, seed):
        testbed = build_testbed(seed=seed)
        _, universe, history = measured_evidence(testbed)
        order, curve = GreedyScheduler(universe, history).run()
        legacy_order, legacy_curve = self.legacy_greedy_run(universe, history)
        assert order == legacy_order
        assert curve == legacy_curve  # exact float equality, not approx

    def test_bit_identical_across_worker_counts(self):
        testbed = build_testbed(seed=2)
        schedule = generate_schedule(
            testbed.origin, testbed.graph, ScheduleParams()
        )[:10]
        results = []
        for workers in (1, 2):
            engine = SimulationEngine(testbed.simulator, workers=workers)
            try:
                universe, history = measured_catchment_history(
                    engine, schedule
                )
            finally:
                engine.close()
            results.append(GreedyScheduler(universe, history).run())
        assert results[0] == results[1]

    def test_max_steps_bit_identical(self):
        testbed = build_testbed(seed=1)
        _, universe, history = measured_evidence(testbed)
        assert GreedyScheduler(universe, history).run(max_steps=4) == (
            self.legacy_greedy_run(universe, history, max_steps=4)
        )


class TestControllerEquivalence:
    """Plugin-backed controller vs the old _score/select_next loop."""

    @staticmethod
    def legacy_select(state, remaining, catchment_maps, volume_by_as):
        # Verbatim pre-plugin AdaptiveController adaptive selection.
        def weighted(state_):
            cost = 0.0
            for cluster in state_.clusters():
                volume = sum(volume_by_as.get(a, 0.0) for a in cluster)
                cost += volume * len(cluster)
            return cost

        def score(index):
            catchments = catchment_maps[index]
            if volume_by_as:
                working = state.copy()
                before = weighted(working)
                working.refine_with_catchments(catchments)
                reduction = before - weighted(working)
                if reduction > 0:
                    return reduction
            return float(
                refinement_gain(state, catchments.values())
            ) * 1e-9

        best_index = None
        best_score = 0.0
        for index in remaining:
            value = score(index)
            if value > best_score:
                best_score = value
                best_index = index
        return best_index if best_index is not None else remaining[0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lockstep_selection_with_live_attributor(self, seed):
        from repro.live.attributor import LiveAttributor
        from repro.spoof.sources import make_placement
        from repro.spoof.traffic import link_volumes

        testbed = build_testbed(seed=seed)
        schedule, universe, history = measured_evidence(testbed, 10)
        placement = make_placement(
            "pareto",
            sorted(testbed.topology.stubs or testbed.graph.ases),
            20,
            random.Random(seed + 1),
        )
        engine = SimulationEngine(testbed.simulator)
        try:
            outcomes = engine.simulate_many(schedule)
        finally:
            engine.close()

        controller = AdaptiveController(schedule, history)
        attributor = LiveAttributor(universe)
        shadow_remaining = list(range(len(schedule)))
        timeline = CampaignTimeline()
        dwell = 0.0
        while controller.remaining:
            if attributor.configs_applied > 0:
                volume_by_as = attributor.volume_by_as()
                # The specified score: lexicographic (clamped weighted
                # reduction, split gain), ties toward the lowest index.
                best_index, best_score = None, (0.0, 0)
                reductions = {}
                for index in shadow_remaining:
                    score = weighted_split_score(
                        attributor.state,
                        controller.catchment_maps[index],
                        volume_by_as,
                    )
                    reductions[index] = score[0]
                    if score > best_score:
                        best_score = score
                        best_index = index
                expected = (
                    best_index if best_index is not None
                    else shadow_remaining[0]
                )
                legacy = self.legacy_select(
                    attributor.state,
                    shadow_remaining,
                    controller.catchment_maps,
                    volume_by_as,
                )
            else:
                expected = legacy = shadow_remaining[0]
                reductions = {}
            choice = controller.select_next(attributor)
            assert choice == expected
            # Outside exact reduction ties (where the split-gain
            # tie-break is the satellite-2 fix) the plugin reproduces
            # the legacy controller's selection bit-identically.
            top = max(reductions.values(), default=0.0)
            unique_top = (
                sum(1 for value in reductions.values() if value == top) == 1
            )
            if top == 0.0 or unique_top:
                assert choice == legacy
            shadow_remaining.remove(choice)
            dwell += timeline.minutes_per_config
            assert controller.dwell_minutes == dwell
            attributor.apply_config(schedule[choice], history[choice])
            volumes = link_volumes(placement, outcomes[choice].catchments)
            attributor.observe(volumes, volumes.offered)
        assert controller.select_next(attributor) is None

    def test_tie_break_is_deterministic_and_lowest_index(self):
        # Two identical configurations: equal scores must resolve to the
        # lower schedule index, regardless of hash order.
        duplicated = [HISTORY[0], dict(HISTORY[0]), HISTORY[1]]
        strategy = make_strategy("greedy").bind(duplicated)
        state = ClusterState(UNIVERSE)
        volume = {asn: 1.0 for asn in UNIVERSE}
        assert strategy.propose(state, volume) == 0

    def test_noise_scale_reduction_loses_to_real_split(self):
        # Regression for the `* 1e-9` fallback bug: a float-noise
        # weighted reduction must not outrank a configuration with a
        # genuine split gain.  Cluster {0..7} carries all volume and
        # nothing can split it; config A "reduces" its cost only through
        # summation noise, config B genuinely splits the cold cluster.
        state = ClusterState(UNIVERSE)
        state.refine_with_catchments(HISTORY[0])
        volume = {asn: (1e8 + 1e-7 * asn if asn < 8 else 0.0)
                  for asn in UNIVERSE}
        noise_config = {"l1": frozenset(range(8))}   # no split at all
        split_config = {"l1": frozenset(range(8, 12)),
                        "l2": frozenset(range(12, 16))}
        strategy = make_strategy("greedy").bind([noise_config, split_config])
        assert strategy.propose(state, volume) == 1


class TestControllerStrategyFeatures:
    def test_policy_builds_named_strategy(self):
        controller = AdaptiveController(
            [object()] * len(HISTORY),
            HISTORY,
            policy=ControllerPolicy(strategy="random", strategy_seed=5),
        )
        assert controller.strategy.name == "random"
        assert controller.strategy.seed == 5

    def test_unknown_policy_strategy_rejected(self):
        with pytest.raises(StrategyError):
            AdaptiveController(
                [object()] * len(HISTORY),
                HISTORY,
                policy=ControllerPolicy(strategy="nope"),
            )

    def test_serialization_roundtrip_carries_strategy_state(self):
        controller = AdaptiveController([object()] * len(HISTORY), HISTORY)
        state = ClusterState(UNIVERSE)
        controller.strategy.observe(1, state)
        payload = controller.as_serializable()
        assert payload["strategy_state"] == {}
        clone = AdaptiveController([object()] * len(HISTORY), HISTORY)
        clone.restore(payload)
        assert clone.remaining == controller.remaining

    def test_restore_tolerates_pre_strategy_payload(self):
        controller = AdaptiveController([object()] * len(HISTORY), HISTORY)
        controller.restore(
            {
                "remaining": [2, 3],
                "configs_consumed": 2,
                "dwell_minutes": 165.0,
                "remeasurements": 0,
            }
        )
        assert controller.remaining == [2, 3]


class TestTrackerStrategyPath:
    def test_default_run_reports_no_strategy(self):
        testbed = build_testbed(seed=1)
        tracker = SpoofTracker.from_testbed(testbed)
        try:
            report = tracker.run(max_configs=8)
        finally:
            tracker.engine.close()
        assert report.strategy is None

    def test_schedule_strategy_is_the_default_path(self):
        testbed = build_testbed(seed=1)
        tracker = SpoofTracker.from_testbed(testbed)
        try:
            base = tracker.run(max_configs=8)
        finally:
            tracker.engine.close()
        tracker2 = SpoofTracker.from_testbed(testbed)
        try:
            via_schedule = tracker2.run(max_configs=8, strategy="schedule")
        finally:
            tracker2.engine.close()
        assert via_schedule.strategy is None
        assert [s.config_label for s in via_schedule.steps] == [
            s.config_label for s in base.steps
        ]
        assert [s.mean_cluster_size for s in via_schedule.steps] == [
            s.mean_cluster_size for s in base.steps
        ]

    def test_greedy_planned_run_matches_scheduler_order(self):
        testbed = build_testbed(seed=2)
        tracker = SpoofTracker.from_testbed(testbed)
        try:
            report = tracker.run(max_configs=10, strategy="greedy")
            schedule = tracker.schedule[:10]
            engine = tracker.engine
            universe, history = measured_catchment_history(engine, schedule)
        finally:
            tracker.engine.close()
        order, _ = GreedyScheduler(universe, history).run()
        expected_labels = [
            schedule[i].label or schedule[i].describe() for i in order
        ]
        assert [s.config_label for s in report.steps] == expected_labels
        assert report.strategy == "greedy"
