"""Tests for the caching / parallel simulation engine."""

import time

import pytest

from repro.bgp.announcement import AnnouncementConfig, anycast_all
from repro.core.engine import EngineStats, SimulationEngine, warm_start_parent
from repro.core.pipeline import SpoofTracker
from repro.errors import SimulationError
from tests.conftest import T1


LINKS = ["l1", "l2"]


class TestWarmStartParent:
    def test_anycast_all_has_no_parent(self):
        assert warm_start_parent(anycast_all(LINKS), LINKS) is None

    def test_subset_locations_seeds_from_anycast_all(self):
        config = AnnouncementConfig(announced=frozenset(["l1"]))
        parent = warm_start_parent(config, LINKS)
        assert parent is not None
        assert parent.announced == frozenset(LINKS)
        assert not parent.prepended and not parent.poisoned

    def test_manipulations_seed_from_same_locations(self):
        for config in (
            AnnouncementConfig(
                announced=frozenset(["l1"]), prepended=frozenset(["l1"])
            ),
            AnnouncementConfig(
                announced=frozenset(["l1"]), poisoned={"l1": frozenset([T1])}
            ),
            AnnouncementConfig(
                announced=frozenset(["l1"]), no_export={"l1": frozenset([T1])}
            ),
        ):
            parent = warm_start_parent(config, LINKS)
            assert parent.announced == config.announced
            assert not parent.prepended
            assert not parent.poisoned and not parent.no_export

    def test_parent_ignores_label_metadata(self):
        a = AnnouncementConfig(announced=frozenset(["l1"]), label="x")
        b = AnnouncementConfig(announced=frozenset(["l1"]), label="y")
        assert warm_start_parent(a, LINKS).key() == warm_start_parent(b, LINKS).key()


class TestCaching:
    def test_repeat_runs_zero_new_fixpoints(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        configs = [
            anycast_all(LINKS),
            AnnouncementConfig(announced=frozenset(["l1"])),
            AnnouncementConfig(
                announced=frozenset(["l1", "l2"]), prepended=frozenset(["l1"])
            ),
        ]
        first = engine.simulate_many(configs)
        simulated = engine.stats.configs_simulated
        assert simulated >= len(configs)
        second = engine.simulate_many(configs)
        assert engine.stats.configs_simulated == simulated  # all cache hits
        assert engine.stats.cache_hits >= len(configs)
        for a, b in zip(first, second):
            assert a is b

    def test_cache_key_ignores_label_and_phase(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        a = engine.simulate(anycast_all(LINKS, label="first"))
        before = engine.stats.configs_simulated
        b = engine.simulate(
            AnnouncementConfig(
                announced=frozenset(LINKS), label="second", phase="locations"
            )
        )
        assert engine.stats.configs_simulated == before
        assert a is b

    def test_duplicates_within_batch_counted_as_hits(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        config = anycast_all(LINKS)
        outcomes = engine.simulate_many([config, config, config])
        assert outcomes[0] is outcomes[1] is outcomes[2]
        assert engine.stats.cache_hits == 2
        assert engine.stats.configs_requested == 3

    def test_cached_outcome_never_simulates(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        config = anycast_all(LINKS)
        assert engine.cached_outcome(config) is None
        outcome = engine.simulate(config)
        assert engine.cached_outcome(config) is outcome
        engine.clear_cache()
        assert engine.cached_outcome(config) is None

    def test_lru_eviction_bounds_cache(self, mini_simulator):
        engine = SimulationEngine(mini_simulator, warm_start=False, cache_size=1)
        first = anycast_all(LINKS)
        second = AnnouncementConfig(announced=frozenset(["l1"]))
        engine.simulate(first)
        engine.simulate(second)  # evicts first
        assert engine.cached_outcome(first) is None
        assert engine.cached_outcome(second) is not None

    def test_on_demand_parent_is_cached(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        child = AnnouncementConfig(
            announced=frozenset(["l1"]), prepended=frozenset(["l1"])
        )
        engine.simulate(child)
        # Both the locations parent and the anycast-all grandparent were
        # simulated en route and must now be hits.
        before = engine.stats.configs_simulated
        engine.simulate(AnnouncementConfig(announced=frozenset(["l1"])))
        engine.simulate(anycast_all(LINKS))
        assert engine.stats.configs_simulated == before

    def test_validation(self, mini_simulator):
        with pytest.raises(SimulationError):
            SimulationEngine(mini_simulator, workers=0)
        with pytest.raises(SimulationError):
            SimulationEngine(mini_simulator, cache_size=0)


class TestWarmStartCorrectness:
    def test_warm_equals_cold_on_mini(self, mini_simulator):
        configs = [
            anycast_all(LINKS),
            AnnouncementConfig(announced=frozenset(["l1"])),
            AnnouncementConfig(announced=frozenset(["l2"])),
            AnnouncementConfig(
                announced=frozenset(LINKS), prepended=frozenset(["l1"])
            ),
            AnnouncementConfig(
                announced=frozenset(LINKS), poisoned={"l1": frozenset([T1])}
            ),
        ]
        warm = SimulationEngine(mini_simulator, warm_start=True)
        cold = SimulationEngine(mini_simulator, warm_start=False)
        for a, b in zip(warm.simulate_many(configs), cold.simulate_many(configs)):
            assert a.routes == b.routes
            assert a.catchments == b.catchments
        assert warm.stats.warm_starts > 0
        assert cold.stats.warm_starts == 0

    def test_warm_equals_cold_on_generated_schedule(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        configs = tracker.schedule[:25]
        warm = SimulationEngine(small_testbed.simulator, warm_start=True)
        cold = SimulationEngine(small_testbed.simulator, warm_start=False)
        for a, b in zip(warm.simulate_many(configs), cold.simulate_many(configs)):
            assert a.routes == b.routes

    def test_direct_warm_start_api(self, mini_simulator):
        base = mini_simulator.simulate(anycast_all(LINKS))
        config = AnnouncementConfig(announced=frozenset(["l2"]))
        warm = mini_simulator.simulate(config, warm_start=base.routes)
        cold = mini_simulator.simulate(config)
        assert warm.warm_started and not cold.warm_started
        assert warm.routes == cold.routes
        assert warm.catchments == cold.catchments


class TestStats:
    def test_since_reports_deltas(self, mini_simulator):
        engine = SimulationEngine(mini_simulator)
        engine.simulate(anycast_all(LINKS))
        snapshot = engine.stats.copy()
        engine.simulate(anycast_all(LINKS))  # hit
        delta = engine.stats.since(snapshot)
        assert delta.configs_requested == 1
        assert delta.configs_simulated == 0
        assert delta.cache_hits == 1

    def test_summary_renders(self):
        text = EngineStats(configs_simulated=3, configs_requested=5).summary()
        assert "3 simulated / 5 requested" in text


class TestSerialParallelEquivalence:
    def test_parallel_run_is_bit_identical(self, small_testbed):
        serial = SpoofTracker(small_testbed, workers=1)
        parallel = SpoofTracker(small_testbed, workers=2)
        try:
            a = serial.run(max_configs=12, split_threshold=5, split_budget=8)
            b = parallel.run(max_configs=12, split_threshold=5, split_budget=8)
        finally:
            parallel.engine.close()
        assert a.universe == b.universe
        assert a.catchment_history == b.catchment_history
        assert a.clusters == b.clusters
        assert a.steps == b.steps
        assert b.engine_stats.configs_simulated > 0

    def test_parallel_engine_matches_serial_routes(self, small_testbed):
        """Two workers dispatch ``ceil(length / 4)`` configurations per
        task (1, 3 and 4 for these lengths); outcomes and logical
        accounting never depend on the batch size."""
        tracker = SpoofTracker(small_testbed)
        for length in (2, 10, 16):
            configs = tracker.schedule[:length]
            serial = SimulationEngine(small_testbed.simulator, workers=1)
            with SimulationEngine(
                small_testbed.simulator, workers=2, spec=small_testbed.spec
            ) as parallel:
                fanned = parallel.simulate_many(configs)
            plain = serial.simulate_many(configs)
            for a, b in zip(plain, fanned):
                assert a.routes == b.routes
                assert a.catchments == b.catchments
            for name in (
                "configs_simulated", "cache_hits", "warm_starts", "passes_saved"
            ):
                assert getattr(parallel.stats, name) == getattr(
                    serial.stats, name
                ), (length, name)


class TestWallTimeAccounting:
    """``wall_time`` measures engine work, not consumer dawdling.

    The live pre-measure calls :meth:`SimulationEngine.simulate` once per
    configuration; a consumer that sleeps between calls must not inflate
    ``wall_time``.
    """

    SLEEP = 0.05

    def test_serial_slow_consumer_not_charged(self, small_testbed):
        configs = SpoofTracker(small_testbed).schedule[:8]
        engine = SimulationEngine(small_testbed.simulator, spec=small_testbed.spec)
        start = time.perf_counter()
        outcomes = []
        for config in configs:
            outcomes.append(engine.simulate(config))
            time.sleep(self.SLEEP)
        elapsed = time.perf_counter() - start
        assert len(outcomes) == len(configs)
        sleep_total = self.SLEEP * len(configs)
        assert elapsed >= sleep_total
        assert engine.stats.wall_time <= elapsed - 0.5 * sleep_total


class TestFaultContainment:
    """Injected faults never abort a batch and never change results."""

    @staticmethod
    def _crashy(rate=1.0, **kwargs):
        from repro.faults import FaultInjector, FaultPlan, FaultSpec

        return FaultInjector(
            FaultPlan(
                specs=(FaultSpec(kind="worker-crash", rate=rate, **kwargs),)
            )
        )

    def test_serial_retries_past_sub_certain_crashes(self, mini_simulator):
        from repro.faults.resilience import RetryPolicy

        engine = SimulationEngine(
            mini_simulator,
            injector=self._crashy(rate=0.5),
            retry_policy=RetryPolicy(max_retries=8, backoff_base=0.0),
        )
        clean = SimulationEngine(mini_simulator)
        configs = [
            anycast_all(LINKS),
            AnnouncementConfig(announced=frozenset(["l1"])),
            AnnouncementConfig(announced=frozenset(["l2"])),
        ]
        for a, b in zip(engine.simulate_many(configs), clean.simulate_many(configs)):
            assert a.routes == b.routes
            assert a.catchments == b.catchments

    def test_serial_bypass_after_retry_budget(self, mini_simulator):
        from repro.faults.resilience import RetryPolicy

        engine = SimulationEngine(
            mini_simulator,
            injector=self._crashy(rate=1.0),  # never clears by retrying
            retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0),
        )
        outcome = engine.simulate(anycast_all(LINKS))
        assert outcome.catchments  # completed despite the certain fault
        assert engine.stats.faults_bypassed == 1
        assert engine.stats.retries == 2

    def test_parallel_worker_crash_contained(self, small_testbed):
        from repro.faults.resilience import RetryPolicy

        tracker = SpoofTracker(small_testbed)
        configs = tracker.schedule[:8]
        clean = SimulationEngine(small_testbed.simulator)
        expected = clean.simulate_many(configs)
        with SimulationEngine(
            small_testbed.simulator,
            workers=2,
            spec=small_testbed.spec,
            injector=self._crashy(rate=0.4),
            retry_policy=RetryPolicy(max_retries=6, backoff_base=0.0),
        ) as engine:
            outcomes = engine.simulate_many(configs)
            assert engine.stats.worker_failures >= 1
            assert engine.stats.pool_rebuilds >= 1
        for a, b in zip(expected, outcomes):
            assert a.routes == b.routes
            assert a.catchments == b.catchments

    def test_hang_timeout_falls_back_to_serial(self, small_testbed):
        from repro.faults import FaultInjector, FaultPlan, FaultSpec
        from repro.faults.resilience import RetryPolicy

        injector = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(
                        kind="worker-hang", rate=1.0, delay_seconds=30.0
                    ),
                )
            )
        )
        tracker = SpoofTracker(small_testbed)
        configs = tracker.schedule[:4]
        clean = SimulationEngine(small_testbed.simulator)
        expected = clean.simulate_many(configs)
        with SimulationEngine(
            small_testbed.simulator,
            workers=2,
            spec=small_testbed.spec,
            injector=injector,
            retry_policy=RetryPolicy(task_timeout=0.5, backoff_base=0.0),
        ) as engine:
            start = time.perf_counter()
            outcomes = engine.simulate_many(configs)
            elapsed = time.perf_counter() - start
            assert engine.stats.worker_failures >= 1
        # The serial re-run re-draws the same hang; it may stall each
        # configuration by the task timeout, never by the full 30 s.
        assert elapsed < 10.0
        for a, b in zip(expected, outcomes):
            assert a.routes == b.routes

    def test_breaker_opens_and_stays_serial(self, small_testbed):
        from repro.faults.resilience import RetryPolicy

        tracker = SpoofTracker(small_testbed)
        with SimulationEngine(
            small_testbed.simulator,
            workers=2,
            spec=small_testbed.spec,
            injector=self._crashy(rate=0.6),
            retry_policy=RetryPolicy(max_retries=8, backoff_base=0.0),
            breaker_threshold=1,
        ) as engine:
            engine.simulate_many(tracker.schedule[:6])
            assert engine.breaker.open
            rebuilds = engine.stats.pool_rebuilds
            # Further batches run serially: no new pool, no new failures.
            engine.simulate_many(tracker.schedule[6:10])
            assert engine.stats.pool_rebuilds == rebuilds
            assert engine._pool is None

    def test_close_after_in_flight_failure_releases_pool(self, small_testbed):
        from repro.faults.resilience import RetryPolicy

        tracker = SpoofTracker(small_testbed)
        engine = SimulationEngine(
            small_testbed.simulator,
            workers=2,
            spec=small_testbed.spec,
            injector=self._crashy(rate=0.4),
            retry_policy=RetryPolicy(max_retries=6, backoff_base=0.0),
        )
        try:
            engine.simulate_many(tracker.schedule[:8])
            assert engine.stats.worker_failures >= 1
        finally:
            engine.close()
        assert engine._pool is None
        # The engine stays usable after close (serial path + cache).
        outcome = engine.simulate(tracker.schedule[0])
        assert outcome.catchments

    def test_context_manager_releases_pool_on_exit(self, small_testbed):
        tracker = SpoofTracker(small_testbed)
        with SimulationEngine(
            small_testbed.simulator, workers=2, spec=small_testbed.spec
        ) as engine:
            engine.simulate_many(tracker.schedule[:4])
            assert engine._pool is not None
        assert engine._pool is None

    def test_fault_stats_render_in_summary(self):
        stats = EngineStats(
            configs_simulated=3,
            configs_requested=5,
            worker_failures=1,
            retries=2,
        )
        text = stats.summary()
        assert "3 simulated / 5 requested" in text
        assert "1 worker failures" in text

    def test_clean_summary_omits_fault_counters(self):
        text = EngineStats(configs_simulated=3, configs_requested=5).summary()
        assert "worker failures" not in text
