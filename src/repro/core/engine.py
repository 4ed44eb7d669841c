"""Parallel, memoizing simulation engine for announcement schedules.

The paper's workflow deploys ~705 announcement configurations and
intersects their catchments; every consumer in this repo — the
:class:`~repro.core.pipeline.SpoofTracker` schedule, the §V-B
:class:`~repro.core.refinement.LargeClusterSplitter`, the §V-C
schedulers, and the benchmark harness — ultimately funnels through
"simulate this configuration".  :class:`SimulationEngine` makes that hot
path fast three ways:

1. **Fan-out** — configurations are distributed over a
   :mod:`multiprocessing` pool.  Each worker reconstructs the
   :class:`~repro.bgp.simulator.RoutingSimulator` exactly once, in the
   pool initializer, from a picklable testbed spec (or from the pickled
   simulator itself when no spec is available); misses go out in
   batches and results return in the batch's order.
2. **Memoization** — outcomes are cached in an LRU keyed by the
   *canonical* form of the configuration
   (:meth:`~repro.bgp.announcement.AnnouncementConfig.key`, which
   ignores label/phase metadata), so no configuration is ever simulated
   twice — not by a repeated schedule, not by the splitter re-deploying
   the anycast baseline, not by a scheduler replaying history.
3. **Warm starts** — a configuration that differs from an
   already-computed one only by prepending/poisoning/communities (same
   announcement set) or by dropped links (subset of all links) seeds its
   fixpoint from that *parent* outcome's route columns instead of the
   empty state, cutting Gauss-Seidel passes on the long prepend/poison
   phases.

Determinism: the warm-start parent of a configuration is a pure function
of the configuration itself (never of scheduling order or cache
contents — a missing parent is simulated on demand), so every outcome is
a deterministic function of ``(simulator, config)``.  A parallel run is
therefore bit-identical to a serial one: same routes, same catchments,
same clusters.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..bgp.announcement import AnnouncementConfig
from ..bgp.simulator import RoutingOutcome, RoutingSimulator
from ..errors import InjectedFault, SimulationError
from ..faults.injection import FaultAction, FaultInjector
from ..faults.resilience import CircuitBreaker, RetryPolicy
from ..obs.tracing import TraceContext, _derive_id as _derive_span_id

#: Default bound on memoized outcomes.  An outcome holds five per-AS
#: route columns over the compiled index (one list slot per AS plus one
#: AS-path tuple per routed AS, no ``Route`` objects), so the default
#: comfortably fits the paper's 705-config schedule on paper-scale
#: topologies while bounding worst-case memory.
DEFAULT_CACHE_SIZE = 4096

ConfigKey = Tuple
_Lookup = Callable[[ConfigKey], Optional[RoutingOutcome]]
_Store = Callable[[ConfigKey, RoutingOutcome], None]


@dataclass
class EngineStats:
    """Counters accumulated by a :class:`SimulationEngine`.

    Every *count* here is a logical, scheduling-independent quantity: a
    seeded scenario produces identical counts serial or parallel, which
    is what lets the observability layer treat them as deterministic
    metrics.  The time fields (``wall_time``, ``queue_wait``) and
    ``redundant_parent_sims`` are measured/physical quantities and vary
    run to run.

    Attributes:
        configs_requested: configurations asked for (hits + misses).
        configs_simulated: Gauss-Seidel fixpoints charged to the run,
            including warm-start parents simulated on demand.  Counted
            *logically* — as the equivalent serial run would have run
            them — so the total is identical at any worker count even
            though workers may physically re-simulate a shared parent.
        cache_hits: requests served from the outcome cache (including
            duplicates within one batch).
        warm_starts: simulations seeded from a parent outcome.
        passes_saved: estimated Gauss-Seidel passes avoided by warm
            starts — Σ max(0, parent passes − warm-started passes); the
            parent's cold pass count is the stand-in for what the child
            would have cost cold.
        wall_time: seconds spent inside :meth:`SimulationEngine.simulate`
            / :meth:`SimulationEngine.simulate_many`, measured with the
            monotonic clock.
        queue_wait: seconds of ``wall_time`` spent blocked waiting on
            worker-pool results (0 in serial runs).
        redundant_parent_sims: physical warm-start-parent fixpoints run
            beyond the logical count (workers re-deriving a parent the
            serial run would have had cached).  Net of work *saved* on
            containment re-runs, so only the post-batch value is
            meaningful.
        worker_failures: pool tasks that died or timed out (injected or
            real); each triggers a pool teardown and a serial re-run of
            the outstanding work.
        last_worker_error: repr of the most recent exception a worker
            failure was contained from ("" when none occurred).
        retries: serial attempts re-run after an injected fault.
        faults_bypassed: tasks whose injected fault outlived the retry
            budget and ran with injection suppressed.
        pool_rebuilds: worker pools torn down after a failure (a fresh
            pool is built lazily on the next parallel batch).
    """

    configs_requested: int = 0
    configs_simulated: int = 0
    cache_hits: int = 0
    warm_starts: int = 0
    passes_saved: int = 0
    wall_time: float = 0.0
    queue_wait: float = 0.0
    redundant_parent_sims: int = 0
    worker_failures: int = 0
    last_worker_error: str = ""
    retries: int = 0
    faults_bypassed: int = 0
    pool_rebuilds: int = 0

    def copy(self) -> "EngineStats":
        """Independent snapshot of the current counters."""
        return replace(self)

    def since(self, before: "EngineStats") -> "EngineStats":
        """Counters accumulated after the ``before`` snapshot was taken."""
        return EngineStats(
            configs_requested=self.configs_requested - before.configs_requested,
            configs_simulated=self.configs_simulated - before.configs_simulated,
            cache_hits=self.cache_hits - before.cache_hits,
            warm_starts=self.warm_starts - before.warm_starts,
            passes_saved=self.passes_saved - before.passes_saved,
            wall_time=self.wall_time - before.wall_time,
            queue_wait=self.queue_wait - before.queue_wait,
            redundant_parent_sims=self.redundant_parent_sims
            - before.redundant_parent_sims,
            worker_failures=self.worker_failures - before.worker_failures,
            last_worker_error=(
                self.last_worker_error
                if self.last_worker_error != before.last_worker_error
                or self.worker_failures > before.worker_failures
                else ""
            ),
            retries=self.retries - before.retries,
            faults_bypassed=self.faults_bypassed - before.faults_bypassed,
            pool_rebuilds=self.pool_rebuilds - before.pool_rebuilds,
        )

    def summary(self) -> str:
        """One-line human-readable rendering."""
        text = (
            f"{self.configs_simulated} simulated / "
            f"{self.configs_requested} requested, "
            f"{self.cache_hits} cache hits, "
            f"{self.warm_starts} warm starts "
            f"(~{self.passes_saved} passes saved), "
            f"{self.wall_time:.2f}s"
        )
        if self.worker_failures or self.retries or self.faults_bypassed:
            text += (
                f", {self.worker_failures} worker failures / "
                f"{self.retries} retries / "
                f"{self.faults_bypassed} bypassed"
            )
        return text


# ----------------------------------------------------------------------
# Warm-start parent derivation
# ----------------------------------------------------------------------


def warm_start_parent(
    config: AnnouncementConfig, all_links: Sequence[str]
) -> Optional[AnnouncementConfig]:
    """The configuration whose fixpoint seeds ``config``'s, or None.

    * A configuration using prepending, poisoning, or no-export
      communities is seeded from the plain locations configuration with
      the same announcement set (same routes everywhere the manipulation
      does not bite).
    * A locations configuration announcing a proper subset of the links
      is seeded from the anycast-all configuration (only sources behind
      the withdrawn links move).
    * The anycast-all configuration itself has no parent (cold start).

    The parent depends only on the configuration and the origin's link
    set — never on what happens to be cached — so warm-started results
    are reproducible regardless of scheduling or worker count.
    """
    if config.prepended or config.poisoned or config.no_export:
        return AnnouncementConfig(
            announced=config.announced, label="warm-parent"
        )
    full = frozenset(all_links)
    if config.announced != full:
        return AnnouncementConfig(announced=full, label="warm-root")
    return None


def _simulate_resolved(
    simulator: RoutingSimulator,
    config: AnnouncementConfig,
    warm_start: bool,
    lookup: _Lookup,
    store: _Store,
) -> Tuple[RoutingOutcome, int, int, int]:
    """Simulate ``config``, resolving warm-start parents through a cache.

    Returns ``(outcome, fixpoints_run, warm_starts, passes_saved)``.
    Missing parents are simulated (and cached via ``store``) on demand,
    so the result never depends on cache contents.
    """
    if not warm_start:
        return simulator.simulate(config), 1, 0, 0
    parent = warm_start_parent(config, simulator.origin.link_ids)
    if parent is None:
        return simulator.simulate(config), 1, 0, 0
    fixpoints = 0
    parent_key = parent.key()
    parent_outcome = lookup(parent_key)
    if parent_outcome is None:
        parent_outcome, parent_fixpoints, _, _ = _simulate_resolved(
            simulator, parent, warm_start, lookup, store
        )
        store(parent_key, parent_outcome)
        fixpoints += parent_fixpoints
    outcome = simulator.simulate(config, warm_start=parent_outcome)
    saved = max(0, parent_outcome.passes - outcome.passes)
    return outcome, fixpoints + 1, 1, saved


# ----------------------------------------------------------------------
# Worker-process machinery
# ----------------------------------------------------------------------

#: Per-worker state installed by the pool initializer: the reconstructed
#: simulator, the warm-start flag, and a worker-local parent cache.
_WORKER_STATE: Optional[Tuple[RoutingSimulator, bool, Dict]] = None


def _init_worker(payload, warm_start: bool) -> None:
    """Pool initializer: build the worker's simulator exactly once.

    ``payload`` is either a testbed spec exposing ``build_simulator()``
    (the cheap-to-pickle path) or a pickled :class:`RoutingSimulator`
    (fallback for ad-hoc testbeds without a spec).
    """
    global _WORKER_STATE
    if hasattr(payload, "build_simulator"):
        simulator = payload.build_simulator()
    else:
        simulator = payload
    _WORKER_STATE = (simulator, warm_start, {})


def _worker_simulate(
    item: Tuple[
        int,
        AnnouncementConfig,
        Optional[FaultAction],
        Tuple[Tuple[ConfigKey, RoutingOutcome], ...],
    ]
) -> Tuple[
    int,
    RoutingOutcome,
    int,
    int,
    int,
    Tuple[Tuple[ConfigKey, RoutingOutcome], ...],
    float,
]:
    """Pool task: simulate one configuration in a worker process.

    Warm-start parents are resolved against a worker-local cache (they
    recur across a schedule's prepend/poison phases, so each worker pays
    for each parent at most once).  Parents travel both ways: the main
    process ships any already-cached ancestor with the task, and parents
    the worker had to simulate itself come back in the result so the
    main cache learns them — later batches hit instead of re-deriving.
    The measured simulation time comes back too: the main process mints
    the task's span record from it when the engine is traced.

    A :class:`FaultAction` decided by the main process (chaos runs)
    executes *here*, at the site — raising an
    :class:`~repro.errors.InjectedFault` or stalling the task — so the
    engine's containment path is exercised exactly as a real worker
    failure would exercise it.
    """
    assert _WORKER_STATE is not None, "worker initializer did not run"
    simulator, warm_start, parent_cache = _WORKER_STATE
    index, config, action, parents = item
    for parent_key, parent_outcome in parents:
        parent_cache.setdefault(parent_key, parent_outcome)
    if action is not None:
        action.execute()
    new_parents: List[Tuple[ConfigKey, RoutingOutcome]] = []

    def _store(key: ConfigKey, outcome: RoutingOutcome) -> None:
        parent_cache[key] = outcome
        new_parents.append((key, outcome))

    sim_start = time.perf_counter()
    outcome, fixpoints, warms, saved = _simulate_resolved(
        simulator,
        config,
        warm_start,
        parent_cache.get,
        _store,
    )
    duration = time.perf_counter() - sim_start
    return index, outcome, fixpoints, warms, saved, tuple(new_parents), duration


def _worker_simulate_batch(items: Tuple) -> Tuple:
    """Pool task: simulate a whole batch of configurations in one dispatch.

    One pool task per *configuration* made the fan-out lose to a single
    core on fast simulators: each task pays pickling of the config, the
    shipped parents, and the full result outcome, plus a pool round-trip.
    Batching amortizes that overhead over many configurations, and the
    worker-local parent cache additionally serves later items of the same
    batch.  Results are the per-item tuples of :func:`_worker_simulate`,
    unchanged, so the main-process accounting is identical.
    """
    return tuple(_worker_simulate(item) for item in items)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class SimulationEngine:
    """Cached, optionally parallel front end to a :class:`RoutingSimulator`.

    Args:
        simulator: the simulator to run configurations through.
        workers: worker processes for :meth:`simulate_many`.  1 (the
            default) keeps everything in-process — exactly the previous
            serial behaviour, plus caching and warm starts.
        spec: picklable testbed spec (e.g.
            :class:`~repro.core.pipeline.TestbedSpec`) from which workers
            rebuild the simulator.  When None, the simulator itself is
            shipped to the pool initializer — fine under the default
            ``fork`` start method, required to be picklable elsewhere.
        warm_start: seed fixpoints from parent outcomes (see
            :func:`warm_start_parent`).
        cache_size: bound on memoized outcomes (LRU eviction).
        injector: optional chaos hook
            (:class:`~repro.faults.injection.FaultInjector`); None (the
            default) leaves the hot path untouched.
        retry_policy: containment knobs — per-task timeout on the pool
            (one task is one dispatched batch of
            ``ceil(misses / (workers * 2))`` configurations), bounded
            serial retries with deterministic exponential backoff for
            injected faults.  The timeout also caps an injected hang
            that runs in-process.
        breaker_threshold: consecutive pool failures after which the
            circuit opens and the engine stays serial.
        tracer: optional :class:`~repro.obs.tracing.Tracer`.  When armed,
            each batch with cache misses opens a deterministic
            ``engine_batch`` span with per-miss ``simulate`` /
            ``warm_start`` child spans carrying the logical fixpoint
            charge.  Every child is minted in the main process (workers
            return only their measured durations), with identities
            assigned from the scheduling-independent miss structure — the
            resulting :func:`~repro.obs.tracing.span_tree_signature` is
            identical at any worker count.

    The engine is safe to share across every consumer of one testbed —
    sharing is the point: the splitter's baseline is the schedule's
    anycast-all configuration, already cached.  It is also a context
    manager; :meth:`close` tears down the worker pool (a pool is only
    created once :meth:`simulate_many` actually runs with ``workers >
    1``).

    **Failure containment**: a worker that raises or times out no longer
    aborts the batch.  The broken pool is torn down, the failure is
    recorded in :class:`EngineStats`, and the outstanding work re-runs
    serially in-process (bit-identical results — simulation is a pure
    function of ``(simulator, config)``).  After ``breaker_threshold``
    broken pools the circuit opens and fan-out is abandoned for good.
    """

    def __init__(
        self,
        simulator: RoutingSimulator,
        workers: int = 1,
        spec=None,
        warm_start: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_threshold: int = 2,
        bus=None,
        tracer=None,
    ) -> None:
        if workers < 1:
            raise SimulationError("workers must be at least 1")
        if cache_size < 1:
            raise SimulationError("cache_size must be at least 1")
        self.simulator = simulator
        self.workers = workers
        self.spec = spec
        self.warm_start = warm_start
        self.cache_size = cache_size
        self.injector = injector
        self.bus = bus
        self.tracer = tracer
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = CircuitBreaker(breaker_threshold)
        self.stats = EngineStats()
        self._cache: "OrderedDict[ConfigKey, RoutingOutcome]" = OrderedDict()
        self._fault_ordinals: Dict[ConfigKey, int] = {}
        self._pool = None

    # -- cache ----------------------------------------------------------

    def _cache_get(self, key: ConfigKey) -> Optional[RoutingOutcome]:
        outcome = self._cache.get(key)
        if outcome is not None:
            self._cache.move_to_end(key)
        return outcome

    def _cache_put(self, key: ConfigKey, outcome: RoutingOutcome) -> None:
        self._cache[key] = outcome
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def cached_outcome(
        self, config: AnnouncementConfig
    ) -> Optional[RoutingOutcome]:
        """The cached outcome for ``config``, or None (never simulates)."""
        return self._cache_get(config.key())

    def clear_cache(self) -> None:
        """Drop every memoized outcome."""
        self._cache.clear()

    # -- simulation -----------------------------------------------------

    def simulate(self, config: AnnouncementConfig) -> RoutingOutcome:
        """Simulate one configuration (served from cache when possible)."""
        return self.simulate_many([config])[0]

    def simulate_many(
        self, configs: Sequence[AnnouncementConfig]
    ) -> List[RoutingOutcome]:
        """Simulate a batch; results return in the batch's order.

        Cache hits (including duplicate configurations within the batch)
        are never re-simulated.  Misses run serially in-process
        (``workers == 1``) or fan out over the worker pool.
        """
        start = time.perf_counter()
        before = self.stats.copy() if self.bus is not None else None
        self.stats.configs_requested += len(configs)

        # Partition into hits and first-occurrence misses.
        by_key: Dict[ConfigKey, RoutingOutcome] = {}
        misses: List[Tuple[ConfigKey, AnnouncementConfig]] = []
        pending = set()
        keys: List[ConfigKey] = []
        for config in configs:
            key = config.key()
            keys.append(key)
            if key in by_key or key in pending:
                self.stats.cache_hits += 1
                continue
            cached = self._cache_get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                by_key[key] = cached
                continue
            pending.add(key)
            misses.append((key, config))

        if misses:
            trace = self._open_batch_trace(misses)
            try:
                if self.workers == 1 or len(misses) == 1:
                    self._run_serial(misses, by_key, trace=trace)
                else:
                    self._run_parallel(misses, by_key, trace=trace)
            finally:
                self._close_batch_trace(trace)

        self.stats.wall_time += time.perf_counter() - start
        if before is not None:
            self._publish_batch(before)
        return [by_key[key] for key in keys]

    # -- deterministic span propagation ---------------------------------

    def _span_plan(
        self,
        misses: List[Tuple[ConfigKey, AnnouncementConfig]],
        logical: Dict[ConfigKey, int],
    ) -> Dict[ConfigKey, Tuple[str, int, int]]:
        """``key -> (name, ordinal, charge)`` for every charged miss.

        Derived from the batch's *logical* structure (never from pool
        scheduling): misses the serial reference run would serve en
        passant get no span, every other miss gets a ``simulate`` or
        ``warm_start`` span with an ordinal assigned in batch order.
        """
        plan: Dict[ConfigKey, Tuple[str, int, int]] = {}
        counters: Dict[str, int] = {}
        all_links = self.simulator.origin.link_ids
        for key, config in misses:
            count = logical[key]
            if count == 0:
                continue
            name = "simulate"
            if (
                self.warm_start
                and warm_start_parent(config, all_links) is not None
            ):
                name = "warm_start"
            ordinal = counters.get(name, 0)
            counters[name] = ordinal + 1
            plan[key] = (name, ordinal, count)
        return plan

    def _open_batch_trace(
        self, misses: List[Tuple[ConfigKey, AnnouncementConfig]]
    ) -> Optional[Dict]:
        """Mint this batch's ``engine_batch`` span (None when untraced).

        The span id and its per-parent ordinal are consumed up front so
        child identities can be fixed before dispatch; the record itself
        is grafted at :meth:`_close_batch_trace` with children first, in
        batch order, regardless of pool arrival order.
        """
        if self.tracer is None or not misses:
            return None
        parent = self.tracer.current
        ordinal = parent._child_ordinals.get("engine_batch", 0)
        parent._child_ordinals["engine_batch"] = ordinal + 1
        span_id = _derive_span_id(parent.span_id, "engine_batch", ordinal)
        ctx = TraceContext(
            parent_span_id=span_id, run_name=self.tracer.root.name
        )
        return {
            "ctx": ctx,
            "parent_id": parent.span_id,
            "misses": len(misses),
            "plan": self._span_plan(misses, self._logical_fixpoints(misses)),
            "records": {},
            "start": time.perf_counter(),
        }

    def _close_batch_trace(self, trace: Optional[Dict]) -> None:
        if trace is None:
            return
        records = [
            trace["records"][key]
            for key in trace["plan"]
            if key in trace["records"]
        ]
        records.append(
            {
                "span_id": trace["ctx"].parent_span_id,
                "parent_id": trace["parent_id"],
                "name": "engine_batch",
                "attrs": {"misses": trace["misses"]},
                "duration_seconds": round(
                    time.perf_counter() - trace["start"], 6
                ),
            }
        )
        self.tracer.graft(records)

    def _stash_local_span(
        self, trace: Optional[Dict], key: ConfigKey, duration: float
    ) -> None:
        """Mint a charged miss's child span record (once per key)."""
        entry = trace["plan"].get(key) if trace else None
        if entry is None or key in trace["records"]:
            return
        name, ordinal, count = entry
        trace["records"][key] = trace["ctx"].child_record(
            name,
            ordinal,
            attrs={"configs": count},
            duration_seconds=duration,
        )

    def _publish_batch(self, before: "EngineStats") -> None:
        """Publish one ``engine_batch`` bus event for the stats delta
        accumulated since ``before`` (counter fields are deterministic;
        wall time rides along as a measured ``_seconds`` field)."""
        delta = self.stats.since(before)
        self.bus.publish(
            "engine_batch",
            configs_requested=delta.configs_requested,
            configs_simulated=delta.configs_simulated,
            cache_hits=delta.cache_hits,
            warm_starts=delta.warm_starts,
            passes_saved=delta.passes_saved,
            worker_failures=delta.worker_failures,
            retries=delta.retries,
            wall_seconds=round(delta.wall_time, 6),
        )

    def _fault_ordinal(self, key: ConfigKey) -> int:
        """Stable per-engine ordinal of a distinct simulation (chaos
        windows count "the Nth new configuration this engine saw")."""
        ordinal = self._fault_ordinals.get(key)
        if ordinal is None:
            ordinal = len(self._fault_ordinals)
            self._fault_ordinals[key] = ordinal
        return ordinal

    def _action_for(
        self, key: ConfigKey, attempt: int = 0
    ) -> Optional[FaultAction]:
        """Chaos decision for one task (None without an injector)."""
        if self.injector is None:
            return None
        return self.injector.simulation_action(
            self._fault_ordinal(key), str(key), attempt
        )

    def _simulate_resilient(
        self, key: ConfigKey, config: AnnouncementConfig
    ) -> Tuple[RoutingOutcome, int, int, int]:
        """Simulate in-process, containing injected faults by retrying.

        Injected crashes are retried up to ``retry_policy.max_retries``
        times with deterministic exponential backoff (each attempt
        re-draws the fault decision, so sub-certain crash rates clear);
        a fault that survives the whole budget runs once more with
        injection suppressed — progress is guaranteed.  An injected hang
        stalls at most ``retry_policy.task_timeout`` (when set), the
        bound the pool enforces on its workers.  Real simulator
        exceptions propagate: they are bugs, not chaos.
        """
        timeout = self.retry_policy.task_timeout
        attempt = 0
        while True:
            action = self._action_for(key, attempt)
            try:
                if action is not None:
                    if timeout is not None and action.delay_seconds > timeout:
                        action = replace(action, delay_seconds=timeout)
                    action.execute()
                return _simulate_resolved(
                    self.simulator,
                    config,
                    self.warm_start,
                    self._cache_get,
                    self._record_parent,
                )
            except InjectedFault:
                if attempt >= self.retry_policy.max_retries:
                    self.stats.faults_bypassed += 1
                    assert self.injector is not None
                    with self.injector.suppressed():
                        return _simulate_resolved(
                            self.simulator,
                            config,
                            self.warm_start,
                            self._cache_get,
                            self._record_parent,
                        )
                self.stats.retries += 1
                self.retry_policy.sleep_before(attempt)
                attempt += 1

    def _run_serial(
        self,
        misses: List[Tuple[ConfigKey, AnnouncementConfig]],
        by_key: Dict[ConfigKey, RoutingOutcome],
        logical: Optional[Dict[ConfigKey, int]] = None,
        trace: Optional[Dict] = None,
    ) -> None:
        """Run misses in-process.

        With ``logical`` (the fallback path of a parallel batch),
        fixpoints are charged at the pre-computed logical count so the
        totals stay identical to a pure serial run even when the batch
        finishes half-pool, half-serial; without it (pure serial mode)
        physical counts *are* the logical counts.  Span records follow
        the trace plan either way, so the grafted tree matches a pooled
        run's exactly.
        """
        for key, config in misses:
            already = self._cache_get(key)
            if already is not None:
                # Simulated en passant as a warm-start parent of an
                # earlier miss in this batch (or absorbed from a worker
                # before the pool broke).
                by_key[key] = already
                if logical is not None:
                    self._charge_cached(key, config, logical)
                self._stash_local_span(trace, key, 0.0)
                continue
            sim_start = time.perf_counter()
            outcome, fixpoints, warms, saved = self._simulate_resilient(
                key, config
            )
            self._stash_local_span(
                trace, key, time.perf_counter() - sim_start
            )
            if logical is not None:
                count = logical.get(key, fixpoints)
                self.stats.configs_simulated += count
                self.stats.redundant_parent_sims += fixpoints - count
            else:
                self.stats.configs_simulated += fixpoints
            self.stats.warm_starts += warms
            self.stats.passes_saved += saved
            self._cache_put(key, outcome)
            by_key[key] = outcome

    def _record_parent(self, key: ConfigKey, outcome: RoutingOutcome) -> None:
        # Parents simulated on demand are full-fledged results: cache
        # them so the schedule (which usually contains them) hits.
        self._cache_put(key, outcome)

    def _logical_fixpoints(
        self, misses: List[Tuple[ConfigKey, AnnouncementConfig]]
    ) -> Dict[ConfigKey, int]:
        """Per-miss fixpoint counts as the equivalent serial run charges.

        Walks the misses in batch order against a simulated cache (the
        real cache's keys plus everything the serial run would have
        stored along the way): a miss already "cached" costs 0 (served
        en passant), otherwise 1 plus each warm-start ancestor not yet
        seen.  The per-key values depend only on the batch and the cache
        contents at entry — never on pool scheduling — so charging them
        makes ``configs_simulated`` identical at any worker count.
        """
        logical: Dict[ConfigKey, int] = {}
        seen = set(self._cache.keys())
        all_links = self.simulator.origin.link_ids
        for key, config in misses:
            if key in seen:
                logical[key] = 0
                continue
            count = 1
            if self.warm_start:
                node = config
                while True:
                    parent = warm_start_parent(node, all_links)
                    if parent is None:
                        break
                    parent_key = parent.key()
                    if parent_key in seen:
                        break
                    seen.add(parent_key)
                    count += 1
                    node = parent
            seen.add(key)
            logical[key] = count
        return logical

    def _parents_for_task(
        self, config: AnnouncementConfig
    ) -> Tuple[Tuple[ConfigKey, RoutingOutcome], ...]:
        """The nearest already-cached warm-start ancestor, for shipping.

        Seeding the worker's parent cache with it skips the physical
        re-simulation the worker would otherwise pay; outcomes are
        unchanged either way (a parent outcome is itself deterministic).
        """
        if not self.warm_start:
            return ()
        all_links = self.simulator.origin.link_ids
        node = config
        while True:
            parent = warm_start_parent(node, all_links)
            if parent is None:
                return ()
            parent_key = parent.key()
            outcome = self._cache_get(parent_key)
            if outcome is not None:
                return ((parent_key, outcome),)
            node = parent

    def _absorb_parents(
        self, new_parents: Tuple[Tuple[ConfigKey, RoutingOutcome], ...]
    ) -> None:
        """Cache parents a worker had to simulate itself (mirrors the
        serial path's ``_record_parent``), so later batches hit."""
        for parent_key, parent_outcome in new_parents:
            if parent_key not in self._cache:
                self._cache_put(parent_key, parent_outcome)

    def _charge_cached(
        self,
        key: ConfigKey,
        config: AnnouncementConfig,
        logical: Dict[ConfigKey, int],
    ) -> None:
        """Stats for a miss served from cache during a fallback re-run.

        The serial reference run would have simulated it directly when
        ``logical[key] > 0``; charge that count (and the warm start the
        direct simulation would have recorded) so totals still match.
        """
        count = logical.get(key, 0)
        if count == 0:
            return
        self.stats.configs_simulated += count
        self.stats.redundant_parent_sims -= count
        if not self.warm_start:
            return
        parent = warm_start_parent(config, self.simulator.origin.link_ids)
        if parent is None:
            return
        self.stats.warm_starts += 1
        parent_outcome = self._cache.get(parent.key())
        outcome = self._cache.get(key)
        if parent_outcome is not None and outcome is not None:
            self.stats.passes_saved += max(
                0, parent_outcome.passes - outcome.passes
            )

    def _next_result(self, results):
        """One pool result, honoring the per-task timeout when set."""
        timeout = self.retry_policy.task_timeout
        if timeout is None:
            return next(results)
        return results.next(timeout)

    def _handle_pool_failure(self, reason: str = "") -> None:
        """Account a broken pool and tear it down (rebuilt lazily)."""
        self.stats.worker_failures += 1
        self.stats.pool_rebuilds += 1
        if reason:
            self.stats.last_worker_error = reason
        self.breaker.record_failure()
        self._discard_pool()

    def _run_parallel(
        self,
        misses: List[Tuple[ConfigKey, AnnouncementConfig]],
        by_key: Dict[ConfigKey, RoutingOutcome],
        trace: Optional[Dict] = None,
    ) -> None:
        if self.breaker.open:
            self._run_serial(misses, by_key, trace=trace)
            return
        logical = self._logical_fixpoints(misses)
        pool = self._ensure_pool()
        # Two waves per worker: dispatch overhead amortizes over each
        # batch while stragglers still balance.
        batch_size = max(1, math.ceil(len(misses) / (self.workers * 2)))
        tasks = [
            (
                i,
                config,
                self._action_for(key),
                self._parents_for_task(config),
            )
            for i, (key, config) in enumerate(misses)
        ]
        batches = [
            tuple(tasks[start : start + batch_size])
            for start in range(0, len(tasks), batch_size)
        ]
        results = pool.imap_unordered(_worker_simulate_batch, batches)
        try:
            for _ in range(len(batches)):
                wait_start = time.perf_counter()
                group = self._next_result(results)
                self.stats.queue_wait += time.perf_counter() - wait_start
                for (
                    index,
                    outcome,
                    fixpoints,
                    warms,
                    saved,
                    new_parents,
                    duration,
                ) in group:
                    key = misses[index][0]
                    self._absorb_parents(new_parents)
                    self._stash_local_span(trace, key, duration)
                    count = logical[key]
                    self.stats.configs_simulated += count
                    self.stats.redundant_parent_sims += fixpoints - count
                    if count > 0:
                        self.stats.warm_starts += warms
                        self.stats.passes_saved += saved
                    self._cache_put(key, outcome)
                    by_key[key] = outcome
        except Exception as exc:
            # A worker died, raised, or timed out (injected or real).
            # The pool may hold poisoned or hung workers: replace it and
            # finish the outstanding work serially — results identical,
            # only slower.
            self._handle_pool_failure(repr(exc))
            remaining = [
                (key, config) for key, config in misses if key not in by_key
            ]
            self._run_serial(remaining, by_key, logical=logical, trace=trace)
        else:
            self.breaker.record_success()

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            payload = self.spec if self.spec is not None else self.simulator
            self._pool = multiprocessing.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(payload, self.warm_start),
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Terminate the current pool; a fresh one is built lazily."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def close(self) -> None:
        """Tear down the worker pool (the cache survives)."""
        self._discard_pool()

    def __enter__(self) -> "SimulationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass
