"""Outside-in layer trace: self time and work counters per pipeline layer.

The trace wraps each layer's entry points from the benchmark's side, so
the program under test is not modified.  A stack of open layers is kept;
every transition reads the monotonic clock once and charges the elapsed
interval to the layer on top, so each layer gets its *self* time and the
bottom of the stack (``other``) collects the time no layer claimed.
Garbage-collector pauses in the main thread are charged to a ``gc``
layer and also broken down by the layer they interrupted.

Wrappers are installed on the binding the caller actually uses:
``policy_compliance`` and ``nnls`` are imported by name into the modules
that call them, so those module attributes are replaced, not the
originals.
"""

from __future__ import annotations

import functools
import gc
import pickle
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Layers whose self time is reported as ``<layer>.busy_s``.
BUSY_LAYERS = ("engine", "compliance", "cluster", "scheduler", "measure", "impute")

#: Sub-layers reported under their own names (``<name>_s``).
NAMED_LAYERS = {
    "measure.feeds": "measure.feeds_s",
    "measure.traceroute": "measure.traceroute_s",
    "measure.repair": "measure.repair_s",
    "measure.resolve": "measure.resolve_s",
    "attribute.build": "attribute.build_s",
    "attribute.solve": "attribute.solve_s",
    "pool": "pool.queue_wait_s",
}

#: Top-level layers GC pauses are broken down by (a pause inside a
#: sub-layer such as ``measure.repair`` counts for ``measure``).
GC_OWNERS = (
    "engine", "pool", "compliance", "cluster", "scheduler", "measure",
    "impute", "attribute", "other",
)

#: Counters that must repeat exactly between runs of one workload.
EXACT_COUNTERS = (
    "engine.configs_simulated",
    "engine.warm_starts",
    "engine.passes_saved",
    "engine.cache_hits",
    "pool.outcome_bytes",
    "pool.worker_failures",
    "compliance.calls",
    "compliance.ases_checked",
    "cluster.calls",
    "cluster.splits",
    "measure.traceroutes",
    "measure.bgp_paths",
    "measure.dropped",
    "measure.gap_index_entries",
    "attribute.rows",
    "attribute.cols",
)


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


class LayerTrace:
    """Per-layer self time, counters and GC pauses over one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.gc_by_layer: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.residual = 0.0
        self.gen2_collections = 0
        self.active = False
        self._stack: List[str] = ["other"]
        self._mark = 0.0
        self._main = threading.get_ident()
        self._patches: List[tuple] = []
        self._pool_outcomes: List[object] = []

    # -- clock ---------------------------------------------------------

    def _charge(self) -> float:
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        return now

    def _enter(self, layer: str) -> float:
        now = self._charge()
        self._stack.append(layer)
        return now

    def _exit(self) -> float:
        now = self._charge()
        self._stack.pop()
        return now

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if not self.active or threading.get_ident() != self._main:
            return
        if phase == "start":
            self._enter("gc")
            return
        if self._stack[-1] != "gc":
            return  # the collection began before the trace started
        under = self._stack[-2]
        start = self._mark
        now = self._exit()
        self.gc_by_layer[under.split(".", 1)[0]] += now - start
        if info.get("generation") == 2:
            self.gen2_collections += 1

    def start(self) -> None:
        """Begin charging time (call right before the measured work)."""
        gc.callbacks.append(self._on_gc)
        self._mark = time.perf_counter()
        self.active = True

    def stop(self) -> None:
        """Stop charging time; later calls into wrapped layers run bare."""
        self._charge()
        self.active = False
        gc.callbacks.remove(self._on_gc)

    # -- wrappers ------------------------------------------------------

    def wrap(
        self,
        owner: object,
        name: str,
        layer: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.name`` by a wrapper charging its time to ``layer``.

        ``before(args)`` runs just before the call and its value is handed
        to ``after(args, result, seconds, token, nested)``, which runs
        after it; ``nested`` is true when ``layer`` was already open
        (re-entrant calls, e.g. ``simulate`` inside ``simulate_many``).
        """
        original = getattr(owner, name)
        trace = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not trace.active:
                return original(*args, **kwargs)
            nested = layer in trace._stack
            token = before(args) if before is not None and not nested else None
            start = trace._enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                end = trace._exit()
            if after is not None:
                after(args, result, end - start, token, nested)
            return result

        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def unwrap(self) -> None:
        """Restore every wrapped binding."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the entry points of every layer of the pipeline."""
        import repro.analysis.figures as figures
        import repro.analysis.headline as headline
        import repro.core.localization as localization
        import repro.measurement.campaign as campaign
        from repro.core.clustering import ClusterState
        from repro.core.engine import SimulationEngine
        from repro.core.localization import SpoofLocalizer
        from repro.core.scheduler import GreedyScheduler
        from repro.measurement.atlas import AtlasProbeFleet
        from repro.measurement.catchment import CatchmentHistory
        from repro.measurement.collectors import BGPCollectorSet

        count = self.counters

        def engine_before(args):
            return args[0].stats.copy()

        def engine_after(args, result, seconds, before, nested):
            if nested:
                return
            engine = args[0]
            delta = engine.stats.since(before)
            count["engine.configs_simulated"] += delta.configs_simulated
            count["engine.warm_starts"] += delta.warm_starts
            count["engine.passes_saved"] += delta.passes_saved
            count["engine.cache_hits"] += delta.cache_hits
            count["pool.worker_failures"] += delta.worker_failures
            if engine.workers > 1:
                self._pool_outcomes.extend(result)

        self.wrap(
            SimulationEngine, "simulate_many", "engine",
            before=engine_before, after=engine_after,
        )
        self.wrap(SimulationEngine, "_next_result", "pool")

        def compliance_after(args, result, seconds, token, nested):
            count["compliance.calls"] += 1
            count["compliance.ases_checked"] += result.ases_checked
            self.samples["compliance"].append(seconds)

        self.wrap(figures, "policy_compliance", "compliance", after=compliance_after)

        def cluster_after(args, result, seconds, token, nested):
            count["cluster.calls"] += 1
            count["cluster.splits"] += result

        self.wrap(ClusterState, "refine_with_catchments", "cluster", after=cluster_after)

        self.wrap(headline, "random_schedule_curves", "scheduler")
        self.wrap(GreedyScheduler, "run", "scheduler")

        def measure_after(args, result, seconds, token, nested):
            count["measure.traceroutes"] += result.traceroutes_observed
            count["measure.bgp_paths"] += result.bgp_paths_observed
            count["measure.dropped"] += sum(result.traceroutes_dropped.values())
            self.samples["measure"].append(seconds)

        self.wrap(
            campaign.MeasurementCampaign, "measure", "measure", after=measure_after
        )
        self.wrap(BGPCollectorSet, "observe", "measure.feeds")
        self.wrap(AtlasProbeFleet, "all_traceroutes", "measure.traceroute")

        def gap_after(args, result, seconds, token, nested):
            count["measure.gap_index_entries"] += len(result)

        self.wrap(campaign, "build_gap_index", "measure.repair", after=gap_after)
        self.wrap(campaign, "build_bgp_segment_index", "measure.repair")
        self.wrap(campaign, "as_path_with_reason", "measure.repair")
        self.wrap(campaign, "resolve_observations", "measure.resolve")

        for method in ("add", "imputed_assignments", "catchment_maps"):
            self.wrap(CatchmentHistory, method, "impute")

        def nnls_after(args, result, seconds, token, nested):
            rows, cols = args[0].shape
            count["attribute.rows"] += rows
            count["attribute.cols"] += cols
            self.residual += float(result[1])

        self.wrap(SpoofLocalizer, "localize", "attribute.build")
        self.wrap(localization, "nnls", "attribute.solve", after=nnls_after)

    # -- report --------------------------------------------------------

    def outcome_bytes(self) -> int:
        """Pickled size of the outcomes the worker pool returned."""
        unique = {id(outcome): outcome for outcome in self._pool_outcomes}
        return sum(
            len(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
            for outcome in unique.values()
        )

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric, by name (run after :meth:`stop`)."""
        out: Dict[str, float] = {}
        for layer in BUSY_LAYERS:
            out[f"{layer}.busy_s"] = self.self_s.get(layer, 0.0)
        for layer, name in NAMED_LAYERS.items():
            out[name] = self.self_s.get(layer, 0.0)
        out["other_s"] = self.self_s.get("other", 0.0)
        out["gc.pause_s"] = self.self_s.get("gc", 0.0)
        out["gc.gen2_collections"] = self.gen2_collections
        for layer in GC_OWNERS:
            out[f"gc.{layer}_pause_s"] = self.gc_by_layer.get(layer, 0.0)
        for name in EXACT_COUNTERS:
            out[name] = self.counters.get(name, 0)
        out["pool.outcome_bytes"] = self.outcome_bytes()
        for layer, unit in (("compliance", "per_call"), ("measure", "per_config")):
            samples = self.samples.get(layer, [])
            out[f"{layer}.{unit}_p50_ms"] = percentile(samples, 0.50) * 1e3
            out[f"{layer}.{unit}_p95_ms"] = percentile(samples, 0.95) * 1e3
        out["attribute.residual"] = self.residual
        return out

    def accounted_s(self) -> float:
        """Sum of every charged interval (layers, GC and ``other``)."""
        return sum(self.self_s.values())

