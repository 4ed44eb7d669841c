"""Run one benchmark workload in this interpreter and print one JSON line.

Usage (normally spawned by ``run.py``, one fresh interpreter per run)::

    python3 perfbench/workload.py --workload paper-headline --trace 0

The interpreter's ``PYTHONHASHSEED`` is part of the run's inputs; it is
echoed in the result.  Steps:

1. build the testbed ``SETUP_BUILDS`` times, paced ``SETUP_GAP_S``
   apart, and keep the last build;
2. run the workload once from the built testbed to its answer
   (``run_s``, ``cpu_s``, ``peak_rss_mb``), with the layer trace armed
   when ``--trace 1``;
3. build the testbed ``SETUP_BUILDS`` more times the same way;
   ``setup_s`` is the median of all builds;
4. check the answer and digest it, untimed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import EXACT_COUNTERS, LayerTrace  # noqa: E402  (sibling module)

#: Testbed builds before and again after the run.  Host speed on a
#: shared machine shifts within a fraction of a second, so the builds are
#: paced apart and taken on both sides of the run: their median then
#: reflects the same stretch of time ``run_s`` does.
SETUP_BUILDS = 6
SETUP_GAP_S = 0.25

#: name -> scale, testbed seed, and (for tracker workloads) the run knobs.
WORKLOADS: Dict[str, Dict] = {
    "paper-headline": {"scale": "paper", "seed": 1},
    "measured-track": {
        "scale": "small", "seed": 0, "measured": True, "workers": 1,
        "distribution": "uniform", "sources": 10,
    },
    "paper-track-w2": {
        "scale": "paper", "seed": 1, "measured": False, "workers": 2,
        "distribution": "pareto", "sources": 50,
    },
}

#: The headline placement used to score the final partition (see
#: ``score_partition``): the same draw as ``paper-track-w2``.
HEADLINE_PLACEMENT = ("pareto", 50)


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def make_placement_for(testbed, seed: int, distribution: str, sources: int):
    """The CLI's placement draw (``spooftrack track``/``profile``)."""
    from repro.spoof.sources import make_placement

    rng = random.Random(seed + 1)
    candidates = sorted(testbed.topology.stubs or testbed.graph.ases)
    return make_placement(distribution, candidates, sources, rng)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def partition_failures(
    universe: FrozenSet[int], clusters: Sequence[FrozenSet[int]]
) -> List[str]:
    """Clusters must be disjoint and cover the universe exactly."""
    seen: set = set()
    overlap = 0
    for cluster in clusters:
        overlap += len(seen & cluster)
        seen |= cluster
    failures = []
    if overlap:
        failures.append(f"partition: {overlap} ASes in more than one cluster")
    if seen != set(universe):
        failures.append(
            f"partition: covers {len(seen)} ASes, universe has {len(universe)}"
        )
    return failures


def monotone_failures(counts: Sequence[int]) -> List[str]:
    """Per-step cluster counts never decrease."""
    drops = sum(1 for a, b in zip(counts, counts[1:]) if b < a)
    return [f"refinement: cluster count fell at {drops} steps"] if drops else []


def reference_headline() -> Dict[str, str]:
    """Seed-1 paper-scale table from EXPERIMENTS.md, keyed by row name."""
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text.split("## Paper-scale headline run", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] not in ("Result", "") and "---" not in cells[0]:
            rows[normalize(cells[0])] = normalize(cells[2])
    return rows


def normalize(text: str) -> str:
    """Case- and thousands-separator-insensitive form of a table cell."""
    return re.sub(r"(?<=\d),(?=\d{3})", "", text).lower()


def headline_failures(metrics) -> List[str]:
    """Every rendered headline row must match the EXPERIMENTS.md reference."""
    reference = reference_headline()
    rendered = {normalize(m.name): normalize(m.measured) for m in metrics}
    failures = []
    if set(rendered) != set(reference):
        failures.append(
            f"headline: rows {sorted(rendered)} vs reference {sorted(reference)}"
        )
    for name, value in rendered.items():
        if name in reference and reference[name] != value:
            failures.append(f"headline: {name!r} is {value!r}, reference {reference[name]!r}")
    return failures


def score_partition(clusters: Iterable[FrozenSet[int]], placement) -> Dict[str, float]:
    """Recall/precision an exact attribution would reach on ``clusters``.

    The suspect set is every cluster holding a true source, which is what
    noiseless NNLS pins down when the volume system is fully determined.
    """
    sources = placement.spoofing_ases
    suspects = set()
    for cluster in clusters:
        if cluster & sources:
            suspects |= cluster
    found = len(sources & suspects)
    return {
        "recall": found / len(sources),
        "precision": found / len(suspects) if suspects else 0.0,
    }


def digest(payload) -> str:
    """Stable SHA-256 of a JSON-serialisable answer."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def sorted_clusters(clusters: Iterable[FrozenSet[int]]) -> List[List[int]]:
    return sorted(sorted(cluster) for cluster in clusters)


# ----------------------------------------------------------------------
# Workloads: run() is timed, finish() is not
# ----------------------------------------------------------------------


class Headline:
    """``spooftrack --seed 1 --scale paper headline``."""

    def __init__(self, testbed, spec: Dict) -> None:
        self.testbed = testbed
        self.spec = spec
        self.placement = make_placement_for(testbed, spec["seed"], *HEADLINE_PLACEMENT)

    def run(self) -> None:
        from repro.analysis.figures import EvaluationRun
        from repro.analysis.headline import headline_metrics

        self.evaluation = EvaluationRun(testbed=self.testbed, seed=self.spec["seed"])
        self.metrics = headline_metrics(self.evaluation)
        self.evaluation.engine.close()

    def finish(self) -> Dict:
        from repro.analysis.headline import render_headline
        from repro.core.clustering import ClusterState

        run = self.evaluation
        state = ClusterState(run.universe)
        counts = []
        for catchments in run.catchment_history:
            state.refine_with_catchments(catchments)
            counts.append(state.num_clusters())
        clusters = state.clusters()
        failures = headline_failures(self.metrics)
        failures += partition_failures(run.universe, clusters)
        failures += monotone_failures(counts)
        table = render_headline(self.metrics)
        stats = run.engine.stats
        return {
            "mean_cluster_size": len(run.universe) / len(clusters),
            **score_partition(clusters, self.placement),
            "engine": stats,
            "failures": failures,
            "answer": {
                "table": table,
                "clusters": sorted_clusters(clusters),
                "counts": counts,
            },
        }


class Track:
    """``spooftrack track`` / ``profile`` with a multi-source placement."""

    def __init__(self, testbed, spec: Dict) -> None:
        self.testbed = testbed
        self.spec = spec
        self.placement = make_placement_for(
            testbed, spec["seed"], spec["distribution"], spec["sources"]
        )

    def run(self) -> None:
        from repro.core.pipeline import SpoofTracker

        tracker = SpoofTracker(self.testbed, workers=self.spec["workers"])
        try:
            self.report = tracker.run(
                placement=self.placement, measured=self.spec["measured"]
            )
        finally:
            tracker.engine.close()

    def finish(self) -> Dict:
        report = self.report
        failures = partition_failures(report.universe, report.clusters)
        failures += monotone_failures([step.num_clusters for step in report.steps])
        localization = report.localization
        negative = sum(1 for c in localization.ranked if c.estimated_volume < 0)
        if negative:
            failures.append(f"attribution: {negative} clusters with negative volume")
        quality = localization.evaluate_against(self.placement)
        return {
            "mean_cluster_size": report.mean_cluster_size,
            "recall": quality.recall,
            "precision": quality.precision,
            "engine": report.engine_stats,
            "failures": failures,
            "answer": {
                "steps": [
                    [s.config_label, s.num_clusters, repr(s.mean_cluster_size),
                     repr(s.p90_cluster_size)]
                    for s in report.steps
                ],
                "clusters": sorted_clusters(report.clusters),
                "ranked": [
                    [sorted(c.members), repr(c.estimated_volume)]
                    for c in localization.ranked
                ],
                "residual": repr(localization.residual),
            },
        }


def run_workload(name: str, traced: bool) -> Dict:
    from repro.cli import SCALES
    from repro.core.pipeline import build_testbed

    spec = WORKLOADS[name]
    params = replace(SCALES[spec["scale"]], seed=spec["seed"])
    setups: List[float] = []

    def build():
        testbed = None
        for _ in range(SETUP_BUILDS):
            testbed = None  # release the previous build before timing the next
            time.sleep(SETUP_GAP_S)
            start = time.perf_counter()
            testbed = build_testbed(seed=spec["seed"], topology_params=params)
            setups.append(time.perf_counter() - start)
        return testbed

    testbed = build()
    workload = (Headline if name == "paper-headline" else Track)(testbed, spec)

    trace = LayerTrace() if traced else None
    if trace is not None:
        trace.install()
    cpu_before = cpu_seconds()
    start = time.perf_counter()
    if trace is not None:
        trace.start()
    workload.run()
    if trace is not None:
        trace.stop()
    run_s = time.perf_counter() - start
    cpu_s = cpu_seconds() - cpu_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    build()

    result = workload.finish()
    stats = result.pop("engine")
    counters = {
        "engine.configs_simulated": stats.configs_simulated,
        "engine.warm_starts": stats.warm_starts,
        "engine.passes_saved": stats.passes_saved,
        "engine.cache_hits": stats.cache_hits,
        "pool.worker_failures": stats.worker_failures,
    }
    layers = None
    if trace is not None:
        layers = trace.metrics()
        counters = {name: layers[name] for name in EXACT_COUNTERS}
        layers["trace.run_s"] = run_s
        layers["trace.accounted_s"] = trace.accounted_s()
        trace.unwrap()
    answer = result.pop("answer")
    return {
        "workload": name,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "setup_s": setups,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "counters": counters,
        "layers": layers,
        "digest": digest(answer),
        **result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run_workload(args.workload, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
