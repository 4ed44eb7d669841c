"""Targeted splitting of large clusters (paper §V-B future work).

The paper observes that large clusters sit far from the announcement
locations, where the base schedule's route perturbations wash out, and
proposes "targeted poisoning of distant ASes to induce route changes
specific to split these large distant clusters".

:class:`LargeClusterSplitter` implements that loop:

1. find clusters larger than a threshold,
2. for each, pick poisoning targets *specific to the cluster* — the
   upstream next-hop ASes its members currently route through (severing a
   member's exit forces that member, and usually only part of the
   cluster, onto a different catchment),
3. deploy the generated distant-poison configurations, refine, repeat
   until the clusters are small or the budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set

from ..bgp.announcement import AnnouncementConfig
from ..bgp.simulator import RoutingOutcome, RoutingSimulator
from ..errors import SimulationError
from ..topology.peering import OriginNetwork
from ..types import ASN, Catchment, LinkId
from .clustering import ClusterState
from .configgen import distant_poison_configs

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .engine import SimulationEngine


@dataclass(frozen=True)
class SplitSnapshot:
    """Cluster statistics right after one split configuration deployed.

    Captured inside the splitting loop, so consumers (the pipeline's
    per-step ``StepStats``) see the actual per-configuration progression
    rather than the final refined state repeated.
    """

    num_clusters: int
    mean_cluster_size: float
    p90_cluster_size: float


@dataclass
class SplitReport:
    """Outcome of one large-cluster splitting campaign.

    Attributes:
        configs_deployed: extra configurations actually simulated.
        rounds: refinement rounds executed.
        initial_sizes: large-cluster sizes before splitting.
        final_sizes: sizes of the descendants of those clusters after.
        catchment_history: catchments of the extra configurations (for
            feeding localization).
        snapshots: cluster statistics after each deployed configuration
            (parallel to ``configs_deployed``).
    """

    configs_deployed: List[AnnouncementConfig] = field(default_factory=list)
    rounds: int = 0
    initial_sizes: List[int] = field(default_factory=list)
    final_sizes: List[int] = field(default_factory=list)
    catchment_history: List[Dict[LinkId, Catchment]] = field(default_factory=list)
    snapshots: List[SplitSnapshot] = field(default_factory=list)

    @property
    def initial_max(self) -> int:
        """Largest targeted cluster before splitting."""
        return max(self.initial_sizes, default=0)

    @property
    def final_max(self) -> int:
        """Largest descendant cluster after splitting."""
        return max(self.final_sizes, default=0)


class LargeClusterSplitter:
    """Splits large clusters with cluster-specific poison targets.

    Args:
        simulator: routing simulator for the topology.
        origin: the announcing network.
        threshold: clusters strictly larger than this are targeted.
        max_targets_per_cluster: poison-target budget per cluster per round.
        use_absence_signal: also refine on the set of sources that *lose
            reachability* under a poisoned configuration.  A source with
            no route sends no traffic, so silence on all links is itself
            an observable catchment — this separates single-homed cones
            (e.g. a provider's exclusive customers) that plain catchment
            membership can never split.
        engine: optional :class:`~repro.core.engine.SimulationEngine` to
            simulate through.  Sharing the pipeline's engine means the
            splitter's baseline (the anycast-all configuration the
            schedule already deployed) is a cache hit, and split
            configurations seen in earlier rounds are never re-simulated.
    """

    def __init__(
        self,
        simulator: RoutingSimulator,
        origin: OriginNetwork,
        threshold: int = 5,
        max_targets_per_cluster: int = 3,
        use_absence_signal: bool = True,
        engine: Optional["SimulationEngine"] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if max_targets_per_cluster < 1:
            raise ValueError("need at least one target per cluster")
        self.simulator = simulator
        self.origin = origin
        self.threshold = threshold
        self.max_targets_per_cluster = max_targets_per_cluster
        self.use_absence_signal = use_absence_signal
        self.engine = engine

    def _simulate(self, config: AnnouncementConfig) -> RoutingOutcome:
        if self.engine is not None:
            return self.engine.simulate(config)
        return self.simulator.simulate(config)

    # ------------------------------------------------------------------

    def poison_targets_for_cluster(
        self, cluster: FrozenSet[ASN], outcome: RoutingOutcome
    ) -> List[ASN]:
        """Upstream next-hops of the cluster's members, most shared first.

        Severing a next-hop shared by *some but not all* members is what
        splits a cluster, so targets are ranked by how many members use
        them, excluding the origin's own providers (poisoning those just
        reproduces the base withdrawal configurations).
        """
        excluded: Set[ASN] = {self.origin.asn}
        excluded.update(link.provider for link in self.origin.links)
        usage: Dict[ASN, int] = {}
        for member in cluster:
            if outcome.catchment_of(member) is None:
                continue
            # Walk the first two upstream hops: severing either can split
            # the cluster — members pick different alternates, or (with
            # the absence signal) a poisoned member's single-homed cone
            # goes dark while the rest of the cluster stays reachable.
            for next_hop in outcome.forwarding_path(member)[1:3]:
                if next_hop in excluded:
                    continue
                usage[next_hop] = usage.get(next_hop, 0) + 1
        # Prefer targets used by *part* of the cluster (a sever splits it
        # directly); fully-shared targets still help because members then
        # choose different alternate routes.
        ranked = sorted(
            usage.items(),
            key=lambda item: (item[1] >= len(cluster), -item[1], item[0]),
        )
        return [target for target, _ in ranked[: self.max_targets_per_cluster]]

    def split(
        self,
        state: ClusterState,
        max_rounds: int = 3,
        max_configs: int = 30,
    ) -> SplitReport:
        """Run the splitting loop, refining ``state`` in place."""
        report = SplitReport()
        baseline = self._simulate(
            AnnouncementConfig(
                announced=frozenset(self.origin.link_ids),
                label="splitter-baseline",
            )
        )
        targeted_members: Set[ASN] = set()
        for cluster in state.clusters():
            if len(cluster) > self.threshold:
                report.initial_sizes.append(len(cluster))
                targeted_members |= cluster
        if not targeted_members:
            return report

        for _ in range(max_rounds):
            large = [c for c in state.clusters() if len(c) > self.threshold]
            if not large or len(report.configs_deployed) >= max_configs:
                break
            report.rounds += 1
            targets: List[ASN] = []
            for cluster in large:
                targets.extend(self.poison_targets_for_cluster(cluster, baseline))
            configs = distant_poison_configs(
                self.origin, self.simulator.graph, targets
            )
            budget = max_configs - len(report.configs_deployed)
            round_configs = configs[:budget]
            if self.engine is not None:
                outcomes = self.engine.simulate_many(round_configs)
            else:
                outcomes = [self.simulator.simulate(c) for c in round_configs]
            for config, outcome in zip(round_configs, outcomes):
                catchments = {
                    link: frozenset(members)
                    for link, members in outcome.catchments.items()
                }
                state.refine_with_catchments(catchments)
                if self.use_absence_signal:
                    unrouted = state.universe - outcome.covered_ases
                    state.refine(unrouted)
                report.configs_deployed.append(config)
                report.catchment_history.append(catchments)
                report.snapshots.append(
                    SplitSnapshot(
                        num_clusters=state.num_clusters(),
                        mean_cluster_size=state.mean_size(),
                        p90_cluster_size=state.size_percentile(90.0),
                    )
                )

        for cluster in state.clusters():
            if cluster & targeted_members:
                report.final_sizes.append(len(cluster))
        return report
