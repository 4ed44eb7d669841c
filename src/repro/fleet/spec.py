"""Fleet specifications: tenants, attacks, and their seeded derivation.

A fleet replay is described the same way a single live replay is — as a
frozen, fully seeded value — so the whole multi-tenant campaign is
deterministic end to end.  :class:`FleetSpec` is the campaign recipe
(how many tenants, how many concurrent attacks each, per-attack replay
shape); :meth:`FleetSpec.attacks` expands it into concrete
:class:`AttackSpec` s with *derived* seeds: each shard's scenario seed is
a stable hash of ``(fleet seed, tenant, prefix)``, so adding a tenant or
an attack never perturbs the traffic of the others.

Tenants model distinct origin networks (the provider serves many victim
networks at once); each tenant gets its own
:class:`~repro.core.pipeline.TestbedSpec` and therefore its own
topology, origin, schedule, and simulation engine.  Attacks within one
tenant share all of that — which is exactly why the fleet runtime shares
one engine per tenant across its shards.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core.pipeline import TestbedSpec
from ..errors import FleetError
from ..live.service import ReplayScenario
from ..spoof.sources import PLACEMENT_DISTRIBUTIONS
from ..topology.generator import TopologyParams

#: A shard's identity within the fleet.
ShardKey = Tuple[str, str]


def derive_seed(fleet_seed: int, tenant: str, prefix: str) -> int:
    """Stable per-shard seed: SHA-256 of the fleet seed and shard key.

    Independent of tenant/attack *counts*, so growing the fleet leaves
    existing shards' traffic byte-identical.
    """
    digest = hashlib.sha256(
        f"{fleet_seed}\x00{tenant}\x00{prefix}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


def derive_tenant_seed(fleet_seed: int, tenant: str) -> int:
    """Stable per-tenant testbed seed (one origin network per tenant)."""
    digest = hashlib.sha256(
        f"testbed\x00{fleet_seed}\x00{tenant}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") % (2**31)


@dataclass(frozen=True)
class AttackSpec:
    """One attack against one tenant: a shard of the fleet.

    Attributes:
        tenant: tenant (origin network) identifier.
        prefix: the attacked prefix — unique per tenant; together with
            the tenant it keys the shard, its checkpoints, and its
            metrics labels.
        scenario: the fully seeded replay the shard drives.
        testbed: the tenant's testbed recipe (shared by sibling shards).
        launch_minute: fleet-stream timestamp at which this attack
            starts (the merged event stream is sorted by it).
    """

    tenant: str
    prefix: str
    scenario: ReplayScenario
    testbed: TestbedSpec
    launch_minute: float = 0.0

    def __post_init__(self) -> None:
        if not self.tenant or not self.prefix:
            raise FleetError("attacks need a tenant and a prefix")
        if self.launch_minute < 0:
            raise FleetError("launch_minute cannot be negative")

    @property
    def key(self) -> ShardKey:
        """The shard key ``(tenant, prefix)``."""
        return (self.tenant, self.prefix)

    @property
    def label(self) -> str:
        """Human-readable shard name (metrics ``attack`` label value)."""
        return f"{self.tenant}/{self.prefix}"


@dataclass(frozen=True)
class FleetSpec:
    """Frozen recipe for a whole multi-tenant, multi-attack campaign.

    Attributes:
        seed: fleet seed; every shard seed derives from it.
        tenants: number of tenant origin networks.
        attacks_per_tenant: concurrent attacks each tenant suffers.
        max_configs: per-shard announcement schedule truncation.
        num_sources: spoofing sources per attack.
        distribution: source placement distribution per attack.
        window_minutes: per-shard observation window length.
        batches_per_window / queue_capacity / nnls_stride: forwarded to
            each shard's :class:`~repro.live.service.ReplayScenario`.
        launch_stagger_minutes: attack launches are spread this many
            simulated minutes apart in the merged event stream (0 = all
            at once).
        checkpoint_every: per-shard periodic checkpoint cadence, in
            windows (0 = never; requires a checkpoint directory at run
            time — the runtime namespaces paths per shard).
        checkpoint_keep: rotated checkpoint generations retained per
            shard (``<path>.1..K``; the soak harness raises this so a
            corrupted primary still has intact history to roll back to).
        topology_params: per-tenant topology shape (seed is overridden
            per tenant); None = the generator's default.
        num_links / num_vantages / num_probes: per-tenant testbed
            sizing, forwarded to each tenant's
            :class:`~repro.core.pipeline.TestbedSpec` (size them down
            together with a small ``topology_params``).
        quotas: per-tenant fair-share weights for the scheduler
            (missing tenants default to weight 1.0).
        max_active: admission bound — at most this many shards hold live
            services at once (0 = unbounded).  Pending launches queue in
            fair-share order, which is the fleet's backpressure onto the
            ingest stream.
    """

    seed: int = 0
    tenants: int = 2
    attacks_per_tenant: int = 2
    max_configs: int = 6
    num_sources: int = 12
    distribution: str = "pareto"
    window_minutes: float = 20.0
    batches_per_window: int = 1
    queue_capacity: int = 64
    nnls_stride: int = 1
    launch_stagger_minutes: float = 0.0
    checkpoint_every: int = 0
    checkpoint_keep: int = 1
    topology_params: Optional[TopologyParams] = None
    num_links: int = 7
    num_vantages: int = 25
    num_probes: int = 120
    quotas: Tuple[Tuple[str, float], ...] = ()
    max_active: int = 0

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise FleetError("need at least one tenant")
        if self.attacks_per_tenant < 1:
            raise FleetError("need at least one attack per tenant")
        if self.distribution not in PLACEMENT_DISTRIBUTIONS:
            raise FleetError(
                f"unknown distribution {self.distribution!r}; expected one "
                f"of {sorted(PLACEMENT_DISTRIBUTIONS)}"
            )
        if self.max_active < 0:
            raise FleetError("max_active cannot be negative")
        if self.checkpoint_keep < 1:
            raise FleetError("checkpoint_keep must retain at least one copy")
        if self.launch_stagger_minutes < 0:
            raise FleetError("launch stagger cannot be negative")
        for tenant, weight in self.quotas:
            if weight <= 0:
                raise FleetError(f"tenant {tenant!r} quota must be positive")

    # -- derivation -----------------------------------------------------

    def tenant_names(self) -> List[str]:
        """Deterministic tenant identifiers (``tenant-00`` …)."""
        return [f"tenant-{index:02d}" for index in range(self.tenants)]

    def tenant_testbed(self, tenant: str) -> TestbedSpec:
        """The tenant's testbed recipe (its own origin network)."""
        seed = derive_tenant_seed(self.seed, tenant)
        params = self.topology_params
        if params is not None:
            params = replace(params, seed=seed)
        return TestbedSpec(
            seed=seed,
            topology_params=params,
            num_links=self.num_links,
            num_vantages=self.num_vantages,
            num_probes=self.num_probes,
        )

    def quota_weights(self) -> Dict[str, float]:
        """Per-tenant scheduler weights (1.0 where unspecified)."""
        weights = {tenant: 1.0 for tenant in self.tenant_names()}
        weights.update(dict(self.quotas))
        return weights

    def scenario_for(
        self, tenant: str, prefix: str, checkpoint_path: str = ""
    ) -> ReplayScenario:
        """The shard's fully seeded replay scenario."""
        return ReplayScenario(
            seed=derive_seed(self.seed, tenant, prefix),
            distribution=self.distribution,
            num_sources=self.num_sources,
            max_configs=self.max_configs,
            window_minutes=self.window_minutes,
            batches_per_window=self.batches_per_window,
            queue_capacity=self.queue_capacity,
            nnls_stride=self.nnls_stride,
            checkpoint_every=self.checkpoint_every if checkpoint_path else 0,
            checkpoint_path=checkpoint_path,
        )

    def attacks(self) -> List[AttackSpec]:
        """Expand into concrete attacks, sorted by launch time then key.

        Launches interleave across tenants (tenant 0 attack 0, tenant 1
        attack 0, …) so a stagger exercises cross-tenant concurrency
        rather than running tenants back to back.
        """
        testbeds = {
            tenant: self.tenant_testbed(tenant)
            for tenant in self.tenant_names()
        }
        attacks: List[AttackSpec] = []
        ordinal = 0
        for attack_index in range(self.attacks_per_tenant):
            for tenant_index, tenant in enumerate(self.tenant_names()):
                prefix = f"198.18.{tenant_index}.{attack_index * 8}/29"
                attacks.append(
                    AttackSpec(
                        tenant=tenant,
                        prefix=prefix,
                        scenario=self.scenario_for(tenant, prefix),
                        testbed=testbeds[tenant],
                        launch_minute=ordinal * self.launch_stagger_minutes,
                    )
                )
                ordinal += 1
        return attacks
