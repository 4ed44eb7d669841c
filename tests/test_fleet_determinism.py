"""Fleet determinism suite (ISSUE 7 satellite).

Same seed + same spec must yield byte-identical per-shard attributions
no matter how the shards interleave: admission bounds of 1 / 2 / 8 over
an 8-shard campaign, quotas, staggered launches, and with one shard
killed and resumed from its checkpoint mid-replay.
"""

import os
import subprocess
import sys
import textwrap
import dataclasses

import pytest

from repro.fleet import (
    CRASH,
    DONE,
    FleetEvent,
    FleetRuntime,
    FleetSpec,
    scripted_stream,
)
from repro.topology.generator import TopologyParams

#: 4 tenants x 2 attacks = 8 shards, small enough to replay quickly.
EIGHT_SHARD_SPEC = FleetSpec(
    seed=11,
    tenants=4,
    attacks_per_tenant=2,
    max_configs=3,
    num_sources=6,
    num_links=5,
    num_vantages=12,
    num_probes=40,
    checkpoint_every=2,
    topology_params=TopologyParams(
        num_tier1=4, num_transit=24, num_stub=90, seed=1
    ),
)

#: The shard the crash scenarios kill mid-replay.
VICTIM = ("tenant-02", "198.18.2.8/29")


def run_fleet(spec, tmp_path, events=None, **kwargs):
    runtime = FleetRuntime(
        spec, events=events, checkpoint_dir=str(tmp_path), **kwargs
    )
    try:
        return runtime.run()
    finally:
        runtime.close()


def attributions(report):
    """(key -> attribution digest), asserting every shard finished."""
    for shard in report.shards:
        assert shard.state == DONE, (shard.key, shard.state, shard.error)
        assert shard.attribution_digest
    return {shard.key: shard.attribution_digest for shard in report.shards}


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The unbounded, uncrashed 8-shard campaign."""
    tmp = tmp_path_factory.mktemp("fleet-baseline")
    return run_fleet(EIGHT_SHARD_SPEC, tmp)


class TestInterleavingInvariance:
    @pytest.mark.parametrize("max_active", [1, 2, 8])
    def test_admission_bound_never_changes_attributions(
        self, baseline, tmp_path, max_active
    ):
        spec = dataclasses.replace(EIGHT_SHARD_SPEC, max_active=max_active)
        report = run_fleet(spec, tmp_path)
        assert attributions(report) == attributions(baseline)
        assert report.digest == baseline.digest

    def test_quotas_change_order_not_results(self, baseline, tmp_path):
        spec = dataclasses.replace(
            EIGHT_SHARD_SPEC,
            quotas=(("tenant-00", 4.0), ("tenant-03", 0.25)),
        )
        report = run_fleet(spec, tmp_path)
        assert attributions(report) == attributions(baseline)

    def test_staggered_launches_change_order_not_results(
        self, baseline, tmp_path
    ):
        spec = dataclasses.replace(
            EIGHT_SHARD_SPEC, launch_stagger_minutes=40.0
        )
        report = run_fleet(spec, tmp_path)
        assert attributions(report) == attributions(baseline)


class TestCrashResumeInvariance:
    def crash_events(self, spec):
        return scripted_stream(
            spec,
            [
                FleetEvent(
                    minute=120.0,
                    action=CRASH,
                    tenant=VICTIM[0],
                    prefix=VICTIM[1],
                )
            ],
        )

    def test_killed_shard_resumes_to_identical_attribution(
        self, baseline, tmp_path
    ):
        report = run_fleet(
            EIGHT_SHARD_SPEC,
            tmp_path,
            events=self.crash_events(EIGHT_SHARD_SPEC),
        )
        by_key = {shard.key: shard for shard in report.shards}
        victim = by_key[VICTIM]
        assert victim.crashes == 1
        assert victim.resumes == 1
        assert victim.error == "killed by fleet event"
        # The kill + checkpoint resume is invisible in the evidence:
        # attributions AND final checkpoint bytes match the quiet run.
        assert attributions(report) == attributions(baseline)
        assert report.digest == baseline.digest
        assert report.crashes == 1 and report.resumes == 1

    def test_crash_under_admission_pressure(self, baseline, tmp_path):
        spec = dataclasses.replace(EIGHT_SHARD_SPEC, max_active=2)
        report = run_fleet(spec, tmp_path, events=self.crash_events(spec))
        assert attributions(report) == attributions(baseline)

    def test_crash_without_checkpoints_restarts_from_scratch(
        self, baseline, tmp_path
    ):
        # No checkpoint directory: the resumed shard replays from minute
        # zero — slower, but stateless seeding lands it on the same final
        # attribution (checkpoint digests are empty, so compare those).
        spec = dataclasses.replace(EIGHT_SHARD_SPEC, checkpoint_every=0)
        runtime = FleetRuntime(spec, events=self.crash_events(spec))
        try:
            report = runtime.run()
        finally:
            runtime.close()
        by_key = {shard.key: shard for shard in report.shards}
        assert by_key[VICTIM].resumes == 1
        assert by_key[VICTIM].checkpoint_digest == ""
        assert attributions(report) == attributions(baseline)


class TestHashSeedInvariance:
    """Digests must not depend on the interpreter's string hash seed.

    LinkIds are strings; a dict built by iterating a frozenset of them
    inherits hash-randomized insertion order, and any float sum over
    that dict then drifts at the last ulp — enough to flip NNLS ties and
    reorder zero-volume clusters between *processes*.  Same-process
    comparisons (everything else in this suite) can never catch that, so
    this test replays one scenario in two subprocesses pinned to
    different PYTHONHASHSEEDs and compares full-precision attributions.
    """

    PROBE = textwrap.dedent(
        """
        from dataclasses import replace

        from repro.cli import SCALES
        from repro.fleet import FleetSpec, attribution_digest
        from repro.live import LiveTracebackService

        spec = FleetSpec(
            seed=2,
            tenants=1,
            attacks_per_tenant=2,
            max_configs=3,
            num_sources=6,
            topology_params=replace(SCALES["small"], seed=2),
        )
        # The *second* derived scenario is the historical offender: its
        # final ranking carried zero-volume ties that hash-seed-ordered
        # catchment dicts used to break differently per process.
        attack = spec.attacks()[1]
        testbed = spec.tenant_testbed(attack.tenant).build()
        service = LiveTracebackService(
            scenario=attack.scenario, spec=attack.testbed, testbed=testbed
        )
        report = service.run()
        service.close()
        print(attribution_digest(report))
        ranked = report.localization.ranked
        for cluster in ranked:
            print(repr(cluster.estimated_volume), sorted(cluster.members))
        """
    )

    def run_probe(self, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(
            env.get("PYTHONPATH")
        ) + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_attribution_identical_across_hash_seeds(self):
        assert self.run_probe("11") == self.run_probe("22")
