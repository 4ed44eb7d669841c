"""Cross-process trace propagation + flight-dump determinism (ISSUE 10).

Two halves of the tentpole contract:

* span identity is pure structure, so the grafted span tree — and its
  :func:`span_tree_signature` — is identical at any worker count; and
* flight bundles capture only the deterministic projection, so the same
  seeded kill scenario dumps byte-identical black boxes across
  interpreter hash seeds and across replays, and its reconstructed
  timeline digest is a replay invariant.
"""

import hashlib
import os
import subprocess
import sys
import textwrap

from repro.fleet import (
    CRASH,
    FleetEvent,
    FleetRuntime,
    FleetSpec,
    scripted_stream,
)
from repro.core.pipeline import SpoofTracker
from repro.obs import (
    Observability,
    Span,
    Tracer,
    build_timeline,
    load_spans,
    span_tree_signature,
)
from repro.topology.generator import TopologyParams

#: 2 tenants x 1 attack: the smallest fleet where a kill is observable.
TWO_SHARD_SPEC = FleetSpec(
    seed=11,
    tenants=2,
    attacks_per_tenant=1,
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

#: The shard every kill scenario here targets.
VICTIM = ("tenant-00", "198.18.0.0/29")


def crash_events(spec):
    return scripted_stream(
        spec,
        [
            FleetEvent(
                minute=120.0, action=CRASH,
                tenant=VICTIM[0], prefix=VICTIM[1],
            )
        ],
    )


def run_crashed_fleet(tmp_path):
    """Run the kill scenario; returns the fleet report.

    ``tmp_path`` gets ``ckpt/`` and ``flight/`` subdirectories.
    """
    runtime = FleetRuntime(
        TWO_SHARD_SPEC,
        events=crash_events(TWO_SHARD_SPEC),
        checkpoint_dir=str(tmp_path / "ckpt"),
        flight_dir=str(tmp_path / "flight"),
    )
    try:
        return runtime.run()
    finally:
        runtime.close()


def bundle_hashes(flight_dir):
    """Sorted (filename, sha256-of-bytes) for every bundle in a dir."""
    hashes = []
    for name in sorted(os.listdir(flight_dir)):
        if name.startswith("flight-") and name.endswith(".json"):
            with open(os.path.join(flight_dir, name), "rb") as handle:
                hashes.append(
                    (name, hashlib.sha256(handle.read()).hexdigest())
                )
    return hashes


class TestTraceContext:
    def test_child_record_matches_serial_span_identity(self):
        """A record minted via TraceContext is exactly the span the
        ``with`` path would have opened."""
        serial = Tracer("track")
        with serial.span("engine"):
            with serial.span("simulate", config=0):
                pass
        remote = Tracer("track")
        with remote.span("engine"):
            record = remote.context().child_record(
                "simulate", 0, attrs={"config": 0}
            )
        simulate = next(
            span for span in serial.finished if span.name == "simulate"
        )
        assert record["span_id"] == simulate.span_id
        assert record["parent_id"] == simulate.parent_id

    def test_graft_notifies_listeners_and_preserves_signature(self):
        tracer = Tracer("track")
        seen = []
        tracer.listeners.append(lambda record: seen.append(record["name"]))
        with tracer.span("engine"):
            ctx = tracer.context()
        tracer.graft([ctx.child_record("simulate", i) for i in range(2)])
        tracer.finish()
        assert seen == ["engine", "simulate", "simulate", "track"]
        serial = Tracer("track")
        with serial.span("engine"):
            with serial.span("simulate"):
                pass
            with serial.span("simulate"):
                pass
        serial.finish()
        assert span_tree_signature(tracer.records()) == span_tree_signature(
            serial.records()
        )


class TestWorkerCountInvariance:
    def _run(self, testbed, workers):
        obs = Observability.for_run("track")
        tracker = SpoofTracker(testbed, workers=workers, obs=obs)
        try:
            tracker.run(max_configs=10)
        finally:
            tracker.engine.close()
        obs.tracer.finish()
        return obs

    def test_span_signature_identical_workers_1_vs_4(
        self, small_testbed, tmp_path
    ):
        serial = self._run(small_testbed, workers=1)
        fanned = self._run(small_testbed, workers=4)
        signature = span_tree_signature(serial.tracer.records())
        assert signature == span_tree_signature(fanned.tracer.records())
        # The signature survives the JSONL round trip (what the CLI
        # writes is what `spooftrack timeline --trace` reads back).
        path = str(tmp_path / "trace.jsonl")
        fanned.tracer.write_jsonl(path)
        assert span_tree_signature(load_spans(path)) == signature

    def test_worker_spans_graft_under_engine_parent(self, small_testbed):
        obs = self._run(small_testbed, workers=4)
        spans = obs.tracer.records()
        by_id = {span["span_id"]: span for span in spans}
        workers = [
            span for span in spans
            if span["name"] in ("simulate", "warm_start")
            and by_id.get(span["parent_id"], {}).get("name") == "engine_batch"
        ]
        assert workers  # remote-minted spans landed in the grafted tree
        for span in workers:
            assert span["parent_id"] in by_id  # no orphaned worker spans


class TestFlightDumpDeterminism:
    def test_kill_produces_bundle_and_stable_timeline(self, tmp_path):
        report = run_crashed_fleet(tmp_path)
        by_key = {shard.key: shard for shard in report.shards}
        assert by_key[VICTIM].crashes == 1 and by_key[VICTIM].resumes == 1
        hashes = bundle_hashes(tmp_path / "flight")
        assert any("kill" in name for name, _ in hashes)
        # Reconstruction is deterministic: two reads, one digest.
        timeline = build_timeline(
            flight_dir=str(tmp_path / "flight"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        again = build_timeline(
            flight_dir=str(tmp_path / "flight"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert len(timeline) > 0
        assert timeline.digest() == again.digest()

    def test_replays_dump_identical_bundles_and_timelines(self, tmp_path):
        run_crashed_fleet(tmp_path / "a")
        run_crashed_fleet(tmp_path / "b")
        assert bundle_hashes(tmp_path / "a" / "flight") == bundle_hashes(
            tmp_path / "b" / "flight"
        )
        digests = [
            build_timeline(
                flight_dir=str(tmp_path / run / "flight"),
                checkpoint_dir=str(tmp_path / run / "ckpt"),
            ).digest()
            for run in ("a", "b")
        ]
        assert digests[0] == digests[1]


class TestHashSeedInvariance:
    """Bundles must not depend on the interpreter's string hash seed.

    Ring entries pass through dicts keyed by strings; canonical JSON
    (sort_keys) is what keeps the bundle bytes seed-independent.  Only a
    subprocess pinned to a different PYTHONHASHSEED can prove it.
    """

    PROBE = textwrap.dedent(
        """
        import hashlib, os, sys, tempfile

        from repro.fleet import (
            CRASH, FleetEvent, FleetRuntime, FleetSpec, scripted_stream,
        )
        from repro.obs import build_timeline
        from repro.topology.generator import TopologyParams

        spec = FleetSpec(
            seed=11, tenants=2, attacks_per_tenant=1, max_configs=3,
            num_sources=6, num_links=5, num_vantages=12, num_probes=40,
            checkpoint_every=2,
            topology_params=TopologyParams(
                num_tier1=4, num_transit=24, num_stub=90, seed=1
            ),
        )
        events = scripted_stream(spec, [
            FleetEvent(minute=120.0, action=CRASH,
                       tenant="tenant-00", prefix="198.18.0.0/29"),
        ])
        base = tempfile.mkdtemp()
        flight_dir = os.path.join(base, "flight")
        runtime = FleetRuntime(
            spec, events=events,
            checkpoint_dir=os.path.join(base, "ckpt"),
            flight_dir=flight_dir,
        )
        try:
            runtime.run()
        finally:
            runtime.close()
        for name in sorted(os.listdir(flight_dir)):
            with open(os.path.join(flight_dir, name), "rb") as handle:
                print(name, hashlib.sha256(handle.read()).hexdigest())
        print("timeline", build_timeline(flight_dir=flight_dir).digest())
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

    def test_bundles_identical_across_hash_seeds(self):
        first = self.run_probe("11")
        second = self.run_probe("22")
        assert "kill" in first
        assert first == second
