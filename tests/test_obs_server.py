"""Tests for the servable observability surface (bus, logbook, SLOs,
HTTP exporter, bench gate) added on top of repro.obs."""

import json
import math
import threading
import urllib.error
import urllib.request

import pytest

from repro.faults.injection import FaultLog
from repro.live import LiveTracebackService, ReplayScenario
from repro.obs import (
    DEFAULT_SLOS,
    EventBus,
    Logbook,
    MetricsRegistry,
    Observability,
    ObsServer,
    SloRule,
    SloWatchdog,
    Tracer,
    build_manifest,
    capture_environment,
    check_benchmarks,
    ensure_parent_dir,
    parse_prometheus,
    record_build_info,
    strip_measured,
    write_history,
)
from repro.obs.manifest import REDACTED


def _get(url: str, timeout: float = 10.0):
    """(status, body) of a GET, following the 503-body convention."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def _sse_events(body: str):
    """Parse SSE frames into event dicts."""
    events = []
    for frame in body.split("\n\n"):
        for line in frame.splitlines():
            if line.startswith("data: "):
                events.append(json.loads(line[len("data: "):]))
    return events


class TestEventBus:
    def test_publish_assigns_seq_and_kind(self):
        bus = EventBus()
        first = bus.publish("window", index=0)
        second = bus.publish("fault", fault_kind="worker_crash")
        assert first == {"seq": 0, "kind": "window", "index": 0}
        assert second["seq"] == 1
        assert bus.events_published == 2

    def test_subscriber_receives_live_events_in_order(self):
        bus = EventBus()
        subscription = bus.subscribe()
        bus.publish("a")
        bus.publish("b")
        assert subscription.get(timeout=1)["kind"] == "a"
        assert subscription.get(timeout=1)["kind"] == "b"

    def test_replay_delivers_history_before_live(self):
        bus = EventBus()
        bus.publish("early")
        subscription = bus.subscribe(replay=True)
        bus.publish("late")
        kinds = [subscription.get(timeout=1)["kind"] for _ in range(2)]
        assert kinds == ["early", "late"]

    def test_no_replay_skips_history(self):
        bus = EventBus()
        bus.publish("early")
        subscription = bus.subscribe(replay=False)
        bus.publish("late")
        assert subscription.get(timeout=1)["kind"] == "late"

    def test_close_ends_iteration(self):
        bus = EventBus()
        subscription = bus.subscribe()
        bus.publish("only")
        bus.close()
        assert [e["kind"] for e in subscription.events(timeout=1)] == ["only"]

    def test_history_is_bounded_and_drops_are_counted(self):
        bus = EventBus(history_limit=3)
        for index in range(5):
            bus.publish("tick", index=index)
        history = bus.history()
        assert [event["index"] for event in history] == [2, 3, 4]
        assert bus.events_dropped == 2

    def test_attached_listener_runs_synchronously(self):
        bus = EventBus()
        seen = []
        bus.attach(lambda event: seen.append(event["kind"]))
        bus.publish("x")
        assert seen == ["x"]

    def test_strip_measured_removes_only_seconds_fields(self):
        event = {"kind": "window", "duration_seconds": 0.5, "volume": 4.0}
        assert strip_measured(event) == {"kind": "window", "volume": 4.0}

    def test_rejects_negative_history_limit(self):
        with pytest.raises(ValueError):
            EventBus(history_limit=-1)


class TestLogbook:
    def test_human_mode_prints_bare_message(self, capsys):
        log = Logbook()
        log.info("wrote trace /tmp/t.jsonl", event="export")
        assert capsys.readouterr().err == "wrote trace /tmp/t.jsonl\n"

    def test_json_mode_prints_structured_record(self, capsys):
        log = Logbook(json_mode=True)
        log.warning("queue filling", event="ingest", depth=12)
        record = json.loads(capsys.readouterr().err)
        assert record == {
            "event": "ingest",
            "depth": 12,
            "level": "warning",
            "msg": "queue filling",
        }

    def test_threshold_suppresses_but_still_records(self, capsys):
        log = Logbook(level="warning")
        log.debug("noise")
        log.info("still noise")
        log.error("boom")
        assert capsys.readouterr().err == "boom\n"
        assert log.suppressed == 2
        assert [r.level for r in log.records] == ["debug", "info", "error"]

    def test_records_carry_open_span_id(self):
        tracer = Tracer("test")
        log = Logbook(tracer=tracer)
        with tracer.span("phase") as span:
            log.info("inside")
        log.info("outside")
        tracer.finish()
        log.info("after finish")
        assert log.records[0].span_id == span.span_id
        assert log.records[1].span_id == tracer.root.span_id
        assert log.records[2].span_id == ""

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            Logbook(level="loud")
        with pytest.raises(ValueError):
            Logbook().log("loud", "hm")


class TestSloWatchdog:
    def test_check_trips_counter_and_flips_ready(self):
        registry = MetricsRegistry()
        watchdog = SloWatchdog(registry=registry)
        assert watchdog.check("window_lag_seconds", 0.5)
        assert watchdog.ready
        assert not watchdog.check("window_lag_seconds", 6.0)
        assert not watchdog.ready
        totals = registry.counter_totals()
        assert totals['repro_slo_breached_total{slo="window_lag_seconds"}'] == 1

    def test_unknown_indicator_is_ignored(self):
        watchdog = SloWatchdog()
        assert watchdog.check("unheard_of", 1e9)
        assert watchdog.ready

    def test_window_event_feeds_lag_and_drop_rate(self):
        watchdog = SloWatchdog()
        watchdog.observe(
            {"kind": "window", "duration_seconds": 9.0,
             "offered_volume": 10.0, "dropped_volume": 5.0}
        )
        assert set(watchdog.breaches) == {
            "window_lag_seconds", "ingest_drop_rate"
        }

    def test_engine_batches_accumulate_error_rate(self):
        watchdog = SloWatchdog()
        watchdog.observe(
            {"kind": "engine_batch", "configs_requested": 10,
             "worker_failures": 0}
        )
        assert watchdog.ready
        watchdog.observe(
            {"kind": "engine_batch", "configs_requested": 10,
             "worker_failures": 9}
        )
        assert "worker_error_rate" in watchdog.breaches

    def test_pipeline_event_feeds_degraded_fraction(self):
        watchdog = SloWatchdog()
        watchdog.observe({"kind": "pipeline", "steps": 4, "degraded_steps": 3})
        assert "degraded_link_fraction" in watchdog.breaches

    def test_status_shape(self):
        watchdog = SloWatchdog()
        watchdog.check("window_lag_seconds", 99.0)
        status = watchdog.status()
        assert status["ready"] is False
        assert status["trips"] == {"window_lag_seconds": 1}
        assert "window_lag_seconds" in status["breaches"]

    def test_duplicate_rule_names_rejected(self):
        rule = DEFAULT_SLOS[0]
        with pytest.raises(ValueError):
            SloWatchdog(rules=(rule, rule))

    def test_lt_comparison(self):
        rule = SloRule("floor", "must stay above", 1.0, comparison="lt")
        assert not rule.breached(1.5)
        assert rule.breached(0.5)
        with pytest.raises(ValueError):
            SloRule("bad", "", 1.0, comparison="ge")


class TestManifestRedaction:
    def test_credential_shaped_values_are_redacted(self):
        captured = capture_environment(
            {
                "REPRO_API_KEY": "hunter2",
                "REPRO_ACCESS_TOKEN": "t0ps3cret",
                "SPOOFTRACK_SECRET_SALT": "salty",
                "PYTHONHASHSEED": "0",
                "HOME": "/root",
            }
        )
        assert captured["REPRO_API_KEY"] == REDACTED
        assert captured["REPRO_ACCESS_TOKEN"] == REDACTED
        assert captured["SPOOFTRACK_SECRET_SALT"] == REDACTED
        assert captured["PYTHONHASHSEED"] == "0"
        assert "HOME" not in captured  # unprefixed vars are not captured

    def test_build_manifest_carries_environment(self):
        manifest = build_manifest("track", seed=3)
        assert isinstance(manifest.environment, dict)
        assert all(
            REDACTED == value
            for name, value in manifest.environment.items()
            if "KEY" in name.upper()
        )


class TestBuildInfo:
    def test_gauge_carries_identity_labels(self):
        registry = MetricsRegistry()
        record_build_info(registry)
        parsed = parse_prometheus(registry.render_prometheus())
        series = [name for name in parsed if name.startswith("repro_build_info")]
        assert len(series) == 1
        assert parsed[series[0]] == 1.0
        assert 'version="' in series[0]
        assert 'python="' in series[0]
        assert 'platform="' in series[0]

    def test_for_run_arms_build_info(self):
        obs = Observability.for_run("t")
        assert "repro_build_info" in obs.registry.render_prometheus()


class TestEnsureParentDir:
    def test_creates_nested_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "c" / "out.json"
        assert ensure_parent_dir(str(target)) == str(target)
        assert target.parent.is_dir()

    def test_existing_parent_is_fine(self, tmp_path):
        target = tmp_path / "out.json"
        ensure_parent_dir(str(target))
        ensure_parent_dir(str(target))
        assert tmp_path.is_dir()

    def test_writers_create_parents(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        registry.write_prometheus(str(tmp_path / "m" / "x.prom"))
        registry.write_json(str(tmp_path / "j" / "x.json"))
        tracer = Tracer("t")
        tracer.write_jsonl(str(tmp_path / "t" / "x.jsonl"))
        manifest = build_manifest("track")
        manifest.write(str(tmp_path / "mf" / "x.json"))
        for sub in ("m/x.prom", "j/x.json", "t/x.jsonl", "mf/x.json"):
            assert (tmp_path / sub).exists()


class TestFaultLogListeners:
    def test_listeners_observe_records(self):
        log = FaultLog()
        seen = []
        log.listeners.append(lambda kind, count: seen.append((kind, count)))
        log.record("worker_crash")
        log.record("link_degradation", 3)
        assert seen == [("worker_crash", 1), ("link_degradation", 3)]
        assert log.by_kind == {"worker_crash": 1, "link_degradation": 3}

    def test_listeners_do_not_affect_equality(self):
        plain = FaultLog(by_kind={"x": 1})
        listened = FaultLog(by_kind={"x": 1})
        listened.listeners.append(lambda kind, count: None)
        assert plain == listened


@pytest.fixture()
def served_obs():
    """An armed bundle with some events, served over a real socket."""
    obs = Observability.for_run("serve-test")
    obs.registry.counter("served_total").inc(7)
    obs.bus.publish("window", window_index=0, duration_seconds=0.25)
    obs.bus.publish("fault", fault_kind="worker_crash", count=1)
    manifest = build_manifest("track", seed=3)
    watchdog = SloWatchdog(registry=obs.registry)
    obs.bus.attach(watchdog.observe)
    server = ObsServer(obs=obs, manifest=manifest, watchdog=watchdog, port=0)
    server.start()
    try:
        yield obs, server, watchdog
    finally:
        server.stop()
        obs.bus.close()


class TestObsServer:
    def test_metrics_endpoint_parses(self, served_obs):
        obs, server, _ = served_obs
        status, body = _get(server.url + "/metrics")
        assert status == 200
        parsed = parse_prometheus(body)
        assert parsed["served_total"] == 7.0
        assert any(name.startswith("repro_build_info") for name in parsed)

    def test_healthz_defaults_healthy(self, served_obs):
        _, server, _ = served_obs
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body)["healthy"] is True

    def test_healthz_reports_unhealthy_source(self):
        obs = Observability.for_run("sick")
        server = ObsServer(
            obs=obs, health_source={"healthy": False, "reason": "violations"}
        ).start()
        try:
            status, body = _get(server.url + "/healthz")
        finally:
            server.stop()
        assert status == 503
        assert json.loads(body)["reason"] == "violations"

    def test_readyz_gates_on_startup_and_watchdog(self, served_obs):
        obs, server, watchdog = served_obs
        status, _ = _get(server.url + "/readyz")
        assert status == 503  # set_ready not called yet
        server.set_ready()
        status, body = _get(server.url + "/readyz")
        assert status == 200
        assert json.loads(body)["ready"] is True
        # A breached SLO flips readiness back off.
        obs.bus.publish("window", duration_seconds=60.0, window_index=1)
        status, body = _get(server.url + "/readyz")
        assert status == 503
        assert "window_lag_seconds" in json.loads(body)["breaches"]

    def test_manifest_roundtrips(self, served_obs):
        _, server, _ = served_obs
        status, body = _get(server.url + "/manifest")
        assert status == 200
        payload = json.loads(body)
        assert payload["command"] == "track"
        assert payload["seed"] == 3

    def test_traces_lists_finished_spans(self, served_obs):
        obs, server, _ = served_obs
        with obs.tracer.span("probe"):
            pass
        status, body = _get(server.url + "/traces")
        assert status == 200
        assert any(span["name"] == "probe" for span in json.loads(body))

    def test_events_streams_replay_with_limit(self, served_obs):
        _, server, _ = served_obs
        status, body = _get(server.url + "/events?replay=1&limit=2")
        assert status == 200
        events = _sse_events(body)
        assert [event["kind"] for event in events] == ["window", "fault"]
        assert [event["seq"] for event in events] == [0, 1]

    def test_unknown_route_404(self, served_obs):
        _, server, _ = served_obs
        status, body = _get(server.url + "/nope")
        assert status == 404
        assert "unknown route" in body

    def test_index_lists_routes(self, served_obs):
        _, server, _ = served_obs
        status, body = _get(server.url)
        assert status == 200
        assert set(json.loads(body)["endpoints"]) == set(ObsServer.ROUTES)

    def test_tenants_404_without_fleet_runtime(self, served_obs):
        _, server, _ = served_obs
        status, body = _get(server.url + "/tenants")
        assert status == 404
        assert "no fleet runtime" in json.loads(body)["error"]

    def test_tenants_serves_callable_source(self):
        calls = {"count": 0}

        def summary():
            calls["count"] += 1
            return {
                "tenants": {"tenant-00": {"windows": 9, "states": {"done": 2}}},
                "pending": [],
            }

        obs = Observability.for_run("fleet")
        server = ObsServer(obs=obs, tenants_source=summary, port=0).start()
        try:
            first, body = _get(server.url + "/tenants")
            second, _ = _get(server.url + "/tenants")
        finally:
            server.stop()
            obs.bus.close()
        assert first == second == 200
        payload = json.loads(body)
        assert payload["tenants"]["tenant-00"]["windows"] == 9
        assert calls["count"] == 2  # re-evaluated per request, never cached

    def test_tenants_accepts_static_mapping(self):
        obs = Observability.for_run("fleet")
        server = ObsServer(
            obs=obs, tenants_source={"tenants": {}, "pending": []}, port=0
        ).start()
        try:
            status, body = _get(server.url + "/tenants")
        finally:
            server.stop()
            obs.bus.close()
        assert status == 200
        assert json.loads(body) == {"tenants": {}, "pending": []}

    def test_tenants_route_is_listed(self):
        assert "/tenants" in ObsServer.ROUTES


class TestConcurrentScrapes:
    def test_metrics_consistent_while_parallel_run_mutates(self, small_testbed):
        """Scrapes during a live replay always parse, and counter series
        never decrease between consecutive scrapes."""
        obs = Observability.for_run("live")
        service = LiveTracebackService(
            scenario=ReplayScenario(seed=5, max_configs=4, adaptive=False),
            testbed=small_testbed,
            obs=obs,
        )
        server = ObsServer(obs=obs, port=0).start()
        failures = []
        done = threading.Event()

        def run():
            try:
                service.run()
            except Exception as exc:  # surfaced after join
                failures.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=run)
        thread.start()
        previous = {}
        scrapes = 0
        try:
            while not done.is_set() or scrapes < 3:
                status, body = _get(server.url + "/metrics")
                assert status == 200
                parsed = parse_prometheus(body)  # malformed text would raise
                for series, value in previous.items():
                    if series.endswith("_total") and series in parsed:
                        assert parsed[series] >= value
                previous = parsed
                scrapes += 1
                if done.is_set() and scrapes >= 3:
                    break
        finally:
            thread.join(timeout=60)
            server.stop()
            service.close()
        assert not failures
        assert scrapes >= 3


class TestSseDeterminism:
    @staticmethod
    def _stripped_stream(small_testbed, tmp_path, tag):
        obs = Observability.for_run("live")
        scenario = ReplayScenario(
            seed=5,
            max_configs=4,
            adaptive=False,
            churn_events=((2, 0.2),),
            checkpoint_every=4,
            checkpoint_path=str(tmp_path / f"{tag}.json"),
        )
        service = LiveTracebackService(
            scenario=scenario, testbed=small_testbed, obs=obs
        )
        try:
            service.run()
        finally:
            service.close()
        history = obs.bus.history()
        assert any("_seconds" in key for event in history for key in event)
        return [
            json.dumps(strip_measured(event), sort_keys=True)
            for event in history
        ]

    def test_same_seed_same_stripped_event_sequence(
        self, small_testbed, tmp_path
    ):
        first = self._stripped_stream(small_testbed, tmp_path, "a")
        second = self._stripped_stream(small_testbed, tmp_path, "b")
        assert first == second
        kinds = {json.loads(line)["kind"] for line in first}
        assert {"engine_batch", "select", "window", "churn", "checkpoint"} <= kinds


def _write_bench(tmp_path, name, metrics):
    path = tmp_path / name
    path.write_text(json.dumps(metrics, indent=2))
    return path


class TestBenchGate:
    def test_passes_on_identical_history(self, tmp_path):
        _write_bench(tmp_path, "BENCH_a.json", {"x_seconds": 1.0, "runs": 3})
        write_history(str(tmp_path))
        result = check_benchmarks(str(tmp_path))
        assert result.passed
        assert result.checked == 1  # `runs` is not a gated metric

    def test_fails_on_twenty_percent_slowdown(self, tmp_path):
        _write_bench(tmp_path, "BENCH_a.json", {"x_seconds": 1.0})
        write_history(str(tmp_path))
        _write_bench(tmp_path, "BENCH_a.json", {"x_seconds": 1.2})
        result = check_benchmarks(str(tmp_path))
        assert not result.passed
        regression = result.regressions[0]
        assert regression.metric == "x_seconds"
        assert regression.ratio == pytest.approx(1.2)
        assert any("REGRESSION" in line for line in result.summary_lines())

    def test_tolerance_is_configurable(self, tmp_path):
        _write_bench(tmp_path, "BENCH_a.json", {"x_seconds": 1.0})
        write_history(str(tmp_path))
        _write_bench(tmp_path, "BENCH_a.json", {"x_seconds": 1.2})
        assert check_benchmarks(str(tmp_path), tolerance=0.25).passed

    def test_improvements_always_pass(self, tmp_path):
        _write_bench(tmp_path, "BENCH_a.json", {"x_seconds": 1.0})
        write_history(str(tmp_path))
        _write_bench(tmp_path, "BENCH_a.json", {"x_seconds": 0.5})
        assert check_benchmarks(str(tmp_path)).passed

    def test_new_and_missing_metrics_reported_not_failed(self, tmp_path):
        _write_bench(tmp_path, "BENCH_a.json", {"x_seconds": 1.0})
        write_history(str(tmp_path))
        _write_bench(tmp_path, "BENCH_a.json", {"y_seconds": 1.0})
        _write_bench(tmp_path, "BENCH_b.json", {"z_seconds": 1.0})
        result = check_benchmarks(str(tmp_path))
        assert result.passed
        assert "BENCH_a.json:x_seconds" in result.missing
        assert "BENCH_a.json:y_seconds" in result.new_metrics
        assert "BENCH_b.json:z_seconds" in result.new_metrics

    def test_committed_history_matches_artifacts(self):
        result = check_benchmarks("benchmarks")
        assert result.passed, result.summary_lines()
        assert result.checked > 0


class TestDashboard:
    def test_render_reflects_events(self):
        from repro.analysis.dashboard import Dashboard

        dash = Dashboard()
        for index in range(3):
            dash.ingest(
                {"kind": "window", "window_index": index,
                 "num_clusters": 4 + index, "entropy": 2.0 - index * 0.3,
                 "offered_volume": 8.0, "dropped_volume": 1.0}
            )
        dash.ingest({"kind": "fault", "fault_kind": "worker_crash", "count": 2})
        dash.ingest({"kind": "churn", "remeasured": True})
        dash.ingest(
            {"kind": "select", "schedule_index": 1, "phase": "locations",
             "configs_consumed": 2}
        )
        text = dash.render()
        assert "window 2" in text
        assert "worker_crash×2" in text
        assert "1 remeasurements" in text
        assert "entropy (bits) by window" in text
        assert "clusters by window" in text

    def test_tenant_filter_drops_foreign_events(self):
        from repro.analysis.dashboard import Dashboard

        dash = Dashboard(tenant="tenant-00")
        dash.ingest(
            {"kind": "window", "window_index": 0, "tenant": "tenant-00",
             "num_clusters": 4, "entropy": 2.0}
        )
        dash.ingest(
            {"kind": "window", "window_index": 5, "tenant": "tenant-01",
             "num_clusters": 9, "entropy": 0.5}
        )
        dash.ingest({"kind": "fault", "fault_kind": "worker_crash", "count": 1})
        text = dash.render()
        assert "window 0" in text
        assert "window 5" not in text
        assert dash.events_filtered == 2  # foreign window + untagged fault
        assert "tenant tenant-00" in text

    def test_no_tenant_filter_keeps_everything(self):
        from repro.analysis.dashboard import Dashboard

        dash = Dashboard()
        dash.ingest(
            {"kind": "window", "window_index": 0, "tenant": "tenant-01",
             "num_clusters": 4, "entropy": 2.0}
        )
        assert dash.events_filtered == 0
        assert "window 0" in dash.render()
