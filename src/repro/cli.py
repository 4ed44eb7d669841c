"""Command-line front end: ``spooftrack`` (also ``python -m repro``).

Subcommands:

* ``figures`` — reproduce paper figures and print their data series.
* ``tables`` — print Table I (testbed PoPs) and Table II (taxonomy).
* ``track`` — run the end-to-end localization pipeline on a synthetic
  attack and print the report.
* ``live`` — replay a synthetic attack through the online traceback
  service (``repro.live``) with rolling per-window attribution.
* ``fleet`` — multiplex many tenants' concurrent attack replays through
  the multi-tenant runtime (``repro.fleet``) with fair-share dispatch,
  scripted crash/drain/evict events, and a rolling per-tenant table.
* ``soak`` — long-horizon soak campaign (``repro.soak``): epochs of
  whole-process restarts, seeded kills, checkpoint corruption, fault
  escalation, and checkpoint schema alternation, with resource ceilings
  asserted per epoch and the final digest verified against an
  uninterrupted reference run.
* ``chaos`` — sweep a fault plan across intensities and print an
  accuracy-vs-fault-rate table (``repro.faults``).
* ``profile`` — run the pipeline under the observability layer's
  profiler and print per-phase timings plus a top-K hotspot table.
* ``dash`` — ASCII live dashboard: render the observability event
  stream, either attached to a served ``/events`` endpoint or from a
  seeded local replay.
* ``timeline`` — post-mortem forensics: merge span traces, flight
  bundles, and checkpoint directories into one causally ordered,
  digest-stable timeline (``repro.obs.timeline``).
* ``bench-check`` — compare fresh ``benchmarks/BENCH_*.json`` artifacts
  against the recorded baseline history; non-zero exit on regression.
* ``experiments`` — regenerate the EXPERIMENTS.md body from a fresh run.

``track``, ``live``, ``fleet``, and ``chaos`` accept ``--trace PATH``
(JSONL span tree with deterministic span ids), ``--metrics PATH``
(Prometheus-format counter/gauge/histogram dump), ``--serve PORT``
(threaded HTTP exporter: ``/metrics``, ``/healthz``, ``/readyz``,
``/manifest``, ``/traces``, ``/timeline``, SSE ``/events``, and — in
fleet mode — ``/tenants``), ``--log-json`` (structured JSON-lines
operational logging instead of bare stderr), and ``--flight-dir DIR``
(arm the black-box flight recorder).  ``track``, ``live``, and
``fleet`` also accept ``--fault-plan`` (``chaos`` sweeps its own
``--plan``).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional, Sequence

from .analysis.figures import FIGURE_RUNNERS, EvaluationRun
from .analysis.report import figure_markdown, render_figure
from .analysis.tables import table1, table2
from .core.pipeline import SpoofTracker, TestbedSpec, build_testbed
from .errors import FaultInjectionError
from .faults import BUNDLED_PLANS, FaultInjector, load_fault_plan
from .obs import (
    Logbook,
    Observability,
    ObsServer,
    SloWatchdog,
    Stopwatch,
    build_manifest,
    install_flight_signal,
)
from .spoof.sources import PLACEMENT_DISTRIBUTIONS, make_placement
from .topology.generator import TopologyParams

import random

#: Topology scales selectable from the command line.
SCALES = {
    "small": TopologyParams(num_tier1=6, num_transit=60, num_stub=300),
    "medium": TopologyParams(num_tier1=8, num_transit=120, num_stub=600),
    "paper": TopologyParams(num_tier1=10, num_transit=220, num_stub=1600),
}


def _build_run(args: argparse.Namespace) -> EvaluationRun:
    params = replace(SCALES[args.scale], seed=args.seed)
    testbed = build_testbed(seed=args.seed, topology_params=params)
    return EvaluationRun(
        testbed=testbed,
        seed=args.seed,
        max_configs=args.max_configs,
        measured=args.measured,
        workers=args.workers,
    )


def _cmd_figures(args: argparse.Namespace) -> int:
    wanted = args.ids or sorted(FIGURE_RUNNERS)
    unknown = [figure_id for figure_id in wanted if figure_id not in FIGURE_RUNNERS]
    if unknown:
        print(f"unknown figure ids: {unknown}; known: {sorted(FIGURE_RUNNERS)}")
        return 2
    # Monotonic interval (a wall-clock adjustment mid-run used to be able
    # to skew or even negate this timing when it read time.time()).
    stopwatch = Stopwatch()
    run = _build_run(args)
    print(
        f"# evaluation run: {len(run.schedule)} configurations over "
        f"{len(run.universe)} ASes ({stopwatch.elapsed():.1f}s, "
        f"{run.engine.stats.summary()})",
        file=sys.stderr,
    )
    for figure_id in wanted:
        result = FIGURE_RUNNERS[figure_id](run)
        print(render_figure(result))
        if args.plot:
            from .analysis.ascii_plot import plot_figure

            print()
            print(plot_figure(result))
        print()
    run.engine.close()
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    testbed = build_testbed(seed=args.seed, topology_params=SCALES[args.scale])
    print(table1(testbed).render())
    print()
    print(table2().render())
    return 0


def _make_injector(args: argparse.Namespace):
    """Build a :class:`FaultInjector` from ``--fault-plan`` (or None)."""
    source = getattr(args, "fault_plan", None)
    if not source:
        return None
    return FaultInjector(load_fault_plan(source))


#: Recorders armed by :func:`_make_obs` this invocation, so the crash
#: handler in :func:`main` can dump black boxes on an unhandled error.
_ACTIVE_FLIGHTS: List = []


def _make_obs(
    args: argparse.Namespace, command: str, profile: bool = False
) -> Optional[Observability]:
    """An armed :class:`Observability` bundle, or None when not asked for.

    Unarmed runs (no ``--trace``/``--metrics``/``--serve``/``--log-json``
    /``--flight-dir``/profiling) return None so the pipeline's
    instrumentation guards stay on their no-op path.  ``--flight-dir``
    additionally arms a run-wide flight recorder (riding the bus,
    logbook, and tracer), binds SIGUSR1 to it, and registers it for the
    crash handler in :func:`main`.
    """
    armed = (
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or profile
        or getattr(args, "serve", None) is not None
        or getattr(args, "log_json", False)
        or getattr(args, "flight_dir", None)
    )
    if not armed:
        return None
    obs = Observability.for_run(command, profile=profile)
    if obs.logbook is not None:
        obs.logbook.json_mode = bool(getattr(args, "log_json", False))
    flight_dir = getattr(args, "flight_dir", None)
    if flight_dir:
        recorder = obs.arm_flight(command, directory=flight_dir)
        install_flight_signal(recorder)
        _ACTIVE_FLIGHTS.append(recorder)
    return obs


def _logbook_for(
    args: argparse.Namespace, obs: Optional[Observability]
) -> Logbook:
    """The run's logbook: the obs bundle's when armed, else a bare one.

    Either way operational chatter flows through one leveled sink, and
    ``--log-json`` switches it to structured JSON lines.
    """
    if obs is not None and obs.logbook is not None:
        return obs.logbook
    return Logbook(json_mode=bool(getattr(args, "log_json", False)))


def _wire_faults(injector, obs: Optional[Observability], log: Logbook) -> None:
    """Forward fired faults onto the bus (and the debug log) as they land."""
    if injector is None:
        return

    def on_fault(kind: str, count: int) -> None:
        if obs is not None and obs.bus is not None:
            obs.bus.publish("fault", fault_kind=kind, count=count)
        log.debug(f"fault fired: {kind} x{count}", event="fault", kind=kind)

    injector.log.listeners.append(on_fault)


def _start_server(
    args: argparse.Namespace,
    obs: Optional[Observability],
    log: Logbook,
    manifest=None,
    health_source=None,
    slo_rules=None,
):
    """Start the ``--serve`` exporter (or return None when not asked for)."""
    port = getattr(args, "serve", None)
    if port is None or obs is None:
        return None
    watchdog = (
        SloWatchdog(slo_rules, registry=obs.registry)
        if slo_rules is not None
        else SloWatchdog(registry=obs.registry)
    )
    # An armed flight recorder turns every SLO breach into a black box.
    watchdog.flight = obs.flight
    if obs.bus is not None:
        obs.bus.attach(watchdog.observe)
    server = ObsServer(
        obs=obs,
        manifest=manifest,
        health_source=health_source,
        watchdog=watchdog,
        port=port,
        flight_dir=getattr(args, "flight_dir", None) or "",
        checkpoint_dir=getattr(args, "checkpoint_dir", None) or "",
    )
    server.start()
    log.info(
        f"serving observability on {server.url}",
        event="serve",
        port=server.port,
    )
    return server


def _finish_server(
    args: argparse.Namespace,
    server,
    obs: Optional[Observability],
    log: Logbook,
) -> None:
    """Publish run completion, honour ``--serve-linger``, stop serving."""
    if server is None:
        return
    if obs is not None and obs.bus is not None:
        obs.bus.publish("report", command=getattr(args, "command", ""))
    linger = float(getattr(args, "serve_linger", 0.0) or 0.0)
    if linger > 0:
        log.info(
            f"run complete; serving {server.url} for {linger:g}s more",
            event="serve_linger",
        )
        time.sleep(linger)
    server.stop()
    if obs is not None and obs.bus is not None:
        obs.bus.close()


def _manifest_for(
    args: argparse.Namespace, command: str, injector=None, **config
):
    """A :class:`~repro.obs.RunManifest` for this invocation."""
    return build_manifest(
        command,
        seed=args.seed,
        scale=args.scale,
        workers=getattr(args, "workers", 1),
        config=config,
        fault_plan=(
            injector.plan.as_serializable() if injector is not None else None
        ),
    )


def _export_obs(
    args: argparse.Namespace,
    obs: Optional[Observability],
    log: Optional[Logbook] = None,
) -> None:
    """Write ``--trace`` / ``--metrics`` artifacts and announce them."""
    if obs is None:
        return
    log = log if log is not None else _logbook_for(args, obs)
    trace = getattr(args, "trace", None)
    if trace and obs.tracer is not None:
        obs.tracer.write_jsonl(trace)
        log.info(f"wrote trace {trace}", event="export", path=trace)
    metrics = getattr(args, "metrics", None)
    if metrics and obs.registry is not None:
        obs.registry.write_prometheus(metrics)
        log.info(f"wrote metrics {metrics}", event="export", path=metrics)


def _cmd_track(args: argparse.Namespace) -> int:
    injector = _make_injector(args)
    obs = _make_obs(args, "track")
    log = _logbook_for(args, obs)
    _wire_faults(injector, obs, log)
    manifest = _manifest_for(
        args,
        "track",
        injector=injector,
        max_configs=args.max_configs,
        measured=args.measured,
        distribution=args.distribution,
        sources=args.sources,
        split_threshold=args.split_threshold,
        strategy=args.strategy,
    )
    health = {"report": None}
    server = _start_server(
        args, obs, log, manifest=manifest,
        health_source=lambda: health["report"],
    )
    testbed = build_testbed(seed=args.seed, topology_params=SCALES[args.scale])
    tracker = SpoofTracker(
        testbed, workers=args.workers, injector=injector, obs=obs
    )
    if server is not None:
        server.set_ready()
    rng = random.Random(args.seed + 1)
    candidate_ases = sorted(testbed.topology.stubs or testbed.graph.ases)
    placement = make_placement(
        args.distribution, candidate_ases, args.sources, rng
    )
    try:
        report = tracker.run(
            max_configs=args.max_configs,
            placement=placement,
            measured=args.measured,
            split_threshold=args.split_threshold,
            strategy=args.strategy,
        )
    finally:
        tracker.engine.close()
    report.manifest = manifest
    health["report"] = report.resilience
    _export_obs(args, obs, log)
    _finish_server(args, server, obs, log)
    print(report.summary())
    true_sources = ", ".join(str(asn) for asn in sorted(placement.spoofing_ases))
    print(f"ground-truth source ASes: {true_sources}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .strategy import available_strategies, compare_strategies, strategy_class

    if args.strategies:
        names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    else:
        names = available_strategies()
    for name in names:
        strategy_class(name)  # fail fast, before the measurement pass
    obs = _make_obs(args, "compare")
    log = _logbook_for(args, obs)
    manifest = _manifest_for(
        args,
        "compare",
        max_configs=args.max_configs,
        strategies=",".join(names),
    )
    server = _start_server(args, obs, log, manifest=manifest)
    testbed = build_testbed(seed=args.seed, topology_params=SCALES[args.scale])
    if server is not None:
        server.set_ready()
    report = compare_strategies(
        testbed,
        strategies=names,
        max_configs=args.max_configs,
        workers=args.workers,
        obs=obs,
    )
    _export_obs(args, obs, log)
    _finish_server(args, server, obs, log)
    print(
        f"racing {len(report.outcomes)} strategies over "
        f"{report.candidate_configs} candidate configurations, "
        f"{report.universe_size} sources (seed {report.seed})"
    )
    if report.engine_stats is not None:
        print(f"shared measurement pass  : {report.engine_stats.summary()}")
    print()
    print(report.table())
    if args.json:
        report.write_json(args.json)
        log.info(f"wrote {args.json}", event="export", path=args.json)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    obs = Observability.for_run("profile", profile=True)
    testbed = build_testbed(seed=args.seed, topology_params=SCALES[args.scale])
    tracker = SpoofTracker(testbed, workers=args.workers, obs=obs)
    rng = random.Random(args.seed + 1)
    candidate_ases = sorted(testbed.topology.stubs or testbed.graph.ases)
    placement = make_placement(
        args.distribution, candidate_ases, args.sources, rng
    )
    try:
        report = tracker.run(
            max_configs=args.max_configs,
            placement=placement,
            measured=args.measured,
        )
    finally:
        tracker.engine.close()
    report.manifest = _manifest_for(
        args,
        "profile",
        max_configs=args.max_configs,
        measured=args.measured,
    )
    _export_obs(args, obs, _logbook_for(args, obs))
    assert obs.timer is not None and obs.profiler is not None
    print("# per-phase wall time")
    print(obs.timer.table())
    print()
    print(f"# top {args.top} hotspots (engine fixpoints + NNLS solves)")
    print(obs.profiler.hotspot_table(args.top))
    print()
    print(report.summary())
    return 0


def _cmd_headline(args: argparse.Namespace) -> int:
    from .analysis.headline import headline_metrics, render_headline

    run = _build_run(args)
    print(render_headline(headline_metrics(run)))
    run.engine.close()
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .data import Dataset, PathDataset

    run = _build_run(args)
    dataset = Dataset.from_catchment_history(
        run.testbed.origin.link_ids,
        run.schedule,
        run.catchment_history,
        meta={
            "seed": args.seed,
            "scale": args.scale,
            "ases": len(run.testbed.graph),
            "universe": len(run.universe),
        },
    )
    dataset.save(args.output)
    print(
        f"wrote {args.output}: {len(dataset)} configurations over "
        f"{len(dataset.sources())} sources"
    )
    if args.paths:
        # Cache hits: the run already simulated its schedule.
        outcomes = run.engine.simulate_many(run.schedule)
        path_dataset = PathDataset.from_outcomes(outcomes)
        path_dataset.save(args.paths)
        diversity = path_dataset.route_diversity()
        mean_diversity = sum(diversity.values()) / len(diversity)
        print(
            f"wrote {args.paths}: forwarding paths for {len(path_dataset)} "
            f"configurations (mean {mean_diversity:.2f} routes/source)"
        )
    run.engine.close()
    return 0


def _parse_churn(text: str) -> tuple:
    """Parse a ``WINDOW:DRIFT`` churn event specification."""
    try:
        window_text, drift_text = text.split(":", 1)
        return (int(window_text), float(drift_text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"churn event {text!r} is not WINDOW:DRIFT (e.g. 12:0.3)"
        )


def _cmd_live(args: argparse.Namespace) -> int:
    from .analysis.live import render_window, render_window_table
    from .live import LiveTracebackService, ReplayScenario, load_checkpoint

    obs = None
    injector = None
    server = None
    log = _logbook_for(args, None)
    if args.resume:
        # Resumed services rebuild mid-run state; the premeasure span and
        # controller counters are gone, so tracing starts fresh runs only.
        service = load_checkpoint(args.resume)
    else:
        obs = _make_obs(args, "live")
        log = _logbook_for(args, obs)
        injector = _make_injector(args)
        _wire_faults(injector, obs, log)
        if args.checkpoint_every > 0 and not args.checkpoint:
            log.error("--checkpoint-every needs --checkpoint PATH")
            return 2
        scenario = ReplayScenario(
            seed=args.seed,
            distribution=args.distribution,
            num_sources=args.sources,
            max_configs=args.max_configs,
            window_minutes=args.window_minutes,
            batches_per_window=args.batches_per_window,
            queue_capacity=args.queue_capacity,
            drop_policy=args.drop_policy,
            adaptive=not args.in_order,
            strategy=args.strategy,
            min_configs=args.min_configs,
            stop_entropy=args.stop_entropy,
            stop_volume_share=args.stop_volume_share,
            churn_events=tuple(args.churn),
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint or "",
            packets_per_window=args.packets_per_window,
            nnls_stride=args.nnls_stride,
        )
        params = replace(SCALES[args.scale], seed=args.seed)
        spec = TestbedSpec(seed=args.seed, topology_params=params)
        manifest = _manifest_for(
            args,
            "live",
            injector=injector,
            max_configs=args.max_configs,
            distribution=args.distribution,
            sources=args.sources,
            window_minutes=args.window_minutes,
            adaptive=not args.in_order,
        )
        # The exporter comes up before the (slow) premeasure so /healthz
        # answers from the first moment of the run; /readyz flips once
        # the service finishes constructing.
        holder = {"service": None}

        def _health():
            svc = holder["service"]
            return svc._resilience_report() if svc is not None else None

        server = _start_server(
            args, obs, log, manifest=manifest, health_source=_health
        )
        service = LiveTracebackService(
            scenario=scenario,
            spec=spec,
            injector=injector,
            obs=obs,
        )
        holder["service"] = service
        if server is not None:
            server.set_ready()
    on_window = None
    if not args.quiet:

        def on_window(stats):
            log.info(
                render_window(stats),
                event="window",
                window=stats.window_index,
            )

    try:
        report = service.run(on_window=on_window)
        if args.checkpoint and args.checkpoint_every == 0:
            service.checkpoint(args.checkpoint)
            log.info(
                f"wrote final checkpoint {args.checkpoint}",
                event="checkpoint",
                path=args.checkpoint,
            )
    finally:
        service.close()
    if not args.resume:
        report.manifest = manifest
    _export_obs(args, obs, log)
    _finish_server(args, server, obs, log)
    print(report.summary())
    print()
    print(render_window_table(report.windows, every=args.table_every))
    true_sources = ", ".join(
        str(asn) for asn in sorted(report.placement.spoofing_ases)
    )
    print(f"ground-truth source ASes: {true_sources}")
    return 0


def _parse_indexed_minute(text: str) -> tuple:
    """Parse an ``ATTACK:MINUTE`` fleet control specification."""
    try:
        index_text, minute_text = text.split(":", 1)
        return (int(index_text), float(minute_text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"fleet event {text!r} is not ATTACK:MINUTE (e.g. 2:240)"
        )


def _parse_quota(text: str) -> tuple:
    """Parse a ``TENANT:WEIGHT`` fair-share quota specification."""
    try:
        tenant, weight_text = text.split(":", 1)
        weight = float(weight_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"quota {text!r} is not TENANT:WEIGHT (e.g. tenant-00:2.0)"
        )
    if not tenant or weight <= 0:
        raise argparse.ArgumentTypeError(
            f"quota {text!r} needs a tenant name and a positive weight"
        )
    return (tenant, weight)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .analysis.fleet import render_fleet_summary, render_fleet_table
    from .analysis.live import render_window
    from .fleet import (
        CRASH,
        DRAIN,
        EVICT,
        FleetEvent,
        FleetRuntime,
        FleetSpec,
        scripted_stream,
    )

    obs = _make_obs(args, "fleet")
    log = _logbook_for(args, obs)
    if args.checkpoint_every > 0 and not args.checkpoint_dir:
        log.error("--checkpoint-every needs --checkpoint-dir PATH")
        return 2
    params = replace(SCALES[args.scale], seed=args.seed)
    spec = FleetSpec(
        seed=args.seed,
        tenants=args.tenants,
        attacks_per_tenant=args.attacks,
        max_configs=args.max_configs,
        num_sources=args.sources,
        distribution=args.distribution,
        window_minutes=args.window_minutes,
        launch_stagger_minutes=args.stagger_minutes,
        checkpoint_every=args.checkpoint_every,
        topology_params=params,
        quotas=tuple(args.quota),
        max_active=args.max_active,
    )
    attacks = spec.attacks()
    controls = []
    for action, requests in (
        (CRASH, args.crash),
        (DRAIN, args.drain),
        (EVICT, args.evict),
    ):
        for index, minute in requests:
            if not 0 <= index < len(attacks):
                log.error(
                    f"--{action} attack index {index} out of range "
                    f"(the fleet has {len(attacks)} attacks)"
                )
                return 2
            attack = attacks[index]
            controls.append(
                FleetEvent(
                    minute=minute,
                    action=action,
                    tenant=attack.tenant,
                    prefix=attack.prefix,
                )
            )
    events = scripted_stream(spec, controls)

    injector_factory = None
    if getattr(args, "fault_plan", None):

        def injector_factory(attack):
            # One injector per shard: chaos draws stay independent of
            # the fair-share interleaving.
            injector = FaultInjector(load_fault_plan(args.fault_plan))
            _wire_faults(injector, obs, log)
            return injector

    manifest = _manifest_for(
        args,
        "fleet",
        tenants=args.tenants,
        attacks_per_tenant=args.attacks,
        max_active=args.max_active,
        stagger_minutes=args.stagger_minutes,
        distribution=args.distribution,
    )
    runtime = FleetRuntime(
        spec,
        events=events,
        obs=obs,
        checkpoint_dir=args.checkpoint_dir or "",
        injector_factory=injector_factory,
        flight_dir=args.flight_dir or "",
    )

    def _health():
        return {"healthy": True, "shards": len(runtime.shards)}

    server = _start_server(
        args, obs, log, manifest=manifest, health_source=_health
    )
    if server is not None:
        server.tenants_source = runtime.tenants_summary
        server.set_ready()

    windows_done = {"count": 0}
    on_window = None
    if not args.quiet:

        def on_window(key, stats):
            windows_done["count"] += 1
            log.info(
                f"{key[0]}/{key[1]} " + render_window(stats),
                event="window",
                tenant=key[0],
                window=stats.window_index,
            )
            if args.table_every and windows_done["count"] % args.table_every == 0:
                reports = [
                    shard.report() for shard in runtime.shards.values()
                ]
                sys.stderr.write(render_fleet_table(reports) + "\n")

    try:
        report = runtime.run(on_window=on_window)
    finally:
        runtime.close()
    _export_obs(args, obs, log)
    _finish_server(args, server, obs, log)
    print(render_fleet_summary(report))
    print()
    print(render_fleet_table(report.shards))
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .fleet import FleetSpec
    from .obs.slo import SOAK_SLOS
    from .soak import (
        ResourceCeilings,
        SoakRunner,
        SoakSpec,
        render_soak_summary,
        render_soak_table,
    )

    obs = _make_obs(args, "soak")
    log = _logbook_for(args, obs)
    if not args.checkpoint_dir:
        log.error(
            "soak needs --checkpoint-dir PATH — restarts resume from disk"
        )
        return 2
    params = replace(SCALES[args.scale], seed=args.seed)
    fleet = FleetSpec(
        seed=args.seed,
        tenants=args.tenants,
        attacks_per_tenant=args.attacks,
        max_configs=args.max_configs,
        num_sources=args.sources,
        distribution=args.distribution,
        window_minutes=args.window_minutes,
        checkpoint_every=args.checkpoint_every,
        checkpoint_keep=args.keep,
        topology_params=params,
    )
    spec = SoakSpec(
        fleet=fleet,
        epochs=args.epochs,
        epoch_minutes=args.epoch_minutes,
        restart_every=args.restart_every,
        kill_rate=args.kill_rate,
        corrupt_rate=args.corrupt_rate,
        fault_plan=args.fault_plan,
        escalation_base=args.escalation_base,
        escalation_growth=args.escalation_growth,
        churn_tenants=args.churn_tenants,
        alternate_versions=not args.no_alternate,
        ceilings=ResourceCeilings(
            rss_mb=args.max_rss_mb,
            open_fds=args.max_fds,
            threads=args.max_threads,
            rss_slope_mb_per_epoch=args.rss_slope_budget,
        ),
    )
    manifest = _manifest_for(
        args,
        "soak",
        tenants=args.tenants,
        attacks_per_tenant=args.attacks,
        epochs=args.epochs,
        epoch_minutes=args.epoch_minutes,
        restart_every=args.restart_every,
        kill_rate=args.kill_rate,
        corrupt_rate=args.corrupt_rate,
        churn_tenants=args.churn_tenants,
        fault_plan=args.fault_plan,
    )
    runner = SoakRunner(
        spec,
        checkpoint_dir=args.checkpoint_dir,
        obs=obs,
        verify=not args.no_verify,
        flight_dir=args.flight_dir or "",
    )
    # The soak watchdog also knows the resource_ceiling objective, so a
    # sentinel breach flips /readyz while the campaign is served.
    server = _start_server(
        args, obs, log, manifest=manifest, slo_rules=SOAK_SLOS
    )
    if server is not None:
        server.set_ready()
    report = runner.run()
    _export_obs(args, obs, log)
    _finish_server(args, server, obs, log)
    print(render_soak_table(report.epochs))
    print()
    print(render_soak_summary(report))
    if not report.healthy:
        return 1
    if runner.verify and not report.verified:
        return 1
    return 0


def _parse_levels(text: str) -> List[float]:
    """Parse the ``chaos`` sweep's comma-separated intensity levels."""
    try:
        levels = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels {text!r} are not comma-separated numbers"
        )
    if not levels or any(level < 0 for level in levels):
        raise argparse.ArgumentTypeError("need non-negative levels")
    return levels


def _cmd_chaos(args: argparse.Namespace) -> int:
    base_plan = load_fault_plan(args.plan)
    # One bundle spans the whole sweep: span ordinals keep the repeated
    # pipeline phases distinct, and counters accumulate across levels.
    obs = _make_obs(args, "chaos")
    log = _logbook_for(args, obs)
    health = {"report": None}
    server = _start_server(
        args, obs, log,
        manifest=_manifest_for(
            args, "chaos", plan=args.plan, levels=list(args.levels)
        ),
        health_source=lambda: health["report"],
    )
    if server is not None:
        server.set_ready()
    testbed = build_testbed(seed=args.seed, topology_params=SCALES[args.scale])
    rng = random.Random(args.seed + 1)
    candidate_ases = sorted(testbed.topology.stubs or testbed.graph.ases)
    placement = make_placement(
        args.distribution, candidate_ases, args.sources, rng
    )
    log.info(
        f"# chaos sweep: plan {base_plan.name!r} at levels "
        f"{', '.join(f'{level:g}' for level in args.levels)}",
        event="chaos_sweep",
        plan=base_plan.name,
    )
    header = (
        f"{'level':>6} {'faults':>7} {'retries':>8} {'degraded':>9} "
        f"{'clusters':>9} {'mean':>6} {'recall':>7} {'precision':>10} "
        f"{'violations':>11}"
    )
    print(header)
    print("-" * len(header))
    worst_violations = 0
    for level in args.levels:
        injector = FaultInjector(base_plan.scaled(level))
        _wire_faults(injector, obs, log)
        tracker = SpoofTracker(
            testbed, workers=args.workers, injector=injector, obs=obs
        )
        try:
            report = tracker.run(
                max_configs=args.max_configs,
                placement=placement,
                measured=args.measured,
            )
        finally:
            tracker.engine.close()
        resilience = report.resilience
        assert resilience is not None
        health["report"] = resilience
        quality = report.localization.evaluate_against(placement)
        worst_violations = max(worst_violations, len(resilience.violations))
        print(
            f"{level:>6g} {resilience.total_faults:>7d} "
            f"{resilience.retries:>8d} {resilience.degraded_configs:>9d} "
            f"{len(report.clusters):>9d} {report.mean_cluster_size:>6.2f} "
            f"{quality.recall:>7.0%} {quality.precision:>10.0%} "
            f"{len(resilience.violations):>11d}"
        )
    _export_obs(args, obs, log)
    _finish_server(args, server, obs, log)
    if worst_violations:
        print(f"\n{worst_violations} invariant violations — see above")
        return 1
    print("\nall invariants held at every fault level")
    return 0


def _iter_sse(stream):
    """Yield event dicts from a server-sent-events byte stream."""
    import json

    data_lines: List[str] = []
    for raw in stream:
        line = raw.decode("utf-8").rstrip("\r\n")
        if line.startswith("data:"):
            data_lines.append(line[len("data:"):].lstrip())
        elif not line and data_lines:
            yield json.loads("\n".join(data_lines))
            data_lines = []


def _cmd_dash(args: argparse.Namespace) -> int:
    from .analysis.dashboard import Dashboard

    dash = Dashboard(tenant=args.tenant or "")
    if args.url:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/events?replay=1"
        if args.limit:
            url += f"&limit={args.limit}"
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                for event in _iter_sse(response):
                    dash.ingest(event)
                    if args.every and dash.events_seen % args.every == 0:
                        print(dash.render())
                        print()
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot read {url}: {exc}", file=sys.stderr)
            return 2
        print(dash.render())
        return 0

    # No --url: drive a seeded local replay and render its event stream.
    from .live import LiveTracebackService, ReplayScenario

    obs = Observability.for_run("dash")
    scenario = ReplayScenario(
        seed=args.seed,
        distribution=args.distribution,
        num_sources=args.sources,
        max_configs=args.max_configs,
    )
    params = replace(SCALES[args.scale], seed=args.seed)
    spec = TestbedSpec(seed=args.seed, topology_params=params)
    service = LiveTracebackService(
        scenario=scenario, spec=spec, obs=obs
    )
    try:
        service.run()
    finally:
        service.close()
    for event in obs.bus.history():
        dash.ingest(event)
    print(dash.render())
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    """Post-mortem forensics: merge run artifacts into one timeline."""
    import json as _json

    from .obs.timeline import build_timeline

    if not (args.trace or args.flight_dir or args.checkpoint_dir):
        print(
            "timeline needs at least one source: --trace, --flight-dir, "
            "or --checkpoint-dir",
            file=sys.stderr,
        )
        return 2
    timeline = build_timeline(
        trace_path=args.trace or "",
        flight_dir=args.flight_dir or "",
        checkpoint_dir=args.checkpoint_dir or "",
    )
    timeline = timeline.filtered(
        tenant=args.tenant or "",
        shard=args.shard or "",
        since=args.since,
    )
    if args.json:
        print(_json.dumps(timeline.as_dict(), indent=2, sort_keys=True))
        return 0
    print(timeline.render(limit=args.limit))
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from .obs import benchgate

    if args.update:
        path = benchgate.write_history(args.bench_dir, args.history)
        print(f"wrote bench history {path}")
        return 0
    try:
        result = benchgate.check_benchmarks(
            args.bench_dir,
            args.history,
            tolerance=args.tolerance,
            absolute_slack=args.absolute_slack,
        )
    except FileNotFoundError as exc:
        print(
            f"no bench history ({exc}); record one with "
            "`spooftrack bench-check --update`",
            file=sys.stderr,
        )
        return 2
    for line in result.summary_lines():
        print(line)
    return 0 if result.passed else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    run = _build_run(args)
    sections: List[str] = []
    for figure_id in sorted(FIGURE_RUNNERS):
        result = FIGURE_RUNNERS[figure_id](run)
        sections.append(figure_markdown(result))
    body = "\n".join(sections)
    if args.output == "-":
        print(body)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(body)
        print(f"wrote {args.output}")
    run.engine.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``spooftrack`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="spooftrack",
        description=(
            "Reproduction of 'Tracking Down Sources of Spoofed IP Packets': "
            "BGP-steered localization of spoofed-traffic sources."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="global PRNG seed")
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="synthetic Internet size",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_workers(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="simulation worker processes (1 = serial; results are identical)",
        )

    def add_run_options(sub: argparse.ArgumentParser) -> None:
        add_workers(sub)
        sub.add_argument(
            "--max-configs", type=int, default=None, help="truncate the schedule"
        )
        sub.add_argument(
            "--measured",
            action="store_true",
            help="use the full measurement pipeline instead of ground truth",
        )

    def add_obs_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="write a JSONL span trace (deterministic span ids)",
        )
        sub.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write a Prometheus-format metrics dump",
        )
        sub.add_argument(
            "--serve",
            type=int,
            default=None,
            metavar="PORT",
            help=(
                "serve live telemetry over HTTP on this port (0 = pick "
                "free): /metrics /healthz /readyz /manifest /traces "
                "/events (SSE)"
            ),
        )
        sub.add_argument(
            "--serve-linger",
            type=float,
            default=0.0,
            metavar="SECONDS",
            help="keep serving this long after the run finishes",
        )
        sub.add_argument(
            "--log-json",
            action="store_true",
            help="structured JSON-lines operational logs on stderr",
        )
        sub.add_argument(
            "--flight-dir",
            default=None,
            metavar="DIR",
            help=(
                "arm the flight recorder: crashes, kills, rollbacks, SLO "
                "breaches, and SIGUSR1 dump checksummed post-mortem "
                "bundles here (read back with `spooftrack timeline`)"
            ),
        )

    def add_fault_plan(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--fault-plan",
            default=None,
            metavar="NAME|PATH",
            help=(
                "inject faults from a bundled plan "
                f"({', '.join(sorted(BUNDLED_PLANS))}) or a JSON plan file"
            ),
        )

    figures = subparsers.add_parser("figures", help="reproduce paper figures")
    figures.add_argument("ids", nargs="*", help="figure ids (default: all)")
    figures.add_argument(
        "--plot", action="store_true", help="also render ASCII plots"
    )
    add_run_options(figures)
    figures.set_defaults(func=_cmd_figures)

    tables = subparsers.add_parser("tables", help="print Tables I and II")
    tables.set_defaults(func=_cmd_tables)

    from .strategy import available_strategies

    track = subparsers.add_parser("track", help="run the localization pipeline")
    track.add_argument(
        "--distribution",
        choices=PLACEMENT_DISTRIBUTIONS,
        default="single",
        help="spoofing-source placement",
    )
    track.add_argument("--sources", type=int, default=1, help="number of sources")
    track.add_argument(
        "--split-threshold",
        type=int,
        default=None,
        help="run the §V-B large-cluster splitter on clusters above this size",
    )
    track.add_argument(
        "--strategy",
        choices=available_strategies(),
        default=None,
        help=(
            "plan the deployment order with this traceback strategy "
            "(default: schedule order)"
        ),
    )
    add_run_options(track)
    add_fault_plan(track)
    add_obs_options(track)
    track.set_defaults(func=_cmd_track)

    compare = subparsers.add_parser(
        "compare",
        help="race registered traceback strategies on one seeded testbed",
    )
    compare.add_argument(
        "--strategies",
        default=None,
        metavar="NAMES",
        help=(
            "comma-separated registry names to race "
            f"(default: all of {', '.join(available_strategies())})"
        ),
    )
    compare.add_argument(
        "--max-configs", type=int, default=None, help="truncate the schedule"
    )
    compare.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the ranked results as a JSON artifact",
    )
    add_workers(compare)
    add_obs_options(compare)
    compare.set_defaults(func=_cmd_compare)

    profile = subparsers.add_parser(
        "profile",
        help="run the pipeline under the profiler and print hotspots",
    )
    profile.add_argument(
        "--distribution",
        choices=PLACEMENT_DISTRIBUTIONS,
        default="single",
        help="spoofing-source placement",
    )
    profile.add_argument(
        "--sources", type=int, default=1, help="number of sources"
    )
    profile.add_argument(
        "--top", type=int, default=15, help="hotspot rows to print"
    )
    add_run_options(profile)
    add_obs_options(profile)
    profile.set_defaults(func=_cmd_profile)

    live = subparsers.add_parser(
        "live",
        help="replay a synthetic attack through the online traceback service",
    )
    live.add_argument(
        "--distribution",
        choices=PLACEMENT_DISTRIBUTIONS,
        default="pareto",
        help="spoofing-source placement",
    )
    live.add_argument(
        "--sources", type=int, default=40, help="number of sources"
    )
    live.add_argument(
        "--max-configs", type=int, default=12, help="truncate the schedule"
    )
    live.add_argument(
        "--window-minutes",
        type=float,
        default=20.0,
        help="honeypot counter-read interval",
    )
    live.add_argument(
        "--batches-per-window",
        type=int,
        default=1,
        help="traffic batches offered to the ingest queue per window",
    )
    live.add_argument(
        "--queue-capacity", type=int, default=64, help="ingest queue bound"
    )
    live.add_argument(
        "--drop-policy",
        choices=("newest", "oldest"),
        default="newest",
        help="which batch to drop when the queue overflows",
    )
    live.add_argument(
        "--in-order",
        action="store_true",
        help="deploy configurations in schedule order (no adaptive reordering)",
    )
    live.add_argument(
        "--strategy",
        choices=available_strategies(),
        default="greedy",
        help="traceback strategy the adaptive controller consults",
    )
    live.add_argument(
        "--min-configs",
        type=int,
        default=3,
        help="never short-circuit before this many configurations",
    )
    live.add_argument(
        "--stop-entropy",
        type=float,
        default=None,
        help="stop once attribution entropy (bits) drops to this",
    )
    live.add_argument(
        "--stop-volume-share",
        type=float,
        default=None,
        help="stop once a singleton cluster holds this estimated-volume share",
    )
    live.add_argument(
        "--churn",
        type=_parse_churn,
        action="append",
        default=[],
        metavar="WINDOW:DRIFT",
        help="schedule route churn (repeatable, e.g. --churn 12:0.3)",
    )
    live.add_argument(
        "--packets-per-window",
        type=int,
        default=0,
        help=">0 switches to packet-sampled traffic at this rate",
    )
    live.add_argument(
        "--nnls-stride",
        type=int,
        default=1,
        help="re-solve attribution NNLS once per N windows (1 = every window)",
    )
    live.add_argument(
        "--checkpoint", default=None, help="checkpoint JSON path"
    )
    live.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="checkpoint every N windows (0 = only final, with --checkpoint)",
    )
    live.add_argument(
        "--resume",
        default=None,
        help="resume from a checkpoint (other scenario flags are ignored)",
    )
    live.add_argument(
        "--table-every",
        type=int,
        default=4,
        help="row stride of the final window table",
    )
    live.add_argument(
        "--quiet",
        action="store_true",
        help="suppress rolling per-window progress on stderr",
    )
    add_fault_plan(live)
    add_obs_options(live)
    live.set_defaults(func=_cmd_live)

    fleet = subparsers.add_parser(
        "fleet",
        help="multiplex many tenants' attack replays through one runtime",
    )
    fleet.add_argument(
        "--tenants", type=int, default=2, help="tenant origin networks"
    )
    fleet.add_argument(
        "--attacks", type=int, default=2, help="concurrent attacks per tenant"
    )
    fleet.add_argument(
        "--distribution",
        choices=PLACEMENT_DISTRIBUTIONS,
        default="pareto",
        help="spoofing-source placement (per attack)",
    )
    fleet.add_argument(
        "--sources", type=int, default=12, help="sources per attack"
    )
    fleet.add_argument(
        "--max-configs", type=int, default=6,
        help="truncate each shard's schedule",
    )
    fleet.add_argument(
        "--window-minutes",
        type=float,
        default=20.0,
        help="per-shard observation window length",
    )
    fleet.add_argument(
        "--stagger-minutes",
        type=float,
        default=0.0,
        help="spread attack launches this many simulated minutes apart",
    )
    fleet.add_argument(
        "--max-active",
        type=int,
        default=0,
        help="admission bound on concurrently live shards (0 = unbounded)",
    )
    fleet.add_argument(
        "--quota",
        type=_parse_quota,
        action="append",
        default=[],
        metavar="TENANT:WEIGHT",
        help="fair-share weight (repeatable, e.g. --quota tenant-00:2.0)",
    )
    fleet.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-shard namespaced checkpoints",
    )
    fleet.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="checkpoint each shard every N windows (needs --checkpoint-dir)",
    )
    fleet.add_argument(
        "--crash",
        type=_parse_indexed_minute,
        action="append",
        default=[],
        metavar="ATTACK:MINUTE",
        help=(
            "kill attack #N's shard at this simulated minute; it resumes "
            "from its checkpoint (repeatable)"
        ),
    )
    fleet.add_argument(
        "--drain",
        type=_parse_indexed_minute,
        action="append",
        default=[],
        metavar="ATTACK:MINUTE",
        help="gracefully finish attack #N's shard at this minute (repeatable)",
    )
    fleet.add_argument(
        "--evict",
        type=_parse_indexed_minute,
        action="append",
        default=[],
        metavar="ATTACK:MINUTE",
        help="remove attack #N's shard at this minute (repeatable)",
    )
    fleet.add_argument(
        "--table-every",
        type=int,
        default=8,
        help="print the rolling tenant table every N fleet windows (0 = never)",
    )
    fleet.add_argument(
        "--quiet",
        action="store_true",
        help="suppress rolling per-window progress on stderr",
    )
    add_fault_plan(fleet)
    add_obs_options(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    soak = subparsers.add_parser(
        "soak",
        help=(
            "long-horizon soak: epochs of restarts, kills, checkpoint "
            "corruption, and schema migration, verified against an "
            "uninterrupted reference digest"
        ),
    )
    soak.add_argument(
        "--tenants", type=int, default=2, help="tenant origin networks"
    )
    soak.add_argument(
        "--attacks", type=int, default=2, help="concurrent attacks per tenant"
    )
    soak.add_argument(
        "--distribution",
        choices=PLACEMENT_DISTRIBUTIONS,
        default="pareto",
        help="spoofing-source placement (per attack)",
    )
    soak.add_argument(
        "--sources", type=int, default=6, help="sources per attack"
    )
    soak.add_argument(
        "--max-configs", type=int, default=3,
        help="truncate each shard's schedule",
    )
    soak.add_argument(
        "--window-minutes",
        type=float,
        default=20.0,
        help="per-shard observation window length",
    )
    soak.add_argument(
        "--epochs", type=int, default=4, help="soak epochs (last one drains)"
    )
    soak.add_argument(
        "--epoch-minutes",
        type=float,
        default=60.0,
        help="simulated minutes per epoch",
    )
    soak.add_argument(
        "--restart-every",
        type=int,
        default=1,
        help="whole-process restart after every Nth epoch (0 = never)",
    )
    soak.add_argument(
        "--kill-rate",
        type=float,
        default=0.25,
        help="per-shard seeded kill probability at each epoch boundary",
    )
    soak.add_argument(
        "--corrupt-rate",
        type=float,
        default=0.25,
        help="per-shard seeded checkpoint-corruption probability per restart",
    )
    soak.add_argument(
        "--churn-tenants",
        type=int,
        default=0,
        help="extra tenants launched mid-campaign and evicted two epochs later",
    )
    soak.add_argument(
        "--fault-plan",
        default="soak-infra",
        metavar="NAME|PATH",
        help=(
            "fault plan escalated per epoch, restricted to its "
            "result-preserving infra faults ('' disables; default "
            "soak-infra)"
        ),
    )
    soak.add_argument(
        "--escalation-base",
        type=float,
        default=0.5,
        help="fault scale at epoch 0",
    )
    soak.add_argument(
        "--escalation-growth",
        type=float,
        default=0.5,
        help="fault scale increase per epoch",
    )
    soak.add_argument(
        "--no-alternate",
        action="store_true",
        help="do not alternate checkpoint schema versions across epochs",
    )
    soak.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the uninterrupted reference run and digest comparison",
    )
    soak.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-shard checkpoints (required)",
    )
    soak.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="checkpoint each shard every N windows",
    )
    soak.add_argument(
        "--keep",
        type=int,
        default=2,
        help="rotated checkpoint generations retained per shard",
    )
    soak.add_argument(
        "--max-rss-mb",
        type=float,
        default=4096.0,
        help="RSS ceiling in MiB (0 disables)",
    )
    soak.add_argument(
        "--max-fds",
        type=int,
        default=1024,
        help="open file descriptor ceiling (0 disables)",
    )
    soak.add_argument(
        "--max-threads",
        type=int,
        default=128,
        help="thread count ceiling (0 disables)",
    )
    soak.add_argument(
        "--rss-slope-budget",
        type=float,
        default=64.0,
        help="RSS leak budget in MiB per epoch across the campaign",
    )
    add_obs_options(soak)
    soak.set_defaults(func=_cmd_soak)

    chaos = subparsers.add_parser(
        "chaos",
        help="sweep a fault plan across intensities (accuracy vs fault rate)",
    )
    chaos.add_argument(
        "--plan",
        default="mixed",
        metavar="NAME|PATH",
        help=(
            "fault plan to sweep: bundled "
            f"({', '.join(sorted(BUNDLED_PLANS))}) or a JSON plan file"
        ),
    )
    chaos.add_argument(
        "--levels",
        type=_parse_levels,
        default=[0.0, 0.25, 0.5, 1.0],
        help="comma-separated rate multipliers (default 0,0.25,0.5,1.0)",
    )
    chaos.add_argument(
        "--distribution",
        choices=PLACEMENT_DISTRIBUTIONS,
        default="single",
        help="spoofing-source placement",
    )
    chaos.add_argument("--sources", type=int, default=1, help="number of sources")
    add_run_options(chaos)
    add_obs_options(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    headline = subparsers.add_parser(
        "headline", help="paper-vs-reproduction headline metrics"
    )
    add_run_options(headline)
    headline.set_defaults(func=_cmd_headline)

    dataset = subparsers.add_parser(
        "dataset", help="export the measured catchment dataset as JSON (§VI)"
    )
    dataset.add_argument(
        "--output", default="spoof-dataset.json", help="output JSON path"
    )
    dataset.add_argument(
        "--paths",
        default=None,
        help="also export per-configuration forwarding paths (JSONL)",
    )
    add_run_options(dataset)
    dataset.set_defaults(func=_cmd_dataset)

    dash = subparsers.add_parser(
        "dash",
        help="ASCII live dashboard over the observability event stream",
    )
    dash.add_argument(
        "--url",
        default=None,
        help="attach to a served exporter (e.g. http://127.0.0.1:8787); "
        "without it a seeded local replay is rendered",
    )
    dash.add_argument(
        "--limit",
        type=int,
        default=0,
        help="with --url: stop after this many events (0 = until close)",
    )
    dash.add_argument(
        "--every",
        type=int,
        default=0,
        help="with --url: re-render after every N events (0 = only at end)",
    )
    dash.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="with --url: socket timeout in seconds",
    )
    dash.add_argument(
        "--tenant",
        default=None,
        help="only render events tagged with this tenant (fleet streams)",
    )
    dash.add_argument(
        "--distribution",
        choices=PLACEMENT_DISTRIBUTIONS,
        default="pareto",
        help="replay mode: spoofing-source placement",
    )
    dash.add_argument(
        "--sources", type=int, default=10,
        help="replay mode: number of sources",
    )
    dash.add_argument(
        "--max-configs", type=int, default=6,
        help="replay mode: truncate the schedule",
    )
    dash.set_defaults(func=_cmd_dash)

    timeline = subparsers.add_parser(
        "timeline",
        help=(
            "post-mortem forensics: merge traces, flight bundles, and "
            "checkpoints into one causally ordered timeline"
        ),
    )
    timeline.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="JSONL span trace to fold in (written by --trace)",
    )
    timeline.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="directory of flight-*.json post-mortem bundles",
    )
    timeline.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="directory of per-shard checkpoints (and rotated generations)",
    )
    timeline.add_argument(
        "--tenant",
        default=None,
        help="keep only rows tagged with this tenant",
    )
    timeline.add_argument(
        "--shard",
        default=None,
        help="keep only rows whose shard label contains this substring",
    )
    timeline.add_argument(
        "--since",
        type=float,
        default=None,
        metavar="MINUTES",
        help="drop rows before this simulated minute (and unaligned rows)",
    )
    timeline.add_argument(
        "--limit",
        type=int,
        default=0,
        help="render only the last N rows (0 = everything)",
    )
    timeline.add_argument(
        "--json",
        action="store_true",
        help="emit the timeline (entries + digest) as JSON instead of text",
    )
    timeline.set_defaults(func=_cmd_timeline)

    bench_check = subparsers.add_parser(
        "bench-check",
        help="gate fresh BENCH_*.json artifacts against recorded history",
    )
    bench_check.add_argument(
        "--bench-dir",
        default="benchmarks",
        help="directory holding BENCH_*.json artifacts",
    )
    bench_check.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="baseline file (default: <bench-dir>/BENCH_history.json)",
    )
    bench_check.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional slowdown per metric (default 0.15)",
    )
    bench_check.add_argument(
        "--absolute-slack",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="ignore deltas below this many seconds (default 0.005)",
    )
    bench_check.add_argument(
        "--update",
        action="store_true",
        help="record the current artifacts as the new baseline",
    )
    bench_check.set_defaults(func=_cmd_bench_check)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate EXPERIMENTS.md figure sections"
    )
    experiments.add_argument(
        "--output", default="-", help="output path ('-' for stdout)"
    )
    add_run_options(experiments)
    experiments.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``spooftrack`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _ACTIVE_FLIGHTS.clear()
    try:
        return args.func(args)
    except FaultInjectionError as exc:
        print(f"fault plan error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # The black box is most valuable at exactly this moment: dump
        # the ring before the traceback unwinds the process.
        for recorder in _ACTIVE_FLIGHTS:
            recorder.dump("crash", context={"error": repr(exc)})
        raise
    finally:
        for recorder in _ACTIVE_FLIGHTS:
            recorder.detach()


if __name__ == "__main__":
    sys.exit(main())
