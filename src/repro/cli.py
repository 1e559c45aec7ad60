"""Command-line front end: ``python -m repro``.

Subcommands mirror the FireSim/FireAxe manager workflow at miniature
scale, operating on circuit files in the textual IR format:

* ``report``    — compile a partition spec and print FireRipper's
  interface/resource/performance feedback,
* ``partition`` — write the per-FPGA partition circuits to files,
* ``simulate``  — run the partitioned co-simulation and report the
  achieved rate (optionally until an output signal asserts);
  ``--backend process`` runs each partition in its own OS worker
  process (results are bit-identical to the in-process loop),
* ``farm``      — the simulated run farm: ``farm plan`` places the
  partitions onto a declarative multi-host manifest (``--hosts``)
  minimizing the modelled cross-host cut, ``farm launch`` deploys one
  virtual-host agent per placed host and supervises the run (host
  deaths roll back and re-place onto the survivors), ``farm status``
  lists archived farm runs,
* ``reliability`` — run a supervised, fault-injected co-simulation over
  reliable links; report the rate degradation versus a fault-free run
  and verify the delivered outputs stayed bit-identical,
* ``trace``     — run with a recording tracer and export a Chrome
  trace-event JSON (load it at https://ui.perfetto.dev); the export is
  streamed record-by-record, ``--gzip`` compresses it on the way out;
  on deadlock, print the postmortem and keep the partial trace,
* ``profile``   — run and print the per-partition FMR breakdown,
  link utilization and the dominant bottleneck,
* ``autopartition`` — run the boundary search and print the resulting
  spec,
* ``experiments`` — alias for ``python -m repro.experiments``,
* ``compare``   — diff two archived runs: rate delta plus the FMR
  attribution of the change (which overhead component absorbed it),
* ``watch``     — follow an in-flight run's live status file
  (``simulate --metrics --live`` writes it, under either backend),
* ``regress``   — the regression gate: re-measure the canonical
  modelled rates against ``results/BENCH_rates.json``, validate the
  committed benchmark bounds, and judge the newest archived run
  against its trajectory; non-zero exit on any violation.

``simulate --metrics N`` samples a deterministic per-partition metric
time-series every N target cycles (identical across backends);
``--archive`` persists the run — config fingerprint, backend, headline
numbers, FMR breakdown, series — under ``results/runs/``.

Example::

    python -m repro report design.fir --extract right --mode exact
    python -m repro simulate design.fir --extract right --cycles 200 \
        --transport pcie
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from .errors import DeadlockError, ReproError
from .fireripper import (
    EXACT,
    FireRipper,
    PartitionGroup,
    PartitionSpec,
    auto_partition,
)
from .firrtl import parse_circuit, print_circuit
from .platform import XILINX_U250
from .observability import (
    RecordingTracer,
    format_profile,
    stream_chrome_trace,
)
from .reliability import (
    FaultSpec,
    RunSupervisor,
    harden_links,
    inject_faults,
)
from .service.executor import TRANSPORTS
from .telemetry import (
    LiveStatus,
    RunRegistry,
    Telemetry,
    compare_runs,
    format_comparison,
    run_gate,
)


def _load(path: str):
    return parse_circuit(Path(path).read_text())


def _spec(args) -> PartitionSpec:
    groups = []
    for i, group in enumerate(args.extract):
        paths = group.split(",")
        groups.append(PartitionGroup.make(f"fpga{i}", paths))
    return PartitionSpec(mode=args.mode, groups=groups)


def _add_common(sub):
    sub.add_argument("circuit", help="circuit file in the textual IR")
    sub.add_argument("--extract", action="append", required=True,
                     metavar="PATHS",
                     help="comma-separated instance paths for one FPGA "
                          "(repeatable)")
    sub.add_argument("--mode", choices=["exact", "fast"], default=EXACT)


def cmd_report(args) -> int:
    circuit = _load(args.circuit)
    design = FireRipper(_spec(args)).compile(
        circuit, profile=XILINX_U250,
        transport=TRANSPORTS[args.transport],
        host_freq_mhz=args.freq)
    print(design.report.to_text())
    return 0


def cmd_partition(args) -> int:
    circuit = _load(args.circuit)
    design = FireRipper(_spec(args)).compile(circuit)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in design.partitions.items():
        path = out_dir / f"{name}.fir"
        path.write_text(print_circuit(part))
        print(f"wrote {path}")
    return 0


def _print_step_plane(sim) -> None:
    """How much of the run the compiled step plane carried — the first
    thing to read when a run is slower than expected."""
    report = sim.last_jit_report
    compiled = sum(v.startswith("compiled") for v in report.values())
    print(f"step plane: {compiled}/{len(report)} partition(s) "
          f"compiled ('repro jit' explains the rest)")


def cmd_simulate(args) -> int:
    circuit = _load(args.circuit)
    design = FireRipper(_spec(args)).compile(circuit)
    telemetry = None
    if args.metrics or args.live or args.archive:
        telemetry = Telemetry(sample_every=args.metrics or 50,
                              live_path=args.live)
    sim = design.build_simulation(
        TRANSPORTS[args.transport], host_freq_mhz=args.freq,
        record_outputs=True, telemetry=telemetry)
    if args.no_jit:
        sim.stepjit = False

    stop = None
    if args.until:
        signal = args.until

        def stop(s):  # noqa: F811
            log = s.output_log.get(("base", "io_out"), [])
            return bool(log) and log[-1].get(signal, 0) == 1

    result = sim.run(args.cycles, stop=stop, backend=args.backend)
    print(f"simulated {result.target_cycles} target cycles "
          f"in {result.wall_ns / 1e3:.1f} us of host time "
          f"[{sim.last_run_backend} backend]")
    _print_step_plane(sim)
    print(f"rate: {result.rate_mhz:.3f} MHz over "
          f"{TRANSPORTS[args.transport].name}")
    print(f"tokens transferred: {result.tokens_transferred}")
    log = sim.output_log.get(("base", "io_out"), [])
    if log:
        print(f"final outputs: {log[-1]}")
    if telemetry is not None:
        series = result.detail.get("telemetry", {}).get("series", {})
        points = sum(len(p) for p in series.values())
        print(f"telemetry: {points} sample point(s) across "
              f"{len(series)} partition(s), "
              f"every {telemetry.sample_every} cycles")
    if args.archive:
        registry = RunRegistry(args.runs_dir)
        config = {"circuit": args.circuit, "extract": args.extract,
                  "mode": args.mode, "transport": args.transport,
                  "freq": args.freq, "cycles": args.cycles}
        path = registry.archive(
            result, name=args.archive,
            backend=sim.last_run_backend or "inproc", config=config,
            extra={"obs": {"step_plane": dict(sim.last_jit_report)}})
        print(f"archived run: {path}")
    return 0


def cmd_jit(args) -> int:
    from .harness.stepjit import generate_sources, stepjit_enabled

    circuit = _load(args.circuit)
    design = FireRipper(_spec(args)).compile(circuit)
    sim = design.build_simulation(
        TRANSPORTS[args.transport], host_freq_mhz=args.freq,
        record_outputs=True)
    enabled = stepjit_enabled(sim)
    print(f"step-plane JIT: {'enabled' if enabled else 'disabled'} "
          f"(REPRO_STEPJIT)")
    for name, (src, reason) in generate_sources(sim).items():
        if src is None:
            print(f"{name}: interpreted — {reason}")
            continue
        lines = len(src.splitlines())
        print(f"{name}: compiled, {lines} lines")
        kernels = [(prefix + unit.name, kernel)
                   for prefix, unit in sim.partitions[name].units
                   for kernel in getattr(unit, "_stepjit_kernels", ()) or ()
                   if kernel is not None]
        for _, kernel in kernels:
            st = kernel._stepjit_stats
            printed = st["cone"] - st["aliases"] - st["inlined"]
            print(f"  kernel {st['kernel']}: {st['cone']} cone assigns -> "
                  f"{printed} printed ({st['aliases']} aliases folded, "
                  f"{st['inlined']} nodes inlined), {st['masks_elided']} "
                  f"masks elided, {st['statements']} statements")
        if args.dump:
            print(src)
            for label, kernel in kernels:
                print(f"# kernel for {label}")
                print(kernel._stepjit_source)
    return 0


def _parse_flaps(entries: List[str]) -> List[tuple]:
    flaps = []
    for entry in entries:
        try:
            start, duration = entry.split(":")
            flaps.append((float(start), float(duration)))
        except ValueError:
            raise ReproError(
                f"--flap wants START_NS:DURATION_NS, got {entry!r}")
    return flaps


def cmd_reliability(args) -> int:
    circuit = _load(args.circuit)
    design = FireRipper(_spec(args)).compile(circuit)
    fault_spec = FaultSpec(
        seed=args.seed,
        drop_rate=args.drop_rate,
        corrupt_rate=args.corrupt_rate,
        spike_rate=args.spike_rate,
        spike_ns=args.spike_ns,
        flaps=tuple(_parse_flaps(args.flap or [])))

    def build(faults=None):
        sim = design.build_simulation(
            TRANSPORTS[args.transport], host_freq_mhz=args.freq,
            record_outputs=True)
        if args.unreliable:
            if faults is not None:
                inject_faults(sim, faults)
        else:
            harden_links(sim, faults)
        return sim

    baseline = build()
    base_result = baseline.run(args.cycles)

    supervised = []  # one per (re)build; the last carried the run home

    def build_supervised():
        supervised.append(build(fault_spec))
        return supervised[-1]

    supervisor = RunSupervisor(
        build_supervised,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        max_rollbacks=args.max_rollbacks,
        crash_at_cycles=args.crash_at or [])
    report = supervisor.run(args.cycles)
    result = report.result

    layer = "raw (unreliable)" if args.unreliable else "reliable"
    print(f"supervised {result.target_cycles} target cycles over "
          f"{layer} {TRANSPORTS[args.transport].name} links")
    _print_step_plane(supervised[-1])
    print(f"fault schedule: seed={fault_spec.seed} "
          f"drop={fault_spec.drop_rate} corrupt={fault_spec.corrupt_rate} "
          f"spike={fault_spec.spike_rate} flaps={len(fault_spec.flaps)}")
    print(f"fault-free rate: {base_result.rate_khz:.2f} kHz")
    print(f"achieved rate:   {result.rate_khz:.2f} kHz "
          f"({result.rate_hz / base_result.rate_hz * 100:.1f}% of "
          f"fault-free)")
    identical = report.output_log == baseline.output_log
    print(f"outputs bit-identical to fault-free run: "
          f"{'yes' if identical else 'NO'}")
    print(f"checkpoints: {report.checkpoints}  "
          f"rollbacks: {report.rollbacks}")
    for key, stats in (result.detail.get("reliability") or {}).items():
        print(f"  {key}: delivered={stats['delivered']} "
              f"retries={stats['retries']} "
              f"drops_recovered={stats['drops_recovered']} "
              f"crc_rejects={stats['crc_rejects']} "
              f"flap_stalls={stats['flap_stalls']}")
    for event in report.events:
        if event.kind in ("crash", "stall", "rollback"):
            print(f"  [{event.kind}@{event.cycle}] {event.note}")
    return 0 if identical or args.unreliable else 1


def _trace_job(args) -> int:
    """``repro trace --job ID``: stitch a service job's scheduler
    spans, event-log fabric events and archived partition spans into
    one Perfetto trace."""
    from .observability import export_job_trace, read_events
    client = _client(args)
    record = client.job(args.job)
    run_record = None
    if record.get("run_id"):
        try:
            run_record = RunRegistry(args.runs_dir).load(
                record["run_id"])
        except ReproError as exc:
            print(f"trace: no archived run record "
                  f"({exc}); partition spans omitted",
                  file=sys.stderr)
    entries = []
    if args.log:
        entries = list(read_events(
            args.log, corr=record.get("corr_id") or None))
    path, count = export_job_trace(args.out, record, run_record,
                                   entries, compress=args.gzip)
    spans = len((run_record or {}).get("obs", {})
                .get("trace_events", []))
    print(f"stitched {count} events for {args.job} "
          f"(corr={record.get('corr_id', '?')}): "
          f"{len(entries)} log entries, {spans} partition spans")
    print(f"wrote {path} (open in https://ui.perfetto.dev or "
          f"chrome://tracing)")
    return 0


def cmd_trace(args) -> int:
    if args.job:
        return _trace_job(args)
    if not args.circuit or not args.extract:
        raise ReproError("trace wants a circuit file with --extract, "
                         "or --job ID")
    circuit = _load(args.circuit)
    design = FireRipper(_spec(args)).compile(circuit)
    tracer = RecordingTracer(capacity=args.events)
    sim = design.build_simulation(
        TRANSPORTS[args.transport], host_freq_mhz=args.freq,
        record_outputs=True, tracer=tracer)
    try:
        result = sim.run(args.cycles)
    except DeadlockError as exc:
        if exc.postmortem is not None:
            print(exc.postmortem.to_text(), file=sys.stderr)
        path = stream_chrome_trace(tracer.events, args.out,
                                   compress=args.gzip)
        print(f"wrote partial trace to {path}", file=sys.stderr)
        raise
    path = stream_chrome_trace(tracer.events, args.out,
                               compress=args.gzip)
    print(f"simulated {result.target_cycles} target cycles at "
          f"{result.rate_khz:.2f} kHz over "
          f"{TRANSPORTS[args.transport].name}")
    _print_step_plane(sim)
    print(f"trace: kept {len(tracer.events)} of "
          f"{tracer.total_emitted} events")
    for kind, count in sorted(tracer.counts().items()):
        print(f"  {kind:14s} {count}")
    print(f"wrote {path} (open in https://ui.perfetto.dev or "
          f"chrome://tracing)")
    return 0


def cmd_profile(args) -> int:
    circuit = _load(args.circuit)
    design = FireRipper(_spec(args)).compile(circuit)
    sim = design.build_simulation(
        TRANSPORTS[args.transport], host_freq_mhz=args.freq)
    result = sim.run(args.cycles)
    print(f"transport: {TRANSPORTS[args.transport].name}")
    _print_step_plane(sim)
    print(format_profile(result))
    return 0


def cmd_experiments(args) -> int:
    from .experiments.runner import main as experiments_main
    return experiments_main(args.rest)


def cmd_compare(args) -> int:
    registry = RunRegistry(args.runs_dir)
    comparison = compare_runs(registry.load(args.run_a),
                              registry.load(args.run_b))
    print(format_comparison(comparison))
    return 0


def _service_config(args):
    from .service import ServiceConfig, TenantQuota
    quotas = {}
    for entry in args.quota or []:
        tenant, _, spec = entry.partition(":")
        if not tenant or not spec:
            raise ReproError(
                f"--quota wants TENANT:QUEUED:ACTIVE, got {entry!r}")
        quotas[tenant] = TenantQuota.parse(spec)
    default = TenantQuota.parse(args.default_quota) \
        if args.default_quota else TenantQuota()
    return ServiceConfig(
        workers=args.workers, runs_dir=args.runs_dir,
        live_dir=args.live_dir, metrics_every=args.metrics,
        default_quota=default, quotas=quotas,
        event_log=args.event_log, trace_events=args.trace_events)


def cmd_serve(args) -> int:
    import asyncio

    from .service import ServiceServer, SimulationService

    config = _service_config(args)

    async def amain() -> None:
        service = SimulationService(config)
        await service.start()
        server = ServiceServer(service, host=args.host,
                               port=args.port)
        await server.start()
        print(f"repro service on {args.host}:{server.port} — "
              f"{max(1, config.workers)} worker(s), "
              f"cache at {service.registry.root}", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()
            await service.shutdown()

    try:
        asyncio.run(amain())
    except KeyboardInterrupt:
        print("service stopped", file=sys.stderr)
    return 0


def _client(args):
    from .service import ServiceClient, parse_server
    host, port = parse_server(args.server)
    return ServiceClient(host, port)


def _print_job(record: dict) -> None:
    line = (f"{record['job_id']} [{record['state']}] "
            f"tenant={record['tenant']} fp={record['fingerprint']}")
    if record.get("source"):
        line += f" source={record['source']}"
    if record.get("corr_id"):
        line += f" corr={record['corr_id']}"
    print(line)
    phases = [(label, record.get(key)) for label, key in
              (("queue", "queue_wait_s"), ("cache", "cache_lookup_s"),
               ("exec", "execution_s"))]
    shown = [f"{label} {value * 1e3:.1f}ms"
             for label, value in phases if value is not None]
    if shown:
        print("  " + "  ".join(shown))
    result = record.get("result")
    if result and result.get("run_id"):
        print(f"  run {result['run_id']}: "
              f"{result['target_cycles']} cycles at "
              f"{result.get('rate_hz', 0.0) / 1e3:.2f} kHz "
              f"[{result.get('backend', '?')}]")
    elif result and result.get("partial"):
        print(f"  cancelled after {result['target_cycles']} cycles")
    if record.get("error"):
        print(f"  error: {record['error']}")


def _submit_config(args) -> dict:
    if args.config:
        import json
        try:
            return json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot load --config "
                             f"{args.config!r}: {exc}")
    if args.experiment:
        return {"kind": "experiment", "experiment": args.experiment}
    if not args.circuit:
        raise ReproError("submit wants a circuit file, "
                         "--experiment NAME, or --config FILE")
    config = {"kind": "simulate", "extract": args.extract or [],
              "mode": args.mode, "transport": args.transport,
              "freq": args.freq, "cycles": args.cycles,
              "backend": args.backend}
    if args.inline:
        # ship the IR itself so the service need not share a
        # filesystem with the submitter
        config["circuit_text"] = Path(args.circuit).read_text()
    else:
        config["circuit"] = args.circuit
    return config


def cmd_submit(args) -> int:
    from .service import TERMINAL
    client = _client(args)
    record = client.submit(_submit_config(args), tenant=args.tenant,
                           priority=args.priority, name=args.name)
    _print_job(record)
    if not args.wait:
        return 0 if record["state"] != "failed" else 1
    if record["state"] not in TERMINAL:
        record = client.wait(record["job_id"], timeout=args.timeout)
        if record.get("timed_out"):
            print(f"wait: timed out after {args.timeout:g}s "
                  f"(job still {record['state']})", file=sys.stderr)
            return 1
        _print_job(record)
    return 0 if record["state"] == "done" else 1


def cmd_jobs(args) -> int:
    client = _client(args)
    records = client.jobs(tenant=args.tenant)
    if not records:
        print("no jobs")
        return 0
    for record in records:
        _print_job(record)
    stats = client.stats()["counters"]
    print(f"{len(records)} job(s)  "
          f"executions={stats['executions']} "
          f"cache_hits={stats['cache_hits']} "
          f"coalesced={stats['coalesced']}")
    return 0


def cmd_cancel(args) -> int:
    client = _client(args)
    record = client.cancel(args.job_id)
    _print_job(record)
    return 0


def cmd_tail(args) -> int:
    """Print (or follow) the observability event log, optionally
    narrowed to one correlation id, tenant, or event kind."""
    from .observability import follow_events, format_event, read_events
    selection = dict(corr=args.corr, tenant=args.tenant,
                     kinds=args.kind or None)
    events = follow_events(args.log, timeout=args.timeout,
                           **selection) if args.follow \
        else read_events(args.log, **selection)
    count = 0
    try:
        for event in events:
            print(format_event(event), flush=True)
            count += 1
    except KeyboardInterrupt:
        pass
    if count == 0 and not args.follow:
        print("no matching events", file=sys.stderr)
    return 0


def _print_top(stats: dict) -> None:
    counters = stats.get("counters", {})
    metrics = stats.get("metrics", {})
    gauges = metrics.get("gauges", {})
    submitted = counters.get("submitted", 0)
    hits = counters.get("cache_hits", 0)
    rate = hits / submitted * 100.0 if submitted else 0.0
    print(f"workers={gauges.get('workers', 0)} "
          f"active={gauges.get('active_jobs', 0)} "
          f"submitted={submitted} "
          f"executions={counters.get('executions', 0)} "
          f"cache_hits={hits} ({rate:.1f}%) "
          f"coalesced={counters.get('coalesced', 0)} "
          f"rejected={counters.get('rejected', 0)}")
    depths = gauges.get("queue_depth", {})
    if depths:
        queued = "  ".join(f"{tenant}={depth}"
                           for tenant, depth in sorted(depths.items()))
        print(f"queue depth: {queued}")
    latency = metrics.get("latency", {})
    rows = sorted((tenant, phase, snap)
                  for phase, per_tenant in latency.items()
                  for tenant, snap in per_tenant.items())
    if rows:
        print(f"{'tenant':<12} {'phase':<14} {'count':>6} "
              f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}")
    for tenant, phase, snap in rows:
        print(f"{tenant:<12} {phase:<14} {snap['count']:>6} "
              f"{snap['p50'] * 1e3:>9.2f} {snap['p95'] * 1e3:>9.2f} "
              f"{snap['p99'] * 1e3:>9.2f}")


def cmd_top(args) -> int:
    """Live service overview: queue depths, per-tenant latency
    quantiles, and cache-hit rate.  ``--once`` prints one snapshot."""
    client = _client(args)
    try:
        while True:
            stats = client.stats()
            _print_top(stats)
            if args.once:
                return 0
            time.sleep(args.interval)
            print()
    except KeyboardInterrupt:
        return 0


def cmd_runs_list(args) -> int:
    registry = RunRegistry(args.runs_dir)
    entries = registry.index()
    if args.fingerprint:
        entries = {run_id: entry
                   for run_id, entry in entries.items()
                   if entry.get("fingerprint") == args.fingerprint}
    if not entries:
        print(f"no archived runs under {registry.root}")
        return 0
    for run_id in sorted(entries,
                         key=lambda r: entries[r].get("created", "")):
        entry = entries[run_id]
        created = entry.get("created")
        when = time.strftime("%Y-%m-%d %H:%M",
                             time.localtime(created)) \
            if isinstance(created, (int, float)) else "?"
        print(f"{run_id}: fp={entry.get('fingerprint', '?')} "
              f"{entry.get('target_cycles', 0)} cycles  "
              f"rate {entry.get('rate_hz', 0.0) / 1e3:.2f} kHz  "
              f"{entry.get('bytes', 0)} bytes  {when}")
    print(f"{len(entries)} run(s), "
          f"{registry.total_bytes()} bytes total")
    return 0


def cmd_runs_gc(args) -> int:
    registry = RunRegistry(args.runs_dir)
    max_age_s = args.max_age_days * 86400.0 \
        if args.max_age_days is not None else None
    pruned = registry.gc(max_age_s=max_age_s, keep=args.keep,
                         max_bytes=args.max_bytes,
                         dry_run=args.dry_run)
    verb = "would prune" if args.dry_run else "pruned"
    for run_id in pruned:
        print(f"{verb} {run_id}")
    kept = len(registry.index())
    print(f"{verb} {len(pruned)} run(s); {kept} kept, "
          f"{registry.total_bytes()} bytes")
    return 0


def _print_live(payload: dict) -> None:
    """One line of an in-flight run's live status."""
    frontier = payload.get("frontier_cycle", 0)
    target = payload.get("target_cycles")
    progress = (f" / {target} ({frontier / target * 100.0:.1f}%)"
                if target else "")
    print(f"[{payload.get('backend', '?')}] "
          f"cycle {frontier}{progress}  "
          f"rate {payload.get('rate_hz', 0.0) / 1e3:.2f} kHz  "
          f"{payload.get('status', '?')}")


def _watch_job(args) -> int:
    """Follow one service job: its live-status file while it runs,
    falling back to state polling, until it is terminal."""
    from .service import TERMINAL
    client = _client(args)
    deadline = time.monotonic() + args.timeout
    last_updated = None
    last_state = None
    while True:
        record = client.job(args.job)
        if record["state"] != last_state:
            last_state = record["state"]
            print(f"{record['job_id']}: {record['state']}")
        live_path = record.get("live_path")
        payload = LiveStatus.read(live_path) if live_path else None
        if payload is not None \
                and payload.get("updated") != last_updated:
            last_updated = payload.get("updated")
            _print_live(payload)
        if record["state"] in TERMINAL:
            _print_job(record)
            return 0 if record["state"] == "done" else 1
        if args.once:
            return 0
        if time.monotonic() > deadline:
            print("watch: timed out", file=sys.stderr)
            return 1
        time.sleep(args.poll)


def cmd_watch(args) -> int:
    """Follow a live-status file until the run finishes (or times
    out).  ``--once`` prints a single snapshot — scripts and tests use
    it to poll without blocking.  ``--job ID --server HOST:PORT``
    follows a service job instead (reusing the job's own live-status
    file when the service keeps one)."""
    if args.job:
        return _watch_job(args)
    deadline = time.monotonic() + args.timeout
    last_updated = None
    while True:
        payload = LiveStatus.read(args.status)
        if payload is not None \
                and payload.get("updated") != last_updated:
            last_updated = payload.get("updated")
            _print_live(payload)
            if payload.get("status") == "done":
                return 0
        if args.once:
            if payload is None:
                print(f"watch: no status at {args.status}",
                      file=sys.stderr)
                return 1
            return 0
        if time.monotonic() > deadline:
            print("watch: timed out", file=sys.stderr)
            return 1
        time.sleep(args.poll)


def cmd_regress(args) -> int:
    report = run_gate(results_dir=args.results_dir,
                      threshold=args.threshold,
                      inject_slowdown=args.inject_slowdown,
                      update=args.update,
                      runs_dir=args.runs_dir)
    print(report.to_text(args.threshold))
    return 0 if report.ok else 1


def _farm_spec(args):
    from .farm import FarmSpec
    return FarmSpec.from_file(args.hosts)


def _parse_colocate(entries: Optional[List[str]]) -> List[List[str]]:
    return [entry.split(",") for entry in (entries or [])]


def _parse_kills(entries: Optional[List[str]]) -> dict:
    kills = {}
    for entry in entries or []:
        host, _, pass_no = entry.rpartition(":")
        try:
            kills[host] = int(pass_no)
        except ValueError:
            host = ""
        if not host:
            raise ReproError(
                f"--kill-host wants HOST:PASS, got {entry!r}")
    return kills


def _print_placement(placement, spec) -> None:
    by_host = placement.by_host()
    for host in sorted(by_host):
        cores = spec.hosts[host].cores
        parts = by_host[host]
        print(f"  {host} ({len(parts)}/{cores} cores): "
              f"{', '.join(parts)}")
    if placement.groups:
        groups = "; ".join(",".join(g) for g in placement.groups)
        print(f"  co-location groups honoured: {groups}")
    print(f"  cross-host links: {placement.cross_links}  "
          f"modelled cut: {placement.cut_cost_ns:.1f} ns/token")


def cmd_farm_plan(args) -> int:
    circuit = _load(args.circuit)
    design = FireRipper(_spec(args)).compile(circuit)
    sim = design.build_simulation(
        TRANSPORTS[args.transport], host_freq_mhz=args.freq)
    spec = _farm_spec(args)
    from .farm import place_sim
    placement = place_sim(sim, spec, _parse_colocate(args.colocate))
    hosts = spec.live_hosts()
    print(f"farm: {len(hosts)} live host(s), "
          f"{spec.total_cores()} cores "
          f"(default link: {spec.default_link})")
    print(f"placement of {len(placement.assignment)} partition(s) "
          f"onto {len(placement.hosts_used())} host(s):")
    _print_placement(placement, spec)
    return 0


def cmd_farm_launch(args) -> int:
    circuit = _load(args.circuit)
    design = FireRipper(_spec(args)).compile(circuit)
    spec = _farm_spec(args)

    def build():
        return design.build_simulation(
            TRANSPORTS[args.transport], host_freq_mhz=args.freq,
            record_outputs=True)

    from .farm import FarmManager
    manager = FarmManager(
        build, spec,
        colocate=_parse_colocate(args.colocate),
        checkpoint_every=args.checkpoint_every,
        max_rollbacks=args.max_rollbacks,
        heartbeat_timeout=args.heartbeat_timeout,
        host_faults=_parse_kills(args.kill_host))
    registry = RunRegistry(args.runs_dir) if args.archive else None
    report = manager.launch(args.cycles, registry=registry,
                            run_name=args.archive or "farm")
    result = report.result
    print(f"simulated {result.target_cycles} target cycles across "
          f"{len(report.placement.hosts_used())} host(s) "
          f"at {result.rate_khz:.2f} kHz")
    for i, placement in enumerate(report.placements):
        label = "placement" if len(report.placements) == 1 \
            else f"placement #{i + 1}"
        print(f"{label}:")
        _print_placement(placement, spec)
    if report.dead_hosts:
        print(f"hosts lost mid-run: {', '.join(report.dead_hosts)} "
              f"(recovered by {report.supervisor.rollbacks} "
              f"rollback(s) onto {', '.join(report.live_hosts)})")
    for host in sorted(report.host_fmr):
        fmr = report.host_fmr[host]
        total = sum(fmr.values())
        top = max(fmr, key=fmr.get) if fmr else "-"
        print(f"  FMR[{host}]: {total:.2f} (dominant: {top})")
    if report.archive_path:
        print(f"archived run: {report.archive_path}")
    return 0


def cmd_farm_status(args) -> int:
    registry = RunRegistry(args.runs_dir)
    records = [r for r in registry.list_runs() if "farm" in r]
    if not records:
        print(f"no archived farm runs under {registry.root}")
        return 0
    for record in records:
        farm = record["farm"]
        placements = farm.get("placements", [])
        hosts = sorted(placements[-1]["by_host"]) if placements else []
        dead = farm.get("dead_hosts", [])
        note = f"  lost: {','.join(dead)}" if dead else ""
        print(f"{record.get('run_id', '?')}: "
              f"{record.get('target_cycles', 0)} cycles on "
              f"{','.join(hosts) or '?'}  "
              f"rate {record.get('rate_hz', 0.0) / 1e3:.2f} kHz  "
              f"rollbacks {farm.get('rollbacks', 0)}{note}")
    return 0


def cmd_autopartition(args) -> int:
    circuit = _load(args.circuit)
    result = auto_partition(circuit, n_fpgas=args.fpgas, mode=args.mode,
                            keep_in_base=args.keep or [])
    print(result.to_text())
    return 0


def cmd_fuzz_run(args) -> int:
    from .fuzz import ALL_SHAPES, FuzzConfig, GeneratorKnobs, run_campaign

    shapes = tuple(args.shapes.split(",")) if args.shapes \
        else ALL_SHAPES
    config = FuzzConfig(
        seed=args.seed, budget=args.budget,
        start_index=args.start_index,
        oracles=tuple(args.oracles.split(",")) if args.oracles
        else FuzzConfig.oracles,
        backends=tuple(args.backends.split(",")) if args.backends
        else FuzzConfig.backends,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        knobs=GeneratorKnobs(shapes=shapes))
    registry = RunRegistry(args.runs_dir) if args.archive else None
    report = run_campaign(config, registry=registry,
                          progress=print if args.verbose else None)
    summary = report.summary()
    print(f"fuzz: {summary['scenarios']} scenario(s) from seed "
          f"{config.seed}, oracles {','.join(config.oracles)}, "
          f"backends {','.join(config.backends)}")
    print(f"shapes: " + ", ".join(
        f"{shape}={count}"
        for shape, count in sorted(summary["shapes"].items())))
    print(f"elapsed: {summary['elapsed_s']:.1f}s"
          + ("  (stopped early)" if summary["stopped_early"] else ""))
    for outcome in report.errors:
        print(f"  error [{outcome.index}] {outcome.shape}: "
              f"{outcome.message}", file=sys.stderr)
    for outcome in report.failures:
        print(f"  FAILED [{outcome.index}] {outcome.shape}: "
              f"{outcome.message}", file=sys.stderr)
        if outcome.repro_path:
            print(f"    repro: {outcome.repro_path}  "
                  f"(replay with: repro fuzz replay "
                  f"{outcome.repro_path})", file=sys.stderr)
    if report.ok:
        print("no disagreements found")
    return 0 if report.ok else 1


def cmd_fuzz_replay(args) -> int:
    from .errors import FuzzFailure
    from .fuzz import replay

    oracles = tuple(args.oracles.split(",")) if args.oracles else None
    try:
        notes = replay(args.repro, oracles=oracles)
    except FuzzFailure as exc:
        print(f"still failing: {exc}", file=sys.stderr)
        return 1
    print(f"repro replays clean: {args.repro}")
    for oracle, note in notes.items():
        status = note.get("status") or "ok"
        print(f"  {oracle}: {status}")
    return 0


def cmd_fuzz_corpus(args) -> int:
    from .fuzz import list_corpus

    entries = list_corpus(args.corpus)
    if not entries:
        print(f"no repros under {args.corpus}")
        return 0
    for e in entries:
        backend = f" backend={e['backend']}" if e["backend"] else ""
        print(f"{e['path']}: {e['oracle']}{backend} "
              f"{e['shape']} seed={e['seed']} index={e['index']} "
              f"{e['num_partitions']} partition(s), "
              f"{e['cycles']} cycles")
    print(f"{len(entries)} repro(s)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FireAxe reproduction: partition and co-simulate "
                    "RTL designs across modelled FPGAs.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_report = subs.add_parser("report", help="compile + print feedback")
    _add_common(p_report)
    p_report.add_argument("--transport", choices=TRANSPORTS,
                          default="qsfp")
    p_report.add_argument("--freq", type=float, default=30.0,
                          help="bitstream frequency in MHz")
    p_report.set_defaults(fn=cmd_report)

    p_part = subs.add_parser("partition",
                             help="write per-FPGA circuit files")
    _add_common(p_part)
    p_part.add_argument("--out", default="partitions",
                        help="output directory")
    p_part.set_defaults(fn=cmd_partition)

    p_sim = subs.add_parser("simulate", help="run the co-simulation")
    _add_common(p_sim)
    p_sim.add_argument("--transport", choices=TRANSPORTS, default="qsfp")
    p_sim.add_argument("--freq", type=float, default=30.0)
    p_sim.add_argument("--cycles", type=int, default=1000)
    p_sim.add_argument("--until", metavar="SIGNAL",
                       help="stop when this base output reads 1")
    p_sim.add_argument("--backend",
                       choices=["auto", "inproc", "process"],
                       default="auto",
                       help="execution engine: 'process' runs one OS "
                            "worker per partition (default: auto, "
                            "honouring REPRO_BACKEND)")
    p_sim.add_argument("--metrics", type=int, default=0, metavar="N",
                       help="sample a deterministic metric time-series "
                            "every N target cycles (0: off)")
    p_sim.add_argument("--live", metavar="FILE",
                       help="keep a live status file up to date while "
                            "the run progresses (repro watch reads it; "
                            "implies --metrics 50 unless given)")
    p_sim.add_argument("--archive", metavar="NAME",
                       help="archive the run under the run registry "
                            "with this name (implies --metrics 50 "
                            "unless given)")
    p_sim.add_argument("--runs-dir", default="results/runs",
                       help="run registry directory "
                            "(default: results/runs)")
    p_sim.add_argument("--no-jit", action="store_true",
                       help="run the interpreted wavefront loop instead "
                            "of the compiled step functions (results "
                            "are bit-identical either way; the "
                            "interpreter keeps every combinational "
                            "signal peekable between passes)")
    p_sim.set_defaults(fn=cmd_simulate)

    p_jit = subs.add_parser(
        "jit",
        help="explain/dump the compiled step plane for a design")
    _add_common(p_jit)
    p_jit.add_argument("--transport", choices=TRANSPORTS, default="qsfp")
    p_jit.add_argument("--freq", type=float, default=30.0)
    p_jit.add_argument("--dump", action="store_true",
                       help="print the generated step-function and "
                            "RTL-kernel sources")
    p_jit.set_defaults(fn=cmd_jit)

    p_rel = subs.add_parser(
        "reliability",
        help="supervised fault-injected co-simulation over reliable "
             "links")
    _add_common(p_rel)
    p_rel.add_argument("--transport", choices=TRANSPORTS, default="qsfp")
    p_rel.add_argument("--freq", type=float, default=30.0)
    p_rel.add_argument("--cycles", type=int, default=200)
    p_rel.add_argument("--seed", type=int, default=0,
                       help="fault schedule seed")
    p_rel.add_argument("--drop-rate", type=float, default=0.0)
    p_rel.add_argument("--corrupt-rate", type=float, default=0.0)
    p_rel.add_argument("--spike-rate", type=float, default=0.0)
    p_rel.add_argument("--spike-ns", type=float, default=20_000.0)
    p_rel.add_argument("--flap", action="append",
                       metavar="START_NS:DURATION_NS",
                       help="link outage window (repeatable)")
    p_rel.add_argument("--checkpoint-every", type=int, default=100,
                       help="target cycles between checkpoints")
    p_rel.add_argument("--checkpoint-dir",
                       help="also persist checkpoints to this directory")
    p_rel.add_argument("--max-rollbacks", type=int, default=3)
    p_rel.add_argument("--crash-at", action="append", type=int,
                       metavar="CYCLE",
                       help="inject a one-shot host crash (repeatable)")
    p_rel.add_argument("--unreliable", action="store_true",
                       help="skip the reliable link layer (faults then "
                            "corrupt results or deadlock the run)")
    p_rel.set_defaults(fn=cmd_reliability)

    p_trace = subs.add_parser(
        "trace",
        help="run with a recording tracer and export Chrome trace "
             "JSON, or stitch a service job's cross-process trace "
             "with --job")
    p_trace.add_argument("circuit", nargs="?",
                         help="circuit file in the textual IR "
                              "(omit with --job)")
    p_trace.add_argument("--extract", action="append",
                         metavar="PATHS",
                         help="comma-separated instance paths for one "
                              "FPGA (repeatable)")
    p_trace.add_argument("--mode", choices=["exact", "fast"],
                         default=EXACT)
    p_trace.add_argument("--transport", choices=TRANSPORTS,
                         default="qsfp")
    p_trace.add_argument("--freq", type=float, default=30.0)
    p_trace.add_argument("--cycles", type=int, default=200)
    p_trace.add_argument("--out", default="trace.json",
                         help="trace-event JSON output path")
    p_trace.add_argument("--events", type=int, default=None,
                         metavar="N",
                         help="ring-buffer capacity (default: keep all)")
    p_trace.add_argument("--gzip", action="store_true",
                         help="gzip the streamed export (.gz appended "
                              "to the output name; Perfetto opens "
                              ".json.gz directly)")
    p_trace.add_argument("--job", metavar="JOB_ID",
                         help="stitch this service job's scheduler, "
                              "event-log and partition spans into one "
                              "trace instead of running a circuit")
    p_trace.add_argument("--server", default="127.0.0.1",
                         metavar="HOST[:PORT]",
                         help="service endpoint for --job "
                              "(default: 127.0.0.1:8642)")
    p_trace.add_argument("--runs-dir", default="results/runs",
                         help="run registry holding the job's archived "
                              "partition spans (default: results/runs)")
    p_trace.add_argument("--log", default=None, metavar="FILE",
                         help="service event log to fold queue/worker "
                              "events from (--job only)")
    p_trace.set_defaults(fn=cmd_trace)

    p_prof = subs.add_parser(
        "profile",
        help="run and print the FMR breakdown / bottleneck report")
    _add_common(p_prof)
    p_prof.add_argument("--transport", choices=TRANSPORTS,
                        default="qsfp")
    p_prof.add_argument("--freq", type=float, default=30.0)
    p_prof.add_argument("--cycles", type=int, default=200)
    p_prof.set_defaults(fn=cmd_profile)

    p_exp = subs.add_parser(
        "experiments",
        help="regenerate the paper's tables/figures "
             "(alias for python -m repro.experiments; supports "
             "--jobs N for parallel experiments)")
    p_exp.add_argument("rest", nargs=argparse.REMAINDER,
                       help="arguments for repro.experiments "
                            "(names, --out, --profile, --jobs)")
    p_exp.set_defaults(fn=cmd_experiments)

    p_cmp = subs.add_parser(
        "compare",
        help="diff two archived runs: rate delta + FMR attribution")
    p_cmp.add_argument("run_a", help="baseline run id (or run.json path)")
    p_cmp.add_argument("run_b", help="new run id (or run.json path)")
    p_cmp.add_argument("--runs-dir", default="results/runs")
    p_cmp.set_defaults(fn=cmd_compare)

    p_watch = subs.add_parser(
        "watch",
        help="follow an in-flight run's live status file (or a "
             "service job)")
    p_watch.add_argument("status", nargs="?", default="results/live.json",
                         help="status file written by simulate --live "
                              "(default: results/live.json)")
    p_watch.add_argument("--job", metavar="JOB_ID",
                         help="follow this service job instead of a "
                              "status file (needs --server)")
    p_watch.add_argument("--server", default="127.0.0.1",
                         metavar="HOST[:PORT]",
                         help="service endpoint for --job "
                              "(default: 127.0.0.1:8642)")
    p_watch.add_argument("--poll", type=float, default=0.25,
                         help="poll interval in seconds")
    p_watch.add_argument("--timeout", type=float, default=300.0,
                         help="give up after this many seconds")
    p_watch.add_argument("--once", action="store_true",
                         help="print one snapshot and exit")
    p_watch.set_defaults(fn=cmd_watch)

    p_serve = subs.add_parser(
        "serve",
        help="run the multi-tenant simulation service: JSON-over-HTTP "
             "job queue with per-tenant quotas and a fingerprint-keyed "
             "result cache over the run registry")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (default: 8642; 0 picks a "
                              "free port)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent simulation executions "
                              "(default: 2)")
    p_serve.add_argument("--runs-dir", default="results/runs",
                         help="run registry that is both archive and "
                              "result cache (default: results/runs)")
    p_serve.add_argument("--live-dir", default=None, metavar="DIR",
                         help="keep one live-status file per executed "
                              "job here (repro watch --job follows it)")
    p_serve.add_argument("--metrics", type=int, default=0, metavar="N",
                         help="telemetry sample interval for executed "
                              "jobs (0: none unless --live-dir)")
    p_serve.add_argument("--quota", action="append",
                         metavar="TENANT:QUEUED:ACTIVE",
                         help="per-tenant quota override (repeatable)")
    p_serve.add_argument("--default-quota", metavar="QUEUED:ACTIVE",
                         help="quota for tenants without an override "
                              "(default: 16:64)")
    p_serve.add_argument("--event-log", default=None, metavar="FILE",
                         help="append structured lifecycle events to "
                              "this JSONL file (repro tail reads it; "
                              "default: no event log)")
    p_serve.add_argument("--trace-events", type=int, default=0,
                         metavar="N",
                         help="record up to N tracer spans per "
                              "executed job for repro trace --job "
                              "(default: 0, tracing off)")
    p_serve.set_defaults(fn=cmd_serve)

    p_sub = subs.add_parser(
        "submit",
        help="submit a job to a running service (cache hits return "
             "archived results without simulating)")
    p_sub.add_argument("circuit", nargs="?",
                       help="circuit file for a simulate job")
    p_sub.add_argument("--extract", action="append", metavar="PATHS",
                       help="comma-separated instance paths for one "
                            "FPGA (repeatable)")
    p_sub.add_argument("--mode", choices=["exact", "fast"],
                       default=EXACT)
    p_sub.add_argument("--transport", choices=TRANSPORTS,
                       default="qsfp")
    p_sub.add_argument("--freq", type=float, default=30.0)
    p_sub.add_argument("--cycles", type=int, default=1000)
    p_sub.add_argument("--backend",
                       choices=["auto", "inproc", "process"],
                       default="auto")
    p_sub.add_argument("--inline", action="store_true",
                       help="send the circuit text itself instead of "
                            "its path (service on another filesystem)")
    p_sub.add_argument("--experiment", metavar="NAME",
                       help="submit a paper experiment instead of a "
                            "circuit")
    p_sub.add_argument("--config", metavar="FILE",
                       help="submit a raw job config JSON file")
    p_sub.add_argument("--server", default="127.0.0.1",
                       metavar="HOST[:PORT]",
                       help="service endpoint "
                            "(default: 127.0.0.1:8642)")
    p_sub.add_argument("--tenant", default="default")
    p_sub.add_argument("--priority", type=int, default=0,
                       help="higher runs first (default: 0)")
    p_sub.add_argument("--name", default="",
                       help="archive name for the run record")
    p_sub.add_argument("--wait", action="store_true",
                       help="block until the job is terminal; exit 0 "
                            "only on done")
    p_sub.add_argument("--timeout", type=float, default=300.0,
                       help="--wait deadline in seconds")
    p_sub.set_defaults(fn=cmd_submit)

    p_jobs = subs.add_parser(
        "jobs", help="list a running service's jobs")
    p_jobs.add_argument("--server", default="127.0.0.1",
                        metavar="HOST[:PORT]")
    p_jobs.add_argument("--tenant", default=None,
                        help="only this tenant's jobs")
    p_jobs.set_defaults(fn=cmd_jobs)

    p_tail = subs.add_parser(
        "tail",
        help="print or follow a service event log (one line per "
             "lifecycle event, filterable by corr id / tenant / kind)")
    p_tail.add_argument("log", help="event log JSONL path "
                                    "(serve --event-log FILE)")
    p_tail.add_argument("--corr", default=None, metavar="CORR_ID",
                        help="only events with this correlation id")
    p_tail.add_argument("--tenant", default=None,
                        help="only this tenant's events")
    p_tail.add_argument("--kind", action="append", metavar="KIND",
                        help="only these event kinds (repeatable)")
    p_tail.add_argument("--follow", "-f", action="store_true",
                        help="keep reading as the log grows")
    p_tail.add_argument("--timeout", type=float, default=None,
                        metavar="S",
                        help="stop following after this many idle "
                             "seconds (default: follow forever)")
    p_tail.set_defaults(fn=cmd_tail)

    p_top = subs.add_parser(
        "top",
        help="live service overview: queue depths, per-tenant "
             "latency quantiles, cache-hit rate")
    p_top.add_argument("--server", default="127.0.0.1",
                       metavar="HOST[:PORT]",
                       help="service endpoint (default: 127.0.0.1:8642)")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="refresh interval in seconds (default: 2)")
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot and exit")
    p_top.set_defaults(fn=cmd_top)

    p_cancel = subs.add_parser(
        "cancel", help="cancel a service job (queued or running)")
    p_cancel.add_argument("job_id")
    p_cancel.add_argument("--server", default="127.0.0.1",
                          metavar="HOST[:PORT]")
    p_cancel.set_defaults(fn=cmd_cancel)

    p_runs = subs.add_parser(
        "runs",
        help="inspect and prune the run registry (the service's "
             "result cache)")
    runs_subs = p_runs.add_subparsers(dest="runs_command",
                                      required=True)

    p_rlist = runs_subs.add_parser(
        "list", help="list archived runs from the registry index")
    p_rlist.add_argument("--runs-dir", default="results/runs")
    p_rlist.add_argument("--fingerprint", metavar="FP",
                         help="only runs of this config fingerprint")
    p_rlist.set_defaults(fn=cmd_runs_list)

    p_rgc = runs_subs.add_parser(
        "gc", help="prune archived runs by age / count / total size "
                   "(oldest first)")
    p_rgc.add_argument("--runs-dir", default="results/runs")
    p_rgc.add_argument("--max-age-days", type=float, default=None,
                       help="prune runs older than this many days")
    p_rgc.add_argument("--keep", type=int, default=None,
                       help="keep at most this many newest runs")
    p_rgc.add_argument("--max-bytes", type=int, default=None,
                       help="prune oldest runs until the registry "
                            "fits this many bytes")
    p_rgc.add_argument("--dry-run", action="store_true",
                       help="report what would be pruned, delete "
                            "nothing")
    p_rgc.set_defaults(fn=cmd_runs_gc)

    p_reg = subs.add_parser(
        "regress",
        help="regression gate: canonical modelled rates vs the "
             "committed baseline, benchmark bounds, run trajectory")
    p_reg.add_argument("--results-dir", default="results")
    p_reg.add_argument("--runs-dir", default=None,
                       help="also judge the newest archived run in this "
                            "registry against its trajectory")
    p_reg.add_argument("--threshold", type=float, default=0.10,
                       help="allowed fractional rate degradation "
                            "(default: 0.10)")
    p_reg.add_argument("--inject-slowdown", type=float, default=0.0,
                       metavar="FRAC",
                       help="scale measured rates down by FRAC — the "
                            "CI self-test proving the gate trips")
    p_reg.add_argument("--update", action="store_true",
                       help="rewrite the baseline from this "
                            "measurement instead of checking")
    p_reg.set_defaults(fn=cmd_regress)

    p_farm = subs.add_parser(
        "farm",
        help="simulated run farm: place, deploy and supervise a "
             "partitioned run across virtual hosts")
    farm_subs = p_farm.add_subparsers(dest="farm_command",
                                      required=True)

    p_fplan = farm_subs.add_parser(
        "plan", help="place the partitions onto the farm and print "
                     "the modelled cut (no run)")
    _add_common(p_fplan)
    p_fplan.add_argument("--hosts", required=True,
                         help="farm host manifest (JSON; see "
                              "examples/farm_hosts.json)")
    p_fplan.add_argument("--transport", choices=TRANSPORTS,
                         default="qsfp")
    p_fplan.add_argument("--freq", type=float, default=30.0)
    p_fplan.add_argument("--colocate", action="append",
                         metavar="PART,PART[,...]",
                         help="partitions that must share a host "
                              "(repeatable)")
    p_fplan.set_defaults(fn=cmd_farm_plan)

    p_flaunch = farm_subs.add_parser(
        "launch", help="run the placed design under supervision; "
                       "host deaths roll back and re-place onto the "
                       "survivors")
    _add_common(p_flaunch)
    p_flaunch.add_argument("--hosts", required=True,
                           help="farm host manifest (JSON)")
    p_flaunch.add_argument("--transport", choices=TRANSPORTS,
                           default="qsfp")
    p_flaunch.add_argument("--freq", type=float, default=30.0)
    p_flaunch.add_argument("--cycles", type=int, default=1000)
    p_flaunch.add_argument("--colocate", action="append",
                           metavar="PART,PART[,...]")
    p_flaunch.add_argument("--checkpoint-every", type=int, default=100,
                           help="target cycles between supervisor "
                                "checkpoints")
    p_flaunch.add_argument("--max-rollbacks", type=int, default=3)
    p_flaunch.add_argument("--heartbeat-timeout", type=float,
                           default=30.0,
                           help="seconds of agent silence before a "
                                "host is declared dead")
    p_flaunch.add_argument("--kill-host", action="append",
                           metavar="HOST:PASS",
                           help="fault injection: SIGKILL this host's "
                                "agent when a worker reaches the "
                                "given wavefront pass (repeatable)")
    p_flaunch.add_argument("--archive", metavar="NAME",
                           help="archive the run (with placement and "
                                "per-host FMR) under the run registry")
    p_flaunch.add_argument("--runs-dir", default="results/runs")
    p_flaunch.set_defaults(fn=cmd_farm_launch)

    p_fstatus = farm_subs.add_parser(
        "status", help="list archived farm runs")
    p_fstatus.add_argument("--runs-dir", default="results/runs")
    p_fstatus.set_defaults(fn=cmd_farm_status)

    p_auto = subs.add_parser("autopartition",
                             help="search for partition boundaries")
    p_auto.add_argument("circuit")
    p_auto.add_argument("--fpgas", type=int, default=2)
    p_auto.add_argument("--mode", choices=["exact", "fast"],
                        default=EXACT)
    p_auto.add_argument("--keep", action="append", metavar="INSTANCE",
                        help="pin an instance to the base partition")
    p_auto.set_defaults(fn=cmd_autopartition)

    p_fuzz = subs.add_parser(
        "fuzz",
        help="scenario mill: differential fuzzing of generated "
             "targets across backends, modes, checkpoints and faults")
    fuzz_subs = p_fuzz.add_subparsers(dest="fuzz_command",
                                      required=True)

    p_frun = fuzz_subs.add_parser(
        "run", help="generate scenarios and run the oracles; "
                    "failures are shrunk to repro files")
    p_frun.add_argument("--seed", type=int, default=0,
                        help="campaign seed (scenario i is a pure "
                             "function of seed and i)")
    p_frun.add_argument("--budget", type=int, default=50,
                        help="number of scenarios to mill")
    p_frun.add_argument("--start-index", type=int, default=0,
                        help="first scenario index (resume a campaign)")
    p_frun.add_argument("--shapes",
                        help="comma-separated target shapes "
                             "(default: all)")
    p_frun.add_argument("--oracles",
                        help="comma-separated oracles: identity,"
                             "fastmode,checkpoint,faults "
                             "(default: all)")
    p_frun.add_argument("--backends",
                        help="comma-separated backends for the "
                             "identity oracle (default: "
                             "inproc,process)")
    p_frun.add_argument("--corpus", default="results/fuzz-corpus",
                        help="directory for failure repros")
    p_frun.add_argument("--no-shrink", action="store_true",
                        help="keep failing scenarios unminimized")
    p_frun.add_argument("--max-failures", type=int, default=3,
                        help="stop after this many failures")
    p_frun.add_argument("--archive", action="store_true",
                        help="archive the campaign summary under the "
                             "run registry")
    p_frun.add_argument("--runs-dir", default="results/runs")
    p_frun.add_argument("--verbose", action="store_true",
                        help="print per-scenario progress")
    p_frun.set_defaults(fn=cmd_fuzz_run)

    p_freplay = fuzz_subs.add_parser(
        "replay", help="re-run a repro file through its oracle")
    p_freplay.add_argument("repro", help="repro JSON path")
    p_freplay.add_argument("--oracles",
                           help="override the oracle list "
                                "(default: the repro's own oracle)")
    p_freplay.set_defaults(fn=cmd_fuzz_replay)

    p_fcorpus = fuzz_subs.add_parser(
        "corpus", help="list the repro corpus")
    p_fcorpus.add_argument("--corpus", default="results/fuzz-corpus")
    p_fcorpus.set_defaults(fn=cmd_fuzz_corpus)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
