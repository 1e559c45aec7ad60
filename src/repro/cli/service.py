"""The service and its clients: ``serve``, ``submit``, ``jobs``,
``cancel``, ``top``, ``tail``, and the ``--job`` halves of ``watch``
and ``trace``."""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

from ..errors import ReproError
from ..telemetry import LiveStatus, RunRegistry
from .common import (backend, cycles, job, print_live, raw_job, runs_dir,
                     server)


def cmd_serve(args) -> int:
    from ..service import ServiceConfig, ServiceThread, TenantQuota
    quotas = {}
    for entry in args.quota or []:
        tenant, _, spec = entry.partition(":")
        if not tenant or not spec:
            raise ReproError(
                f"--quota wants TENANT:QUEUED:ACTIVE, got {entry!r}")
        quotas[tenant] = TenantQuota.parse(spec)
    default = TenantQuota.parse(args.default_quota) \
        if args.default_quota else TenantQuota()
    config = ServiceConfig(
        workers=args.workers, runs_dir=args.runs_dir,
        live_dir=args.live_dir, metrics_every=args.metrics,
        default_quota=default, quotas=quotas,
        event_log=args.event_log, trace_events=args.trace_events)
    thread = ServiceThread(config, host=args.host, port=args.port)
    print(f"repro service on {args.host}:{thread.port} — "
          f"{max(1, config.workers)} worker(s), "
          f"cache at {thread.service.registry.root}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("service stopped", file=sys.stderr)
    finally:
        thread.stop()
    return 0


def _client(args):
    from ..service import ServiceClient, parse_server
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
    shown = [f"{label} {record[key] * 1e3:.1f}ms" for label, key in
             (("queue", "queue_wait_s"), ("cache", "cache_lookup_s"),
              ("exec", "execution_s")) if record.get(key) is not None]
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
    # sent as spelled: the service normalizes (and rejects) it
    config = raw_job(args)
    if args.inline:
        # ship the IR itself so the service need not share a
        # filesystem with the submitter
        config["circuit_text"] = Path(config.pop("circuit")).read_text()
    return config


def cmd_submit(args) -> int:
    from ..service import TERMINAL
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
    _print_job(_client(args).cancel(args.job_id))
    return 0


def cmd_tail(args) -> int:
    """Print (or follow) the observability event log, optionally
    narrowed to one correlation id, tenant, or event kind."""
    from ..observability import follow_events, format_event, read_events
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
            _print_top(client.stats())
            if args.once:
                return 0
            time.sleep(args.interval)
            print()
    except KeyboardInterrupt:
        return 0


def watch_job(args) -> int:
    """``repro watch --job ID``: follow one service job — its
    live-status file while it runs, falling back to state polling —
    until it is terminal."""
    from ..service import TERMINAL
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
            print_live(payload)
        if record["state"] in TERMINAL:
            _print_job(record)
            return 0 if record["state"] == "done" else 1
        if args.once:
            return 0
        if time.monotonic() > deadline:
            print("watch: timed out", file=sys.stderr)
            return 1
        time.sleep(args.poll)


def trace_job(args) -> int:
    """``repro trace --job ID``: stitch a service job's scheduler
    spans, event-log fabric events and archived partition spans into
    one Perfetto trace."""
    from ..observability import export_job_trace, read_events
    record = _client(args).job(args.job)
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


def register(subs) -> None:
    p = subs.add_parser(
        "serve", parents=[runs_dir()],
        help="run the multi-tenant simulation service: JSON-over-HTTP "
             "job queue with per-tenant quotas and a fingerprint-keyed "
             "result cache (--runs-dir is both archive and cache)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (default: 8642; 0 picks a free port)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent simulation executions (default: 2)")
    p.add_argument("--live-dir", default=None, metavar="DIR",
                   help="keep one live-status file per executed job here "
                        "(repro watch --job follows it)")
    p.add_argument("--metrics", type=int, default=0, metavar="N",
                   help="telemetry sample interval for executed jobs "
                        "(0: none unless --live-dir)")
    p.add_argument("--quota", action="append",
                   metavar="TENANT:QUEUED:ACTIVE",
                   help="per-tenant quota override (repeatable)")
    p.add_argument("--default-quota", metavar="QUEUED:ACTIVE",
                   help="quota of every other tenant (default: 16:64)")
    p.add_argument("--event-log", default=None, metavar="FILE",
                   help="append lifecycle events to this JSONL file "
                        "(repro tail reads it)")
    p.add_argument("--trace-events", type=int, default=0, metavar="N",
                   help="record up to N tracer spans per executed job "
                        "for repro trace --job (default: 0, off)")
    p.set_defaults(fn=cmd_serve)

    p = subs.add_parser(
        "submit",
        parents=job(required=False) + [cycles(), backend(), server()],
        help="submit a job to a running service (cache hits return "
             "archived results without simulating)")
    p.add_argument("--inline", action="store_true",
                   help="send the circuit text instead of its path "
                        "(service on another filesystem)")
    p.add_argument("--experiment", metavar="NAME",
                   help="submit a paper experiment instead of a circuit")
    p.add_argument("--config", metavar="FILE",
                   help="submit a raw job config JSON file")
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first (default: 0)")
    p.add_argument("--name", default="",
                   help="archive name for the run record")
    p.add_argument("--wait", action="store_true",
                   help="block until terminal; exit 0 only on done")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait deadline in seconds")
    p.set_defaults(fn=cmd_submit)

    p = subs.add_parser("jobs", parents=[server()],
                        help="list a running service's jobs")
    p.add_argument("--tenant", default=None, help="only this tenant's jobs")
    p.set_defaults(fn=cmd_jobs)

    p = subs.add_parser(
        "tail",
        help="print or follow a service event log (one line per "
             "lifecycle event, filterable by corr id / tenant / kind)")
    p.add_argument("log", help="event log path (serve --event-log FILE)")
    p.add_argument("--corr", default=None, metavar="CORR_ID",
                   help="only events with this correlation id")
    p.add_argument("--tenant", default=None,
                   help="only this tenant's events")
    p.add_argument("--kind", action="append", metavar="KIND",
                   help="only these event kinds (repeatable)")
    p.add_argument("--follow", "-f", action="store_true",
                   help="keep reading as the log grows")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="stop following after S idle seconds")
    p.set_defaults(fn=cmd_tail)

    p = subs.add_parser(
        "top", parents=[server()],
        help="live service overview: queue depths, per-tenant latency "
             "quantiles, cache-hit rate")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh interval in seconds (default: 2)")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.set_defaults(fn=cmd_top)

    p = subs.add_parser("cancel", parents=[server()],
                        help="cancel a service job (queued or running)")
    p.add_argument("job_id")
    p.set_defaults(fn=cmd_cancel)
