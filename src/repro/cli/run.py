"""Running a design: ``simulate``, ``trace``, ``profile``,
``reliability``, ``watch`` and the ``experiments`` alias.  The
``--job`` halves of ``trace`` and ``watch`` talk to a service and live
in :mod:`repro.cli.service`."""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from ..errors import DeadlockError, ReproError
from ..observability import (RecordingTracer, format_profile,
                             stream_chrome_trace)
from ..reliability import (FaultSpec, RunSupervisor, harden_links,
                           inject_faults)
from ..service import executor
from ..telemetry import LiveStatus, RunRegistry, Telemetry
from . import service
from .common import (TRANSPORTS, backend, cycles, job, job_config,
                     print_live, print_step_plane, runs_dir, server,
                     supervision)


def cmd_simulate(args) -> int:
    config = job_config(args)
    telemetry = None
    if args.metrics or args.live or args.archive:
        telemetry = Telemetry(sample_every=args.metrics or 50,
                              live_path=args.live)
    sim = executor.build_simulation(config, record_outputs=True,
                                    telemetry=telemetry)
    if args.no_jit:
        sim.stepjit = False

    stop = None
    if args.until:
        signal = args.until

        def stop(s):  # noqa: F811
            log = s.output_log.get(("base", "io_out"), [])
            return bool(log) and log[-1].get(signal, 0) == 1

    result = sim.run(config["cycles"], stop=stop,
                     backend=config["backend"])
    transport = TRANSPORTS[config["transport"]].name
    print(f"simulated {result.target_cycles} target cycles "
          f"in {result.wall_ns / 1e3:.1f} us of host time "
          f"[{sim.last_run_backend} backend]")
    print_step_plane(sim)
    print(f"rate: {result.rate_mhz:.3f} MHz over {transport}")
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
        if args.until:
            # may have stopped early: a key normalize_config rejects, so
            # the record is never served as the whole job's answer
            config = {**config, "until": args.until}
        path = RunRegistry(args.runs_dir).archive(
            result, name=args.archive,
            backend=sim.last_run_backend or "inproc", config=config,
            extra={"obs": {"step_plane": dict(sim.last_jit_report)}})
        print(f"archived run: {path}")
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
    config = job_config(args)
    fault_spec = FaultSpec(
        seed=args.seed,
        drop_rate=args.drop_rate,
        corrupt_rate=args.corrupt_rate,
        spike_rate=args.spike_rate,
        spike_ns=args.spike_ns,
        flaps=tuple(_parse_flaps(args.flap or [])))
    design = executor.compile_design(config)

    def build(faults=None):
        sim = executor.build_simulation(config, design,
                                        record_outputs=True)
        if args.unreliable:
            if faults is not None:
                inject_faults(sim, faults)
        else:
            harden_links(sim, faults)
        return sim

    baseline = build()
    base_result = baseline.run(config["cycles"])

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
    report = supervisor.run(config["cycles"])
    result = report.result

    layer = "raw (unreliable)" if args.unreliable else "reliable"
    print(f"supervised {result.target_cycles} target cycles over "
          f"{layer} {TRANSPORTS[config['transport']].name} links")
    print_step_plane(supervised[-1])
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


def cmd_trace(args) -> int:
    if args.job:
        return service.trace_job(args)
    if not args.circuit or not args.extract:
        raise ReproError("trace wants a circuit file with --extract, "
                         "or --job ID")
    config = job_config(args)
    tracer = RecordingTracer(capacity=args.events)
    sim = executor.build_simulation(config, record_outputs=True,
                                    tracer=tracer)
    try:
        result = sim.run(config["cycles"])
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
          f"{TRANSPORTS[config['transport']].name}")
    print_step_plane(sim)
    print(f"trace: kept {len(tracer)} of "
          f"{tracer.total_emitted} events")
    for kind, count in sorted(tracer.counts().items()):
        print(f"  {kind:14s} {count}")
    print(f"wrote {path} (open in https://ui.perfetto.dev or "
          f"chrome://tracing)")
    return 0


def cmd_profile(args) -> int:
    config = job_config(args)
    sim = executor.build_simulation(config)
    result = sim.run(config["cycles"])
    print(f"transport: {TRANSPORTS[config['transport']].name}")
    print_step_plane(sim)
    print(format_profile(result))
    return 0


def cmd_experiments(args) -> int:
    from ..experiments.runner import main as experiments_main
    return experiments_main(args.rest)


def cmd_watch(args) -> int:
    """Follow a live-status file until the run finishes (or times
    out).  ``--once`` prints a single snapshot — scripts and tests use
    it to poll without blocking.  ``--job ID --server HOST:PORT``
    follows a service job instead (reusing the job's own live-status
    file when the service keeps one)."""
    if args.job:
        return service.watch_job(args)
    deadline = time.monotonic() + args.timeout
    last_updated = None
    while True:
        payload = LiveStatus.read(args.status)
        if payload is not None \
                and payload.get("updated") != last_updated:
            last_updated = payload.get("updated")
            print_live(payload)
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


def register(subs) -> None:
    p = subs.add_parser(
        "simulate", help="run the co-simulation",
        parents=job() + [cycles(), backend(), runs_dir()])
    p.add_argument("--until", metavar="SIGNAL",
                   help="stop when this base output reads 1")
    p.add_argument("--metrics", type=int, default=0, metavar="N",
                   help="sample a deterministic metric time-series every "
                        "N target cycles (0: off)")
    p.add_argument("--live", metavar="FILE",
                   help="keep a live status file for repro watch "
                        "(implies --metrics 50 unless given)")
    p.add_argument("--archive", metavar="NAME",
                   help="archive the run under --runs-dir with this name "
                        "(implies --metrics 50 unless given)")
    p.add_argument("--no-jit", action="store_true",
                   help="run the interpreted wavefront loop (bit-identical "
                        "results; every comb signal stays peekable)")
    p.set_defaults(fn=cmd_simulate)

    p = subs.add_parser(
        "reliability", parents=job() + [cycles(), supervision()],
        help="supervised fault-injected co-simulation over reliable links")
    p.add_argument("--seed", type=int, default=0,
                   help="fault schedule seed")
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--corrupt-rate", type=float, default=0.0)
    p.add_argument("--spike-rate", type=float, default=0.0)
    p.add_argument("--spike-ns", type=float, default=20_000.0)
    p.add_argument("--flap", action="append",
                   metavar="START_NS:DURATION_NS",
                   help="link outage window (repeatable)")
    p.add_argument("--checkpoint-dir",
                   help="also persist checkpoints to this directory")
    p.add_argument("--crash-at", action="append", type=int,
                   metavar="CYCLE",
                   help="inject a one-shot host crash (repeatable)")
    p.add_argument("--unreliable", action="store_true",
                   help="skip the reliable link layer (faults then "
                        "corrupt results or deadlock the run)")
    p.set_defaults(fn=cmd_reliability, cycles=200)

    p = subs.add_parser(
        "trace",
        parents=job(required=False) + [cycles(), server(), runs_dir()],
        help="run with a recording tracer and export Chrome trace JSON, "
             "or stitch a service job's cross-process trace with --job")
    p.add_argument("--out", default="trace.json",
                   help="trace-event JSON output path")
    p.add_argument("--events", type=int, default=None, metavar="N",
                   help="ring-buffer capacity (default: keep all)")
    p.add_argument("--gzip", action="store_true",
                   help="gzip the export (.gz appended to --out)")
    p.add_argument("--job", metavar="JOB_ID",
                   help="stitch this service job's scheduler, event-log "
                        "and archived partition spans instead of running "
                        "a circuit")
    p.add_argument("--log", default=None, metavar="FILE",
                   help="service event log to fold in (--job only)")
    p.set_defaults(fn=cmd_trace, cycles=200)

    p = subs.add_parser(
        "profile", parents=job() + [cycles()],
        help="run and print the FMR breakdown / bottleneck report")
    p.set_defaults(fn=cmd_profile, cycles=200)

    p = subs.add_parser(
        "watch", parents=[server()],
        help="follow an in-flight run's live status file (or a service "
             "job)")
    p.add_argument("status", nargs="?", default="results/live.json",
                   help="status file written by simulate --live "
                        "(default: results/live.json)")
    p.add_argument("--job", metavar="JOB_ID",
                   help="follow this service job instead (needs --server)")
    p.add_argument("--poll", type=float, default=0.25,
                   help="poll interval in seconds")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="give up after this many seconds")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.set_defaults(fn=cmd_watch)

    p = subs.add_parser(
        "experiments",
        help="regenerate the paper's tables/figures (alias for python -m "
             "repro.experiments)")
    p.add_argument("rest", nargs=argparse.REMAINDER,
                   help="names, --out, --profile, --archive, --jobs")
    p.set_defaults(fn=cmd_experiments)
