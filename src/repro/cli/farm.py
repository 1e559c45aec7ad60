"""The simulated run farm: ``farm plan``, ``farm launch`` and
``farm status``."""

from __future__ import annotations

from typing import List, Optional

from ..errors import ReproError
from ..farm import FarmManager, FarmSpec
from ..service import executor
from ..telemetry import RunRegistry
from .common import (cycles, job, job_config, placement, runs_dir,
                     supervision)


def _farm_manager(args, facts=(), **knobs) -> FarmManager:
    """The manager of the farm job ``args`` spells: the job facts, the
    manifest, the co-location groups and the ``facts`` only ``launch``
    has flags for.  The circuit is compiled once; a rebuild re-wires."""
    config = job_config(args, "farm",
                        hosts=FarmSpec.from_file(args.hosts).to_dict(),
                        colocate=args.colocate or [], **dict(facts))
    design = executor.compile_design(config)
    return FarmManager(
        lambda: executor.build_simulation(config, design,
                                          record_outputs=True),
        config, **knobs)


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
    manager = _farm_manager(args)
    spec = manager.spec
    placement = manager.plan()
    hosts = spec.live_hosts()
    print(f"farm: {len(hosts)} live host(s), "
          f"{spec.total_cores()} cores "
          f"(default link: {spec.default_link})")
    print(f"placement of {len(placement.assignment)} partition(s) "
          f"onto {len(placement.hosts_used())} host(s):")
    _print_placement(placement, spec)
    return 0


def cmd_farm_launch(args) -> int:
    kills = _parse_kills(args.kill_host)
    facts = {"checkpoint_every": args.checkpoint_every}
    if kills:
        # the one kill a job config can name, so the record says what
        # ran; further --kill-host entries ride as injected faults
        facts["kill_host"], facts["kill_at_pass"] = \
            next(iter(kills.items()))
    manager = _farm_manager(args, facts,
                            max_rollbacks=args.max_rollbacks,
                            heartbeat_timeout=args.heartbeat_timeout,
                            host_faults=kills)
    registry = RunRegistry(args.runs_dir) if args.archive else None
    report = manager.launch(registry=registry,
                            run_name=args.archive or "farm")
    result = report.result
    print(f"simulated {result.target_cycles} target cycles across "
          f"{len(report.placement.hosts_used())} host(s) "
          f"at {result.rate_khz:.2f} kHz")
    for i, placement in enumerate(report.placements):
        label = "placement" if len(report.placements) == 1 \
            else f"placement #{i + 1}"
        print(f"{label}:")
        _print_placement(placement, manager.spec)
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


def register(subs) -> None:
    farm = subs.add_parser(
        "farm",
        help="simulated run farm: place, deploy and supervise a "
             "partitioned run across virtual hosts"
    ).add_subparsers(dest="farm_command", required=True)

    p = farm.add_parser(
        "plan", parents=job() + [placement()],
        help="place the partitions onto the farm and print the modelled "
             "cut (no run)")
    p.set_defaults(fn=cmd_farm_plan)

    p = farm.add_parser(
        "launch",
        parents=job() + [cycles(), placement(), supervision(), runs_dir()],
        help="run the placed design under supervision; host deaths roll "
             "back and re-place onto the survivors")
    p.add_argument("--heartbeat-timeout", type=float, default=30.0,
                   help="seconds of worker silence before it is hung")
    p.add_argument("--kill-host", action="append", metavar="HOST:PASS",
                   help="the manager SIGKILLs this host's workers when one "
                        "of them reaches wavefront pass PASS (repeatable)")
    p.add_argument("--archive", metavar="NAME",
                   help="archive the run (placement, per-host FMR) under "
                        "--runs-dir with this name")
    p.set_defaults(fn=cmd_farm_launch)

    p = farm.add_parser("status", parents=[runs_dir()],
                        help="list archived farm runs")
    p.set_defaults(fn=cmd_farm_status)
