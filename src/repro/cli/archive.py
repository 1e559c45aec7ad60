"""The run registry: ``runs list`` / ``runs gc``, ``compare`` and the
``regress`` gate."""

from __future__ import annotations

import time

from ..telemetry import (RunRegistry, compare_runs, format_comparison,
                         run_gate)
from .common import runs_dir


def cmd_compare(args) -> int:
    registry = RunRegistry(args.runs_dir)
    comparison = compare_runs(registry.load(args.run_a),
                              registry.load(args.run_b))
    print(format_comparison(comparison))
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


def cmd_regress(args) -> int:
    report = run_gate(results_dir=args.results_dir,
                      threshold=args.threshold,
                      inject_slowdown=args.inject_slowdown,
                      update=args.update,
                      runs_dir=args.runs_dir)
    print(report.to_text(args.threshold))
    return 0 if report.ok else 1


def register(subs) -> None:
    p = subs.add_parser(
        "compare", parents=[runs_dir()],
        help="diff two archived runs: rate delta + FMR attribution")
    p.add_argument("run_a", help="baseline run id (or run.json path)")
    p.add_argument("run_b", help="new run id (or run.json path)")
    p.set_defaults(fn=cmd_compare)

    runs = subs.add_parser(
        "runs",
        help="inspect and prune the run registry (the service's result "
             "cache)").add_subparsers(dest="runs_command", required=True)

    p = runs.add_parser("list", parents=[runs_dir()],
                        help="list archived runs from the registry index")
    p.add_argument("--fingerprint", metavar="FP",
                   help="only runs of this config fingerprint")
    p.set_defaults(fn=cmd_runs_list)

    p = runs.add_parser(
        "gc", parents=[runs_dir()],
        help="prune archived runs by age / count / total size (oldest "
             "first)")
    p.add_argument("--max-age-days", type=float, default=None,
                   help="prune runs older than this many days")
    p.add_argument("--keep", type=int, default=None,
                   help="keep at most this many newest runs")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="prune oldest runs until the registry fits this "
                        "many bytes")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be pruned, delete nothing")
    p.set_defaults(fn=cmd_runs_gc)

    p = subs.add_parser(
        "regress", parents=[runs_dir()],
        help="regression gate: canonical modelled rates vs the committed "
             "baseline, benchmark bounds, and (opt-in, with --runs-dir) "
             "the newest archived run against its trajectory")
    p.add_argument("--results-dir", default="results")
    p.add_argument("--threshold", type=float, default=0.10,
                   help="allowed fractional rate degradation "
                        "(default: 0.10)")
    p.add_argument("--inject-slowdown", type=float, default=0.0,
                   metavar="FRAC",
                   help="scale measured rates down by FRAC — the CI "
                        "self-test proving the gate trips")
    p.add_argument("--update", action="store_true",
                   help="rewrite the baseline from this measurement "
                        "instead of checking")
    p.set_defaults(fn=cmd_regress, runs_dir=None)
