"""The scenario mill: ``fuzz run``, ``fuzz replay`` and ``fuzz corpus``."""

from __future__ import annotations

import sys

from ..telemetry import RunRegistry
from .common import runs_dir


def _csv(text: str) -> tuple:
    return tuple(text.split(","))


def cmd_fuzz_run(args) -> int:
    from ..fuzz import ALL_SHAPES, FuzzConfig, GeneratorKnobs, run_campaign

    config = FuzzConfig(
        seed=args.seed, budget=args.budget,
        start_index=args.start_index,
        oracles=args.oracles or FuzzConfig.oracles,
        backends=args.backends or FuzzConfig.backends,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
        knobs=GeneratorKnobs(shapes=args.shapes or ALL_SHAPES))
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
    from ..errors import FuzzFailure
    from ..fuzz import replay

    try:
        notes = replay(args.repro, oracles=args.oracles)
    except FuzzFailure as exc:
        print(f"still failing: {exc}", file=sys.stderr)
        return 1
    print(f"repro replays clean: {args.repro}")
    for oracle, note in notes.items():
        status = note.get("status") or "ok"
        print(f"  {oracle}: {status}")
    return 0


def cmd_fuzz_corpus(args) -> int:
    from ..fuzz import list_corpus

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


def register(subs) -> None:
    fuzz = subs.add_parser(
        "fuzz",
        help="scenario mill: differential fuzzing of generated targets "
             "across backends, modes, checkpoints and faults"
    ).add_subparsers(dest="fuzz_command", required=True)

    p = fuzz.add_parser(
        "run", parents=[runs_dir()],
        help="generate scenarios and run the oracles; failures are "
             "shrunk to repro files")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (scenario i is a pure function of "
                        "seed and i)")
    p.add_argument("--budget", type=int, default=50,
                   help="number of scenarios to mill")
    p.add_argument("--start-index", type=int, default=0,
                   help="first scenario index (resume a campaign)")
    p.add_argument("--shapes", type=_csv,
                   help="comma-separated target shapes (default: all)")
    p.add_argument("--oracles", type=_csv,
                   help="comma-separated oracles: identity,fastmode,"
                        "checkpoint,faults (default: all)")
    p.add_argument("--backends", type=_csv,
                   help="comma-separated backends for the identity "
                        "oracle (default: inproc,process)")
    p.add_argument("--corpus", default="results/fuzz-corpus",
                   help="directory for failure repros")
    p.add_argument("--no-shrink", action="store_true",
                   help="keep failing scenarios unminimized")
    p.add_argument("--max-failures", type=int, default=3,
                   help="stop after this many failures")
    p.add_argument("--archive", action="store_true",
                   help="archive the campaign summary under the run "
                        "registry")
    p.add_argument("--verbose", action="store_true",
                   help="print per-scenario progress")
    p.set_defaults(fn=cmd_fuzz_run)

    p = fuzz.add_parser("replay",
                        help="re-run a repro file through its oracle")
    p.add_argument("repro", help="repro JSON path")
    p.add_argument("--oracles", type=_csv,
                   help="override the oracle list (default: the repro's "
                        "own oracle)")
    p.set_defaults(fn=cmd_fuzz_replay)

    p = fuzz.add_parser("corpus", help="list the repro corpus")
    p.add_argument("--corpus", default="results/fuzz-corpus")
    p.set_defaults(fn=cmd_fuzz_corpus)
