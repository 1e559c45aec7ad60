"""Run every experiment and print the paper's tables/series.

Usage::

    python -m repro.experiments            # everything
    python -m repro.experiments fig11 t2   # a subset (prefix matching)

Results print to stdout in the same rows/series the paper reports;
pass ``--out DIR`` to also write one ``.txt`` file per experiment,
``--profile`` to append a host-time profile (FMR component split and
dominant bottleneck) per experiment, collected from every partitioned
run the experiment performs, ``--archive DIR`` to archive each
experiment's final partitioned run into a run registry (so ``repro
compare`` / ``repro regress`` can track experiment trajectories across
sessions), and ``--jobs N`` to run independent experiments in up to
``N`` forked worker processes (``--profile`` and ``--archive`` force
sequential execution: both aggregate in-process state that cannot
cross a fork).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..observability import profile_session
from ..parallel import fanout
from . import (
    casestudy_24core,
    casestudy_gc40,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    reliability,
    table1,
    table2,
)

#: name -> zero-argument callable producing formatted text
EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "table1": lambda: table1.format_table(table1.run()),
    "table2": lambda: table2.format_table(table2.run()),
    "fig7": lambda: fig7.format_table(fig7.run()),
    "fig8": lambda: fig8.format_table(fig8.run()),
    "fig9": lambda: fig9.format_table(fig9.run()),
    "fig10": lambda: fig10.format_table(fig10.run()),
    "fig11": lambda: fig11.format_table(fig11.run()),
    "fig12": lambda: fig12.format_table(fig12.run()),
    "fig13": lambda: fig13.format_table(fig13.run()),
    "fig14": lambda: fig14.format_table(fig14.run()),
    "casestudy_24core":
        lambda: casestudy_24core.format_table(casestudy_24core.run()),
    "casestudy_gc40":
        lambda: casestudy_gc40.format_table(casestudy_gc40.run()),
    "reliability":
        lambda: reliability.format_table(reliability.run()),
}


def run_experiment(name: str) -> str:
    """Run one experiment by exact name, returning its formatted text.

    The library entry point the simulation service dispatches
    ``{"kind": "experiment"}`` jobs through; raises a typed error (not
    ``KeyError``) for unknown names so the failure maps to a job
    failure instead of a service crash.
    """
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise ReproError(
            f"unknown experiment {name!r}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}")
    return fn()


def select(patterns: List[str]) -> List[str]:
    """Experiment names matching any prefix pattern (all when empty)."""
    if not patterns:
        return list(EXPERIMENTS)
    chosen = []
    for name in EXPERIMENTS:
        if any(name.startswith(p) for p in patterns):
            chosen.append(name)
    return chosen


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the FireAxe paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment name prefixes (default: all)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for per-experiment .txt outputs")
    parser.add_argument("--profile", action="store_true",
                        help="append a host-time profile (FMR component "
                             "split, bottleneck) per experiment")
    parser.add_argument("--archive", type=Path, default=None,
                        metavar="DIR",
                        help="archive each experiment's final "
                             "partitioned run into the run registry at "
                             "DIR (forces sequential execution)")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="run up to N experiments concurrently in "
                             "forked workers (default: 1; ignored with "
                             "--profile/--archive)")
    args = parser.parse_args(argv)

    names = select(args.experiments)
    if not names:
        print(f"no experiments match {args.experiments}; "
              f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    jobs = 1 if (args.profile or args.archive is not None) \
        else args.jobs
    registry = None
    if args.archive is not None:
        from ..service.executor import normalize_config
        from ..telemetry import RunRegistry
        registry = RunRegistry(args.archive)

    def run_one(name: str) -> Tuple[str, float]:
        start = time.time()
        if args.profile or registry is not None:
            # the ambient session also captures every partitioned
            # result, which is what --archive persists
            with profile_session() as session:
                text = run_experiment(name)
            if args.profile:
                text += "\n\n" + session.summary()
            if registry is not None and session.results:
                path = registry.archive(
                    session.results[-1], name=name,
                    config=normalize_config(
                        {"kind": "experiment", "experiment": name}))
                text += f"\n[archived {path}]"
        else:
            text = run_experiment(name)
        return text, time.time() - start

    if jobs > 1:
        outputs = fanout([lambda n=name: run_one(n) for name in names],
                         jobs, labels=names)
    else:
        outputs = None

    for i, name in enumerate(names):
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        text, seconds = outputs[i] if outputs is not None \
            else run_one(name)
        print(text)
        print(f"[{name}: {seconds:.1f}s]")
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
