"""Command-line front end: ``python -m repro`` (``--help`` lists the
verbs, ``VERB --help`` its flags).

One module per noun — :mod:`~repro.cli.design` (the design before it
runs), :mod:`~repro.cli.run` (running it), :mod:`~repro.cli.service`
(the service and its clients), :mod:`~repro.cli.archive` (the run
registry), :mod:`~repro.cli.farm`, :mod:`~repro.cli.fuzz` — each
exporting ``register(subs)``; :mod:`~repro.cli.common` holds the one
argparse parent per shared fact and the ``args`` -> job config step.

Example::

    python -m repro report design.fir --extract right --mode exact
    python -m repro simulate design.fir --extract right --cycles 200 \\
        --transport pcie
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import ReproError
from . import archive, design, farm, fuzz, run, service


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FireAxe reproduction: partition and co-simulate "
                    "RTL designs across modelled FPGAs.")
    subs = parser.add_subparsers(dest="command", required=True)
    for noun in (design, run, service, archive, farm, fuzz):
        noun.register(subs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
