"""The entry ``BENCHMARK.json`` names: one workload, one JSON line.

    python3 benchmarks/e2e/run.py --workload NAME --seed N
        --seconds S --trace 0|1

Runs from the root of any checkout of the repo (it finds ``src/``
itself), measures the workload in fresh children — three, and more
while another fits into ``--seconds`` (``--trace 1``: one untraced
child and one traced) — and prints as its last line
``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric of ``BENCHMARK.json`` (``--trace 1``: every
per-layer metric).  Exits non-zero without a result when the workload
cannot be measured here.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

try:
    import repro  # noqa: F401  (the program under test)
except ImportError:
    sys.exit(f"error: no src/repro under {ROOT}: nothing to measure")

from benchmarks.e2e.ledger import measure, refuse_rerouting_env  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, budgeted  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    refuse_rerouting_env()

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    scale = budgeted(args.seconds)
    if args.trace:
        # one untraced child is the base of bench.trace_overhead_pct
        scale = replace(scale, reps=1, seconds=0.0)
    entry = measure(WORKLOADS[args.workload], args.seed, scale,
                    bool(args.trace))
    for failure in entry["failures"]:
        print(f"! {failure}", file=sys.stderr)
    if entry["status"] != "ok":
        print(f"! {entry['status']}", file=sys.stderr)
        return 2

    if args.trace:
        values = {name: layer["value"]
                  for name, layer in entry["per_layer"].items()}
        wanted = contract["per_layer"]
    else:
        values = {name: summary["value"]
                  for name, summary in entry["end_to_end"].items()}
        wanted = contract["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"! no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": entry["ops_failed"] == 0,
        "attempted": entry["ops_attempted"],
        "failed": entry["ops_failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
