"""``python -m benchmarks.e2e``: the end-to-end ledger.

    PYTHONPATH=src python -m benchmarks.e2e [--workload NAME ...]
        [--seed N] [--trace] [--quick] [--out FILE]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json

Prints every end-to-end metric by name with its unit for each
workload, checks the outputs, and exits non-zero on any failed
operation.  ``--trace`` adds the per-layer table and writes the spans
as Chrome-trace JSON beside the ledger.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import List

from . import compare
from .ledger import EXPECT, OUT, host_shape, measure, refuse_rerouting_env
from .spans import chrome_trace
from .workloads import DEFAULT_SEED, FULL, QUICK, WORKLOADS, budgeted


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS), metavar="NAME",
                        help="run only this workload (repeatable); "
                        f"one of {', '.join(WORKLOADS)}")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of everything generated; only the "
                        f"default ({DEFAULT_SEED}) is checked against "
                        "expect.json")
    parser.add_argument("--trace", action="store_true",
                        help="add the traced pass: the per-layer table "
                        "and a Chrome trace")
    parser.add_argument("--quick", action="store_true",
                        help="tiny cycle counts, one child per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep launching children of a workload "
                        "for this long (default: three children)")
    parser.add_argument("--out", type=Path, default=OUT / "ledger.json",
                        help="where the ledger goes (default: "
                        "%(default)s)")
    parser.add_argument("--write-expect", action="store_true",
                        help="record this run's simulated statistics "
                        "as expect.json (default seed, full scale)")
    return parser.parse_args(argv)


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name} [{entry['status']}] "
          f"ops {entry['ops_attempted']} attempted, "
          f"{entry['ops_failed']} failed")
    for failure in entry["failures"]:
        print(f"   ! {failure}")
    for metric, s in entry["end_to_end"].items():
        if "median" in s:
            spread = (f"median {s['median']:.5g} "
                      f"[{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}")
            if "tail" in s:
                spread += (f" p{s['tail']['percentile']:g}="
                           f"{s['tail']['value']:.5g}")
        else:
            spread = f"p{s['percentile']:g} of {s['n']} windows"
        print(f"   {metric:26} {s['value']:>12.6g} {s['unit']:7} "
              f"{spread}")
    for key, value in entry["exact"].items():
        print(f"   {key:26} {str(value)[:40]:>14} (exact)")
    if entry["per_layer"]:
        print("   -- per layer (traced pass)")
        for metric, v in entry["per_layer"].items():
            mark = " (exact)" if v["exact"] else ""
            print(f"   {metric:34} {v['value']:>14.6g} "
                  f"{v['unit']}{mark}")


def main(argv: List[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: python -m benchmarks.e2e compare "
                             "A.json B.json")
        return compare.main(argv[1:])
    args = parse_args(argv)
    refuse_rerouting_env()
    scale = QUICK if args.quick else FULL
    if args.quick and args.trace:
        # the traced child alone: halves the smoke test's run time
        scale = replace(QUICK, reps=0)
    if args.seconds is not None:
        scale = budgeted(args.seconds)
    ledger = {"format": "bench_e2e", "version": 1, "seed": args.seed,
              "scale": asdict(scale), "traced": args.trace,
              "host": host_shape(), "workloads": {}}
    print(f"bench_e2e seed={args.seed} host={ledger['host']}")
    spans = {}
    for name in args.workload or list(WORKLOADS):
        entry = measure(WORKLOADS[name], args.seed, scale, args.trace)
        spans[name] = entry.pop("spans")
        ledger["workloads"][name] = entry
        print_workload(name, entry)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"\nledger: {args.out}")
    if args.trace:
        trace_path = args.out.with_suffix(".trace.json")
        trace_path.write_text(json.dumps(chrome_trace(spans)))
        print(f"trace:  {trace_path}")
    failed = sum(e["ops_failed"] for e in ledger["workloads"].values())
    if args.write_expect and not failed:
        if args.seed != DEFAULT_SEED or scale.cycle_div != 1:
            raise SystemExit("error: expect.json records the default "
                             "seed at full cycle counts")
        expect = json.loads(EXPECT.read_text()) if EXPECT.exists() else {}
        for name, entry in ledger["workloads"].items():
            if entry["status"] == "ok":
                expect[name] = {
                    key: entry["exact"][key] for key in
                    ("digest_sha256", "platform.modelled_rate_hz",
                     "libdn.tokens_transferred")}
        EXPECT.write_text(json.dumps(expect, indent=1) + "\n")
        print(f"expect: {EXPECT}")
    print(f"{failed} failed operation(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
