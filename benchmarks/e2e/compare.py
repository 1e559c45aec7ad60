"""``python -m benchmarks.e2e compare A.json B.json``.

One row per workload x end-to-end metric: each side's value with its
median and quartiles, the delta with its base, the bound and a
verdict.  Exact metrics (counts and simulated statistics) compare
with ``==``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from .metrics import E2E
from .stats import verdict


def _side(summary: dict) -> str:
    """The value, then the median and quartiles of all samples."""
    if "median" not in summary:
        return f"{summary['value']:.5g}"
    return (f"{summary['value']:.5g} ({summary['median']:.5g} "
            f"[{summary['q1']:.5g}, {summary['q3']:.5g}])")


def compare_ledgers(base: dict, other: dict) -> List[dict]:
    """The rows; each has ``workload``, ``metric`` and ``verdict``."""
    rows = []
    for name, a in base["workloads"].items():
        b = other["workloads"].get(name)
        if b is None or a["status"] != "ok" or b["status"] != "ok":
            continue
        for metric_name, a_summary in a["end_to_end"].items():
            b_summary = b["end_to_end"].get(metric_name)
            if b_summary is None:
                continue
            metric = E2E[metric_name]
            rows.append({
                "workload": name, "metric": metric_name,
                "unit": metric.unit, "base": _side(a_summary),
                "other": _side(b_summary), "bound": metric.bound,
                **verdict(metric, a_summary, b_summary)})
        exact_a = {**a["exact"], **{
            k: v["value"] for k, v in a["per_layer"].items()
            if v["exact"]}}
        exact_b = {**b["exact"], **{
            k: v["value"] for k, v in b["per_layer"].items()
            if v["exact"]}}
        for key in sorted(exact_a.keys() & exact_b.keys()):
            rows.append({
                "workload": name, "metric": key, "unit": "exact",
                "base": str(exact_a[key])[:24],
                "other": str(exact_b[key])[:24],
                "verdict": "equal" if exact_a[key] == exact_b[key]
                else "DIFFERENT"})
    return rows


def main(paths: List[str]) -> int:
    base, other = (json.loads(Path(p).read_text()) for p in paths)
    rows = compare_ledgers(base, other)
    print(f"base  {paths[0]}  host {base['host']}")
    print(f"other {paths[1]}  host {other['host']}")
    print(f"{'workload':20} {'metric':26} "
          f"{'base value (median [q1, q3])':38} "
          f"{'other value (median [q1, q3])':38} {'delta':>8} "
          f"{'bound':>5}  verdict")
    for row in rows:
        if "worse_by" in row:
            # positive delta = other is worse, as a share of base
            delta = f"{row['worse_by']:+.1%}"
            bound = f"{row['bound']:.0%}"
        else:
            delta = bound = ""
        print(f"{row['workload']:20} {row['metric']:26} "
              f"{row['base']:38} {row['other']:38} {delta:>8} "
              f"{bound:>5}  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("worse", "DIFFERENT")]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(bad)} worse or different, "
          f"{len(unresolved)} unresolved")
    return 1 if bad else 0
