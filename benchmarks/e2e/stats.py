"""Summaries of the children's samples, and the verdict between two.

The hosts this runs on are shared: a compute-bound loop sees slow
phases of 15-30 % that last seconds, so the median of a run's samples
moves 10-20 % from run to run while its fast end barely moves.  Every
child is first reduced to one number per metric — its median, or for
back-to-back compute windows (``Metric.floor``) its fast decile: the
10th percentile of a time, the 90th of a rate — and a metric's *value*
is the best child's: what the code costs when the host leaves it alone.
Median, quartiles, the tail percentile the count supports and the
count of all samples are reported beside every value.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence

from .metrics import LOWER, Metric

#: tail percentiles, highest first
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = -(-len(ordered) * pct // 100)  # ceiling
    return ordered[max(int(rank), 1) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it."""
    for pct in PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return None


def summarize(by_child: List[List[float]], metric: Metric) -> dict:
    """One metric: ``by_child`` holds each child's samples.

    ``per_child`` is each child's median (its fast decile for a
    ``floor`` metric) and ``value`` the best of them; ``compare``
    reads the child-to-child spread off ``per_child``.
    """
    better = metric.better
    if metric.floor:
        pct = 10.0 if better == LOWER else 90.0
        per_child = [percentile(samples, pct) for samples in by_child]
    else:
        per_child = [statistics.median(samples) for samples in by_child]
    pooled = [x for samples in by_child for x in samples]
    if len(pooled) >= 2:
        q1, _, q3 = statistics.quantiles(pooled, n=4)
    else:
        q1 = q3 = pooled[0]
    summary = {
        "value": min(per_child) if better == LOWER else max(per_child),
        "per_child": per_child,
        "median": statistics.median(pooled), "q1": q1, "q3": q3,
        "n": len(pooled)}
    pct = tail_percentile(len(pooled))
    if pct is not None:
        summary["tail"] = {"percentile": pct,
                           "value": percentile(pooled, pct)}
    return summary


def summarize_window_tail(by_child: List[List[float]]) -> dict:
    """``sim_window_ms_tail``: the percentile the pooled window count
    supports, read off each child's windows — a tail, so valued at the
    children's median, not at their best."""
    pooled = sum(len(w) for w in by_child)
    pct = tail_percentile(pooled) or 50.0
    per_child = [percentile(w, pct) for w in by_child]
    return {"value": statistics.median(per_child),
            "per_child": per_child, "percentile": pct, "n": pooled}


def verdict(metric: Metric, base: dict, other: dict) -> dict:
    """``better / within / worse / unresolved`` for ``other`` against
    ``base``: unresolved when the child-to-child spread exceeds the
    bound and the two sides' children interleave.  The spread is the
    distance from the best child to the median one, so a single child
    that met a slow phase does not unsettle the other two."""
    worse_by = (other["value"] - base["value"]) / base["value"]
    if metric.better != LOWER:
        worse_by = -worse_by
    spread = max(
        abs(statistics.median(s["per_child"]) - s["value"]) / s["value"]
        for s in (base, other))
    interleave = not (
        max(base["per_child"]) < min(other["per_child"])
        or max(other["per_child"]) < min(base["per_child"]))
    if spread > metric.bound and interleave:
        word = "unresolved"
    elif worse_by > metric.bound:
        word = "worse"
    elif worse_by < -metric.bound:
        word = "better"
    else:
        word = "within"
    return {"verdict": word, "worse_by": worse_by, "spread": spread}
