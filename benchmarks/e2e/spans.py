"""In-memory spans around the benchmark's calls into each layer.

The traced pass wraps every call into ``repro`` in a span (name,
start, end, parent, workload); nothing inside ``src/`` is touched.
Spans stay in memory until the run ends, then go out as Chrome-trace
JSON.  A layer's self time is its span minus the part its children
cover, so the phases of a job sum to the job.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List


class Recorder:
    """Collects spans; with ``enabled=False`` every span is a no-op, so
    the untraced pass runs the same code without the bookkeeping."""

    def __init__(self, enabled: bool, workload: str = ""):
        self.enabled = enabled
        self.workload = workload
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append({
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()


def self_time_by_name(spans: List[dict]) -> Dict[str, float]:
    """Self time (duration minus direct children) summed over every
    span of each name; ``spans`` is one recorder's list."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
    return totals


def chrome_trace(spans_by_workload: Dict[str, List[dict]]) -> dict:
    """Complete ("X") Chrome trace events, one process row per
    workload; open the file in ui.perfetto.dev."""
    events = []
    for pid, (workload, spans) in enumerate(
            spans_by_workload.items(), start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": workload}})
        for s in spans:
            parent = s["parent"]
            events.append({
                "ph": "X", "name": s["name"], "pid": pid, "tid": 1,
                "ts": s["start"] * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"parent": None if parent is None
                         else spans[parent]["name"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
