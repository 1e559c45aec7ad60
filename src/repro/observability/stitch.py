"""Cross-process trace stitching: one Perfetto trace per service job.

A service-submitted run produces observability in three places with
three different clocks:

* the **scheduler** knows wall-clock phase timings (queue wait, cache
  lookup, execution span) recorded on the job,
* the **event log** holds wall-stamped lifecycle events (worker
  spawns, host deploys/deaths, re-placements) written by whichever
  process saw them,
* the **workers** collect per-partition simulation spans in *modelled*
  host time, shipped home in result fragments and archived in the run
  record's ``obs`` extra.

Stitching puts all three on one µs timeline anchored at the job's
submit time: wall-stamped records are offset from ``submitted``;
modelled-time partition spans are shifted so their first event lands at
the start of the job's execution span (the modelled clock advances much
faster than the wall clock — the shift preserves *ordering and
structure*, which is what a human reads in the merged view).

Track identity: partitions are renamed ``<job>/<host>/<part>`` and the
export uses hash-namespaced pid/tids
(:func:`~repro.observability.chrome_trace.iter_chrome_records` with
``hash_track_ids=True``), so two jobs — or two hosts running a
partition of the same name — can never collide on a track.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .chrome_trace import stream_chrome_trace
from .tracer import TraceEvent, dict_to_event

#: track (Chrome "process") that carries the scheduler-side job spans
SERVICE_TRACK = "service"


# -- the three sources ------------------------------------------------------

def service_spans(job_record: dict) -> List[TraceEvent]:
    """Scheduler-side spans of one job, on the µs-from-submit
    timeline: cache lookup, queue wait, execution."""
    submitted = job_record.get("submitted")
    if submitted is None:
        return []
    job_id = job_record.get("job_id", "?")
    corr = job_record.get("corr_id", "")
    events: List[TraceEvent] = []

    def span(kind: str, start_s: float, dur_s: Optional[float],
             scope: str) -> None:
        if dur_s is None:
            return
        events.append(TraceEvent(
            kind=kind, ts_ns=start_s * 1e9,
            dur_ns=max(dur_s, 0.0) * 1e9,
            part=SERVICE_TRACK, scope=scope,
            args={"job": job_id, "corr": corr,
                  "tenant": job_record.get("tenant", "")}))

    span("cache_lookup", 0.0, job_record.get("cache_lookup_s"),
         "cache")
    span("queue_wait", 0.0, job_record.get("queue_wait_s"),
         "scheduler")
    started = job_record.get("started")
    finished = job_record.get("finished")
    if started is not None:
        dur = job_record.get("execution_s")
        if dur is None and finished is not None:
            dur = finished - started
        span("execution", started - submitted, dur, "scheduler")
    return events


def fabric_events(job_record: dict,
                  entries: Iterable[TraceEvent]) -> List[TraceEvent]:
    """Event-log entries as instants on per-host / per-worker tracks
    (and the job lifecycle on the service track)."""
    submitted = job_record.get("submitted") or 0.0
    job_id = job_record.get("job_id", "?")
    events: List[TraceEvent] = []
    for entry in entries:
        wall = entry.args.get("wall")
        if wall is None:
            continue
        host = entry.args.get("host", "")
        part = entry.part
        if host:
            track, scope = f"host:{host}", part or "agent"
        elif part:
            track, scope = f"{job_id}/workers", part
        else:
            track, scope = SERVICE_TRACK, "lifecycle"
        args = {k: v for k, v in entry.args.items()
                if k not in ("wall", "seq", "pid")}
        if part:
            # re-homed onto a host/worker track: the partition it
            # came from stays readable in the args
            args["part"] = part
        events.append(TraceEvent(
            kind=entry.kind, ts_ns=max(wall - submitted, 0.0) * 1e9,
            part=track, scope=scope, args=args))
    return events


def _part_hosts(run_record: Optional[dict]) -> Dict[str, str]:
    """partition -> host from the run record's farm placement (the
    last placement wins — it is the one that completed)."""
    if not run_record:
        return {}
    farm = run_record.get("farm") or {}
    placements = farm.get("placements") or []
    if not placements:
        return {}
    return dict(placements[-1].get("assignment", {}))


def partition_events(job_record: dict,
                     run_record: Optional[dict]) -> List[TraceEvent]:
    """Archived per-partition simulation spans, renamed onto
    ``<job>/<host>/<part>`` tracks and shifted onto the job
    timeline."""
    if not run_record:
        return []
    obs = run_record.get("obs") or {}
    payloads = obs.get("trace_events") or []
    if not payloads:
        return []
    job_id = job_record.get("job_id", "?")
    submitted = job_record.get("submitted")
    started = job_record.get("started")
    exec_start_ns = ((started - submitted) * 1e9
                     if submitted is not None and started is not None
                     else 0.0)
    raw = [dict_to_event(p) for p in payloads]
    shift = exec_start_ns - min(e.ts_ns for e in raw)
    hosts = _part_hosts(run_record)
    events = []
    for event in raw:
        part = event.part or "global"
        host = hosts.get(part, "local")
        events.append(TraceEvent(
            kind=event.kind, ts_ns=event.ts_ns + shift,
            dur_ns=event.dur_ns,
            part=f"{job_id}/{host}/{part}",
            scope=event.scope, args=event.args))
    return events


# -- the merge --------------------------------------------------------------

def stitch_job_trace(job_record: dict,
                     run_record: Optional[dict] = None,
                     entries: Iterable[TraceEvent] = ()
                     ) -> List[TraceEvent]:
    """Merge the three sources into one ordered event stream."""
    events = service_spans(job_record)
    events.extend(fabric_events(job_record, entries))
    events.extend(partition_events(job_record, run_record))
    events.sort(key=lambda e: (e.ts_ns, e.part, e.scope, e.kind))
    return events


def export_job_trace(path, job_record: dict,
                     run_record: Optional[dict] = None,
                     entries: Iterable[TraceEvent] = (),
                     compress: bool = False):
    """Stitch and stream-export one job's Perfetto trace; returns
    (written path, event count)."""
    events = stitch_job_trace(job_record, run_record, entries)
    written = stream_chrome_trace(events, path, compress=compress,
                                  hash_track_ids=True)
    return written, len(events)
