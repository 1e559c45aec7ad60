"""Observability layer — *records*: what happened, one event at a time.

FireAxe's performance story (Sec. VI-A, Figs. 11-14) is entirely about
*where host time goes* — (de)serialization, wire latency, credit
stalls, token-exchange slack.  This package is the instrumentation that
makes those visible in the reproduction, for a single simulation and
for the system around it (service, backends, farm) alike; the
*aggregates* — how much, compared to what — live in
:mod:`repro.telemetry`:

* :mod:`~repro.observability.tracer` — the one event record
  (:class:`TraceEvent`), the one sink protocol (:class:`Tracer`, null
  by default) and its JSON form, threaded through the harness, the
  LI-BDN hosts, the reliable link layer, the run supervisor, the
  service scheduler, the backend coordinators and the farm,
* :mod:`~repro.observability.events` — lifecycle events and their two
  sinks: the JSONL event log (``repro tail``) and its stderr twin
  (``REPRO_LOG_LEVEL``),
* :mod:`~repro.observability.corr` — request-scoped correlation IDs,
  minted at ``service.submit`` and propagated into every worker
  subprocess via ``REPRO_CORR_ID`` (each worker echoes it back in its
  result fragment),
* :mod:`~repro.observability.stitch` — cross-process trace stitching:
  scheduler spans, event-log instants and the workers' modelled-time
  partition spans merged into one Perfetto trace per job
  (``repro trace --job``),
* :mod:`~repro.observability.fmr` — per-partition FMR breakdown
  accounting (compute / serdes / link-wait / credit-stall / sync) that
  sums exactly to each partition's reported FMR,
* :mod:`~repro.observability.chrome_trace` — Chrome trace-event JSON
  export, loadable in https://ui.perfetto.dev,
* :mod:`~repro.observability.postmortem` — deadlock postmortems: full
  channel state plus the trailing event ring on ``DeadlockError``,
* :mod:`~repro.observability.profile` — profile reports and the
  ambient session behind ``python -m repro.experiments --profile``.
"""

from .chrome_trace import (
    iter_chrome_records,
    stream_chrome_trace,
    to_chrome_trace,
)
from .corr import (
    CORR_ENV,
    current_corr_id,
    mint_corr_id,
    propagate_corr_id,
)
from .events import (
    EVENT_KINDS,
    EventLog,
    LogTracer,
    follow_events,
    format_event,
    lifecycle_event,
    open_event_log,
    read_events,
)
from .fmr import FMR_COMPONENTS, FMRSpans
from .postmortem import DeadlockPostmortem
from .profile import (
    ProfileSession,
    dominant_component,
    format_profile,
    profile_session,
    record_result,
)
from .stitch import (
    SERVICE_TRACK,
    export_job_trace,
    stitch_job_trace,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    TeeTracer,
    TraceEvent,
    Tracer,
    dict_to_event,
    event_to_dict,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
    "TeeTracer",
    "TraceEvent",
    "event_to_dict",
    "dict_to_event",
    "CORR_ENV",
    "mint_corr_id",
    "current_corr_id",
    "propagate_corr_id",
    "EventLog",
    "LogTracer",
    "lifecycle_event",
    "open_event_log",
    "read_events",
    "follow_events",
    "format_event",
    "EVENT_KINDS",
    "SERVICE_TRACK",
    "stitch_job_trace",
    "export_job_trace",
    "FMRSpans",
    "FMR_COMPONENTS",
    "DeadlockPostmortem",
    "to_chrome_trace",
    "stream_chrome_trace",
    "iter_chrome_records",
    "ProfileSession",
    "profile_session",
    "record_result",
    "format_profile",
    "dominant_component",
]
