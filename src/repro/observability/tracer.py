"""Structured trace events and tracer sinks.

The partitioned harness, the LI-BDN hosts, the reliable link layer and
the run supervisor all emit :class:`TraceEvent` records through a
:class:`Tracer`.  The default sink is :data:`NULL_TRACER`, whose
``enabled`` flag is ``False``; every emit site guards on that flag, so
an untraced run does not even construct the event objects — tracing is
strictly pay-as-you-go.  On the compiled step plane a null sink costs
nothing at all: it prints the same step functions as no sink
(``tests/harness/test_stepjit.py::TestGeneratedSources::
test_null_sinks_print_the_untraced_plane``).

Event kinds (see DESIGN.md for the full schema):

======================  =====================================================
kind                    meaning
======================  =====================================================
``channel_fire``        an LI-BDN output channel fired (from the wrapper)
``advance``             an LI-BDN unit consumed its inputs (from the wrapper)
``token_tx``            a token was serialized onto a link (span: serdes)
``token_rx``            a token arrived at a destination channel
``credit_stall``        a sender waited for channel credit (span)
``target_cycle``        a unit's timed advance (span: compute + sync)
``bridge_output``       a token left through an external bridge tap
``link_retry``          the reliable layer waited out a fault (span)
``heartbeat``           supervisor progress snapshot
``checkpoint``          supervisor captured run state
``rollback``            supervisor restored the last checkpoint
``deadlock``            token exchange halted (terminal)
``submitted``           a request entered ``service.submit``
``cache_hit``           the fingerprint matched an archived run
``coalesced``           the request attached to an in-flight leader
``rejected``            admission refused the request (quota)
``admitted``            admission accepted the request
``queued``              the job entered the priority queue
``executing``           a worker slot picked the job up
``done``                the job completed (any source)
``failed``              execution raised; the error rides along
``cancelled``           the job was cancelled (queued or running)
``worker_spawn``        a backend coordinator forked a partition worker
``worker_exit``         a partition worker (or host agent) was reaped
``host_deploy``         the farm manager forked a host agent
``host_death``          a host died (agent exit or heartbeat timeout)
``host_replace``        the run re-placed onto the surviving hosts
``http``                the service endpoint served one exchange
======================  =====================================================

Simulation kinds (``channel_fire`` .. ``deadlock``) are stamped in
nanoseconds of *modelled host time* (the timing overlay's clock, not
python wall time).  Lifecycle kinds (``submitted`` ..
``host_replace``, built by
:func:`~repro.observability.events.lifecycle_event`) are stamped with
``time.monotonic_ns`` and carry the wall clock as ``args["wall"]``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional


@dataclass
class TraceEvent:
    """One structured trace record.

    Attributes:
        kind: event kind (see module docstring).
        ts_ns: modelled host time at which the event starts.
        dur_ns: span duration (0 for instant events).
        part: partition the event belongs to ("" for global events).
        scope: finer-grained origin — a unit, channel, or link key.
        args: kind-specific payload (widths, spans, cycles, reasons).
    """

    kind: str
    ts_ns: float
    dur_ns: float = 0.0
    part: str = ""
    scope: str = ""
    args: Dict[str, object] = field(default_factory=dict)


def event_to_dict(event: TraceEvent) -> dict:
    """The one JSON-able form of an event — a JSONL event-log line and
    a run record's ``obs.trace_events`` entry alike: ``kind`` and
    ``ts_ns``, the other record fields when set, then ``args``
    flattened in (so ``args`` keys must not shadow the record's own
    field names)."""
    out = {"kind": event.kind, "ts_ns": event.ts_ns}
    if event.dur_ns:
        out["dur_ns"] = event.dur_ns
    if event.part:
        out["part"] = event.part
    if event.scope:
        out["scope"] = event.scope
    out.update(event.args)
    return out


def dict_to_event(payload: dict) -> TraceEvent:
    """Inverse of :func:`event_to_dict`; every key that is not a
    record field lands in ``args``."""
    args = dict(payload)
    return TraceEvent(
        kind=args.pop("kind", "?"),
        ts_ns=args.pop("ts_ns", 0.0),
        dur_ns=args.pop("dur_ns", 0.0),
        part=args.pop("part", ""),
        scope=args.pop("scope", ""),
        args=args)


class Tracer:
    """Sink protocol for trace events.

    Emit sites check :attr:`enabled` before building an event, so a
    disabled tracer costs one attribute read per *potential* event.
    """

    #: emit sites skip event construction entirely when False
    enabled: bool = True

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def recent(self, n: int) -> List[TraceEvent]:
        """Last ``n`` events this tracer retained (empty by default)."""
        return []

    def close(self) -> None:
        """Release what the sink holds open (nothing by default)."""


class NullTracer(Tracer):
    """The default no-op sink: nothing is recorded, nothing is paid."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover
        pass


#: shared default sink — attach sites use this instead of None checks
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Keeps events in memory, optionally as a bounded ring buffer.

    Args:
        capacity: maximum events retained (oldest dropped first);
            ``None`` keeps everything.
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.total_emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.total_emitted += 1

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def recent(self, n: int) -> List[TraceEvent]:
        if n <= 0:
            return []
        return list(self._events)[-n:]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self._events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Retained event count per kind."""
        return dict(Counter(e.kind for e in self._events))

    def clear(self) -> None:
        self._events.clear()
        self.total_emitted = 0


class TeeTracer(Tracer):
    """Fans every event out to several sinks (e.g. ring + full log)."""

    def __init__(self, sinks: Iterable[Tracer]):
        self.sinks = [s for s in sinks if s.enabled]
        self.enabled = bool(self.sinks)

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def recent(self, n: int) -> List[TraceEvent]:
        for sink in self.sinks:
            events = sink.recent(n)
            if events:
                return events
        return []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
