"""Structured trace events and tracer sinks.

The partitioned harness, the LI-BDN hosts, the reliable link layer and
the run supervisor all emit :class:`TraceEvent` records through a
:class:`Tracer`.  The default sink is :data:`NULL_TRACER`, whose
``enabled`` flag is ``False``; every emit site guards on that flag, so
an untraced run does not even construct the event objects — tracing is
strictly pay-as-you-go.  On the compiled step plane a live sink costs
one tuple append per event (see *Rows* below) and a null sink costs
nothing at all: it prints the same pass as no sink
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
``executing``           a job child started (``plan``: hit or miss)
``done``                the job completed (any source)
``failed``              execution raised; the error rides along
``cancelled``           the job was cancelled (queued or running)
``worker_spawn``        a backend coordinator forked a partition worker
``worker_exit``         a coordinator reaped a partition worker (once each)
``host_deploy``         the farm manager placed partitions on a host
``host_death``          a worker of a host the manager pulled died
``host_replace``        the run re-placed onto the surviving hosts
``http``                the service endpoint served one exchange
======================  =====================================================

Simulation kinds (``channel_fire`` .. ``deadlock``) are stamped in
nanoseconds of *modelled host time* (the timing overlay's clock, not
python wall time).  Lifecycle kinds (``submitted`` ..
``host_replace``, built by
:func:`~repro.observability.events.lifecycle_event`) are stamped with
``time.monotonic_ns`` and carry the wall clock as ``args["wall"]``.

**Rows.**  ``TraceEvent`` is the only record anyone reads, and
``emit(event)`` the protocol of every emitter but one: the compiled
step plane prints each of its emit sites as a static
:class:`TraceSite` and hands the sink flat rows, ``(site, ts_ns,
dur_ns, *dynamic_args)``, through the appender :meth:`Tracer.row_sink`
returns.  The base sink builds the event and calls ``emit``;
:class:`RecordingTracer` stores the row as it is and builds its
``TraceEvent`` when the event is read, equal to the one the
interpreter emits in every field, arg-key order and ``repr``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Deque, Dict, Iterable, List, Optional, Union


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


#: a :class:`TraceSite` arg whose value rides in the row
ROW = object()


class TraceSite:
    """One compiled emit site: what every event it prints shares.

    ``args`` is ``((key, value), ...)`` in printed order, ``value``
    being :data:`ROW` for an arg read when the event fires; those ride
    in the row after ``ts_ns`` and ``dur_ns``, in the same order.
    """

    __slots__ = ("kind", "part", "scope", "args")

    def __init__(self, kind: str, part: str, scope: str, args):
        self.kind = kind
        self.part = part
        self.scope = scope
        self.args = tuple(args)

    def event(self, row: tuple) -> TraceEvent:
        """The :class:`TraceEvent` of one of this site's rows."""
        dynamic = iter(row[3:])
        return TraceEvent(
            self.kind, row[1], row[2], self.part, self.scope,
            {key: next(dynamic) if value is ROW else value
             for key, value in self.args})


def _event(entry) -> TraceEvent:
    """A ring entry as an event: emitted events are stored as they
    are, step-plane rows are built."""
    return entry if type(entry) is not tuple else entry[0].event(entry)


def _kind(entry) -> str:
    return entry.kind if type(entry) is not tuple else entry[0].kind


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
    #: the compiled step plane adds the rows it printed here, once per
    #: step call (``RecordingTracer.emit`` counts its events here too)
    total_emitted: int = 0

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def row_sink(self) -> Callable[[tuple], None]:
        """The appender a compiled step plane prints its rows into,
        taken once per plane build.  By default each row becomes its
        :class:`TraceEvent` and goes through :meth:`emit`, so any sink
        takes rows unchanged."""
        emit = self.emit

        def sink(row: tuple) -> None:
            emit(row[0].event(row))
        return sink

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

    The ring holds emitted events and step-plane rows side by side (the
    row appender is the ring's own ``append``); every reader returns
    :class:`TraceEvent` s, building a row's when it is read.

    Args:
        capacity: maximum events retained (oldest dropped first);
            ``None`` keeps everything.
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self._events: Deque[Union[TraceEvent, tuple]] = deque(
            maxlen=capacity)
        self.total_emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._events.append(event)
        self.total_emitted += 1

    def row_sink(self) -> Callable[[tuple], None]:
        return self._events.append

    @property
    def events(self) -> List[TraceEvent]:
        return [_event(entry) for entry in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def recent(self, n: int) -> List[TraceEvent]:
        if n <= 0:
            return []
        tail = list(islice(reversed(self._events), n))
        tail.reverse()
        return [_event(entry) for entry in tail]

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [_event(entry) for entry in self._events
                if _kind(entry) == kind]

    def counts(self) -> Dict[str, int]:
        """Retained event count per kind."""
        return dict(Counter(map(_kind, self._events)))

    def clear(self) -> None:
        # in place: a compiled plane holds the ring's bound append
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
