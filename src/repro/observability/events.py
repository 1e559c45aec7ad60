"""Lifecycle events: the JSONL event log and its stderr twin.

The system around a simulation — the service scheduler, the backend
coordinators, the farm manager — reports what happened through the same
:class:`~repro.observability.tracer.TraceEvent` record and the same
:class:`~repro.observability.tracer.Tracer` sink protocol as the
simulation itself (the lifecycle kinds are listed in the tracer's kind
table).  This module holds what is particular to them:

* :func:`lifecycle_event` builds one, stamped with
  ``time.monotonic_ns`` and the wall clock; the identity fields
  (``corr``, ``tenant``, ``fingerprint``, ``job``, ``part``, ``host``)
  appear when non-empty,
* :class:`EventLog` is the durable sink — one JSON object per line
  (:func:`~repro.observability.tracer.event_to_dict` plus a per-process
  ``seq`` and the writing ``pid``), append-only.  Entries are single
  ``write()`` calls on an ``O_APPEND`` stream, so concurrent writers
  (coordinator + forked workers) interleave whole lines, never bytes,
* :class:`LogTracer` is the stderr sink over stdlib :mod:`logging`
  (level from ``REPRO_LOG_LEVEL``, default ``WARNING`` — the library
  stays silent unless asked), printing the lines ``repro tail`` prints,
* :func:`read_events` / :func:`follow_events` read a log back as
  events, :func:`format_event` renders one for a human.

Both sinks compose with :class:`~repro.observability.tracer.TeeTracer`;
the default everywhere is
:data:`~repro.observability.tracer.NULL_TRACER`, and every emit site
guards on ``enabled``, so an unlogged run never builds an event.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time
from pathlib import Path
from typing import Iterable, Iterator, Optional, Set, Union

from .tracer import (
    NULL_TRACER,
    TraceEvent,
    Tracer,
    dict_to_event,
    event_to_dict,
)

#: every lifecycle kind (see the tracer's kind table), in rough
#: lifecycle order: the job's, then the execution fabric's
EVENT_KINDS = (
    "submitted", "cache_hit", "coalesced", "rejected", "admitted",
    "queued", "executing", "done", "failed", "cancelled",
    "worker_spawn", "worker_exit", "host_deploy", "host_death",
    "host_replace",
)

#: identity fields, in the order ``repro tail`` prints them
_IDENTITY = ("corr", "tenant", "fingerprint", "job", "part", "host")
#: serialized keys a rendered line leaves out or has placed already
_UNLISTED = frozenset(_IDENTITY) | {"kind", "ts_ns", "wall", "seq", "pid"}


def lifecycle_event(kind: str, corr: str = "", tenant: str = "",
                    fingerprint: str = "", job: str = "",
                    part: str = "", host: str = "",
                    **fields) -> TraceEvent:
    """One lifecycle event, stamped now; identity keys appear only
    when set."""
    args = {"wall": time.time()}
    for key, value in (("corr", corr), ("tenant", tenant),
                       ("fingerprint", fingerprint), ("job", job),
                       ("host", host)):
        if value:
            args[key] = value
    args.update(fields)
    return TraceEvent(kind, time.monotonic_ns(), part=part, args=args)


# -- the two sinks ----------------------------------------------------------

class EventLog(Tracer):
    """Append-only JSONL sink.

    The file handle is opened lazily *per process*: a forked child
    (a worker) inheriting the object reopens its own ``O_APPEND``
    stream on first emit instead of sharing the parent's buffered
    handle — appends from any number of processes interleave whole
    lines.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = None
        self._pid: Optional[int] = None
        self._seq = 0
        self._lock = threading.Lock()

    def emit(self, event: TraceEvent) -> None:
        entry = event_to_dict(event)
        with self._lock:
            fh = self._ensure_open()
            self._seq += 1
            fh.write(json.dumps({"seq": self._seq, "pid": self._pid,
                                 **entry}) + "\n")
            fh.flush()

    def _ensure_open(self):
        pid = os.getpid()
        if self._fh is None or self._pid != pid:
            # a forked child inherits the object but must not share
            # the parent's buffered stream
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
            self._pid = pid
            self._seq = 0
        return self._fh

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and self._pid == os.getpid():
                self._fh.close()
            self._fh = None


def open_event_log(path: Optional[Union[str, Path]]) -> Tracer:
    """An :class:`EventLog` at ``path``, or the null tracer when
    ``path`` is falsy — the one-liner for optional wiring."""
    return EventLog(path) if path else NULL_TRACER


def _stderr_logger(name: str) -> logging.Logger:
    """The ``name`` logger, under a ``repro`` root given one stderr
    handler and the ``REPRO_LOG_LEVEL`` level on first use (left
    alone if the application configured logging itself)."""
    root = logging.getLogger("repro")
    if not root.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s",
            datefmt="%H:%M:%S"))
        root.addHandler(handler)
        level = getattr(logging, os.environ.get(
            "REPRO_LOG_LEVEL", "").strip().upper(), None)
        root.setLevel(level if isinstance(level, int)
                      else logging.WARNING)
        root.propagate = False
    return logging.getLogger(name)


class LogTracer(Tracer):
    """The event log's stderr twin: one ``logging`` INFO record per
    event on the named ``repro.*`` logger, so an operator grepping
    stderr and one tailing the event log see the same vocabulary.
    Enabled only when that logger is (``REPRO_LOG_LEVEL=INFO``)."""

    def __init__(self, name: str):
        self.logger = _stderr_logger(name)
        self.enabled = self.logger.isEnabledFor(logging.INFO)

    def emit(self, event: TraceEvent) -> None:
        self.logger.info(_describe(event))


# -- reading ----------------------------------------------------------------

def _select(lines: Iterable[str], corr: Optional[str],
            tenant: Optional[str], wanted: Optional[Set[str]]
            ) -> Iterator[TraceEvent]:
    """Parse log lines into events, keeping the matching ones.
    Unparseable lines (a torn tail from a crashed writer) are skipped,
    never raised — the log is diagnostics, not a ledger."""
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(entry, dict):
            continue
        if corr is not None and entry.get("corr") != corr:
            continue
        if tenant is not None and entry.get("tenant") != tenant:
            continue
        if wanted is not None and entry.get("kind") not in wanted:
            continue
        yield dict_to_event(entry)


def read_events(path: Union[str, Path],
                corr: Optional[str] = None,
                tenant: Optional[str] = None,
                kinds: Optional[Iterable[str]] = None
                ) -> Iterator[TraceEvent]:
    """Iterate the event log's entries, optionally filtered (``seq``,
    ``pid`` and ``wall`` ride in each event's ``args``)."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return
    with fh:
        yield from _select(fh, corr, tenant,
                           set(kinds) if kinds else None)


def follow_events(path: Union[str, Path],
                  corr: Optional[str] = None,
                  tenant: Optional[str] = None,
                  kinds: Optional[Iterable[str]] = None,
                  poll: float = 0.25,
                  timeout: Optional[float] = None
                  ) -> Iterator[TraceEvent]:
    """``tail -f`` the event log: yield matching entries as they are
    appended, until ``timeout`` seconds pass without the file growing
    (``None`` follows forever)."""
    wanted = set(kinds) if kinds else None
    offset = 0
    idle_since = time.monotonic()
    buffer = ""
    while True:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(offset)
                chunk = fh.read()
                offset = fh.tell()
        except OSError:
            chunk = ""
        if chunk:
            buffer += chunk
            *lines, buffer = buffer.split("\n")
            yield from _select(lines, corr, tenant, wanted)
            idle_since = time.monotonic()
            continue
        if timeout is not None \
                and time.monotonic() - idle_since >= timeout:
            return
        time.sleep(poll)


def _describe(event: TraceEvent) -> str:
    """``kind identity... other=fields`` of one event."""
    entry = event_to_dict(event)
    parts = [f"{event.kind:12s}"]
    parts.extend(f"{key}={entry[key]}" for key in _IDENTITY
                 if entry.get(key))
    parts.extend(f"{key}={entry[key]}" for key in sorted(entry)
                 if key not in _UNLISTED)
    return " ".join(parts)


def format_event(event: TraceEvent) -> str:
    """One human-readable line per event — what ``repro tail``
    prints."""
    wall = event.args.get("wall")
    stamp = time.strftime("%H:%M:%S", time.localtime(wall)) \
        if wall else "--:--:--"
    return f"{stamp} {_describe(event)}"
