"""Structured JSONL lifecycle-event log (null by default).

The observability plane's durable record: one JSON object per line,
append-only, written by whichever process observed the event — the
service scheduler, a backend coordinator, a farm host agent.  Like the
:class:`~repro.observability.tracer.Tracer`, the log is strictly
pay-as-you-go: the default sink is :data:`NULL_EVENT_LOG` whose
``enabled`` flag is False, and every emit site guards on that flag, so
an unlogged run never formats an entry.

Event kinds (the job lifecycle, then the execution fabric):

======================  =====================================================
kind                    meaning
======================  =====================================================
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
======================  =====================================================

Every entry is stamped with a per-process sequence number, a
``time.monotonic_ns`` timestamp (``ts_ns``), the wall-clock time
(``wall``), and the writing ``pid``; the identity fields (``corr``,
``tenant``, ``fingerprint``, ``job``, ``part``, ``host``) appear when
non-empty.  Entries are single ``write()`` calls on an ``O_APPEND``
stream, so concurrent writers (coordinator + forked agents) interleave
whole lines, never bytes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

# -- lifecycle kinds --------------------------------------------------------

EV_SUBMITTED = "submitted"
EV_CACHE_HIT = "cache_hit"
EV_COALESCED = "coalesced"
EV_REJECTED = "rejected"
EV_ADMITTED = "admitted"
EV_QUEUED = "queued"
EV_EXECUTING = "executing"
EV_DONE = "done"
EV_FAILED = "failed"
EV_CANCELLED = "cancelled"
EV_WORKER_SPAWN = "worker_spawn"
EV_WORKER_EXIT = "worker_exit"
EV_HOST_DEPLOY = "host_deploy"
EV_HOST_DEATH = "host_death"
EV_HOST_REPLACE = "host_replace"

#: every kind the plane emits, in rough lifecycle order
EVENT_KINDS = (
    EV_SUBMITTED, EV_CACHE_HIT, EV_COALESCED, EV_REJECTED,
    EV_ADMITTED, EV_QUEUED, EV_EXECUTING, EV_DONE, EV_FAILED,
    EV_CANCELLED, EV_WORKER_SPAWN, EV_WORKER_EXIT, EV_HOST_DEPLOY,
    EV_HOST_DEATH, EV_HOST_REPLACE,
)

#: identity fields serialized only when non-empty
_IDENTITY = ("corr", "tenant", "fingerprint", "job", "part", "host")


class EventLog:
    """Append-only JSONL sink for lifecycle events.

    The file handle is opened lazily *per process*: a forked child
    (worker, agent) inheriting the object reopens its own ``O_APPEND``
    stream on first emit instead of sharing the parent's buffered
    handle — appends from any number of processes interleave whole
    lines.
    """

    #: emit sites skip entry construction entirely when False
    enabled: bool = True

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fh = None
        self._pid: Optional[int] = None
        self._seq = 0
        self._lock = threading.Lock()

    def emit(self, kind: str, corr: str = "", tenant: str = "",
             fingerprint: str = "", job: str = "", part: str = "",
             host: str = "", **fields) -> None:
        """Append one event; identity keys appear only when set."""
        entry: Dict[str, object] = {
            "kind": kind,
            "ts_ns": time.monotonic_ns(),
            "wall": time.time(),
        }
        for key, value in zip(_IDENTITY, (corr, tenant, fingerprint,
                                          job, part, host)):
            if value:
                entry[key] = value
        entry.update(fields)
        line = json.dumps(entry, sort_keys=False)
        with self._lock:
            fh = self._ensure_open()
            self._seq += 1
            entry_head = (f'{{"seq": {self._seq}, '
                          f'"pid": {os.getpid()}, ')
            fh.write(entry_head + line[1:] + "\n")
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


class NullEventLog:
    """The free default: ``enabled`` is False and ``emit`` is a
    no-op.  Emit sites guard on the flag, so the null plane costs one
    attribute read per potential event."""

    enabled: bool = False

    def emit(self, kind: str, **fields) -> None:  # pragma: no cover
        pass

    def close(self) -> None:  # pragma: no cover
        pass


#: the shared do-nothing sink
NULL_EVENT_LOG = NullEventLog()


def open_event_log(path: Optional[Union[str, Path]]):
    """An :class:`EventLog` at ``path``, or :data:`NULL_EVENT_LOG`
    when ``path`` is falsy — the one-liner for optional wiring."""
    return EventLog(path) if path else NULL_EVENT_LOG


# -- reading ----------------------------------------------------------------

def read_events(path: Union[str, Path],
                corr: Optional[str] = None,
                tenant: Optional[str] = None,
                kinds: Optional[Iterable[str]] = None
                ) -> Iterator[dict]:
    """Iterate the event log's entries, optionally filtered.

    Unparseable lines (a torn tail from a crashed writer) are
    skipped, never raised — the log is diagnostics, not a ledger.
    """
    wanted = set(kinds) if kinds else None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if corr is not None and entry.get("corr") != corr:
                continue
            if tenant is not None and entry.get("tenant") != tenant:
                continue
            if wanted is not None and entry.get("kind") not in wanted:
                continue
            yield entry


def follow_events(path: Union[str, Path],
                  corr: Optional[str] = None,
                  tenant: Optional[str] = None,
                  kinds: Optional[Iterable[str]] = None,
                  poll: float = 0.25,
                  timeout: Optional[float] = None
                  ) -> Iterator[dict]:
    """``tail -f`` the event log: yield matching entries as they are
    appended, until ``timeout`` seconds pass without the file growing
    (``None`` follows forever)."""
    wanted = set(kinds) if kinds else None
    offset = 0
    deadline = (time.monotonic() + timeout) if timeout else None
    buffer = ""
    while True:
        grew = False
        try:
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(offset)
                chunk = fh.read()
                offset = fh.tell()
        except OSError:
            chunk = ""
        if chunk:
            grew = True
            buffer += chunk
            *lines, buffer = buffer.split("\n")
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if corr is not None and entry.get("corr") != corr:
                    continue
                if tenant is not None \
                        and entry.get("tenant") != tenant:
                    continue
                if wanted is not None \
                        and entry.get("kind") not in wanted:
                    continue
                yield entry
        if grew:
            if deadline is not None:
                deadline = time.monotonic() + timeout
            continue
        if deadline is not None and time.monotonic() > deadline:
            return
        time.sleep(poll)


def format_event(entry: dict) -> str:
    """One human-readable line per entry — what ``repro tail``
    prints."""
    wall = entry.get("wall")
    stamp = time.strftime("%H:%M:%S", time.localtime(wall)) \
        if wall else "--:--:--"
    parts = [stamp, f"{entry.get('kind', '?'):12s}"]
    for key in _IDENTITY:
        if entry.get(key):
            parts.append(f"{key}={entry[key]}")
    skip = set(_IDENTITY) | {"kind", "ts_ns", "wall", "seq", "pid"}
    for key in sorted(entry):
        if key not in skip:
            parts.append(f"{key}={entry[key]}")
    return " ".join(parts)
