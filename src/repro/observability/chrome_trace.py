"""Chrome trace-event (Perfetto-loadable) export.

Converts a stream of :class:`~repro.observability.tracer.TraceEvent`
records into the Chrome ``traceEvents`` JSON format, which
https://ui.perfetto.dev (and chrome://tracing) open directly:

* every partition becomes a *process* (named via ``process_name``
  metadata), every unit/link/channel scope within it a *thread*,
* span events (``dur_ns > 0``) become complete events (``"ph": "X"``),
  instant events become ``"ph": "i"``,
* ``token_rx`` events carrying a ``depth`` argument also emit a counter
  track (``"ph": "C"``) showing the receiver-side in-flight token depth
  per destination channel.

Timestamps are the timing overlay's modelled host time, exported in
microseconds as the format requires.

:func:`stream_chrome_trace` writes record-by-record — the document is
never materialized, so a multi-million-event trace exports in constant
memory — and optionally gzip-compresses on the way out (Perfetto opens
``.json.gz`` directly); :func:`to_chrome_trace` builds the same
document in memory.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from .tracer import TraceEvent


def _stable_id(*names: str) -> int:
    """Deterministic 31-bit track id from a name tuple (never 0 —
    tid 0 is reserved for metadata/counter records)."""
    digest = hashlib.blake2b("\x1f".join(names).encode(),
                             digest_size=4).digest()
    return (int.from_bytes(digest, "big") & 0x7FFFFFFF) or 1


def iter_chrome_records(events: Iterable[TraceEvent],
                        hash_track_ids: bool = False
                        ) -> Iterator[dict]:
    """Yield Chrome trace records one at a time, interleaving the
    process/thread metadata records exactly where a buffered export
    would have placed them (first use).

    With ``hash_track_ids`` the pid/tid of each track derive from a
    stable hash of its full name (collisions resolved by deterministic
    linear probing) instead of first-use counters.  Counters restart
    at 1 for every export, so concatenating two exported streams — a
    stitched multi-job or multi-host trace — would land *different*
    partitions on the *same* track id; hashed ids keep every
    ``(job, host, partition)`` namespace distinct no matter how many
    streams merge.
    """
    pid_of: Dict[str, int] = {}
    tid_of: Dict[Tuple[str, str], int] = {}
    pending: List[dict] = []
    taken_pids: Dict[int, str] = {}
    taken_tids: Dict[Tuple[int, int], Tuple[str, str]] = {}

    def pid(part: str) -> int:
        name = part or "global"
        if name not in pid_of:
            if hash_track_ids:
                candidate = _stable_id(name)
                while taken_pids.get(candidate, name) != name:
                    candidate = (candidate % 0x7FFFFFFF) + 1
                taken_pids[candidate] = name
                pid_of[name] = candidate
            else:
                pid_of[name] = len(pid_of) + 1
            pending.append({"ph": "M", "name": "process_name",
                            "pid": pid_of[name], "tid": 0,
                            "args": {"name": name}})
        return pid_of[name]

    def tid(part: str, scope: str) -> int:
        key = (part or "global", scope or "events")
        if key not in tid_of:
            if hash_track_ids:
                process = pid(part)
                candidate = _stable_id(key[0], key[1])
                while taken_tids.get((process, candidate),
                                     key) != key:
                    candidate = (candidate % 0x7FFFFFFF) + 1
                taken_tids[(process, candidate)] = key
                tid_of[key] = candidate
            else:
                tid_of[key] = len(tid_of) + 1
            pending.append({"ph": "M", "name": "thread_name",
                            "pid": pid(part), "tid": tid_of[key],
                            "args": {"name": key[1]}})
        return tid_of[key]

    for event in events:
        record = {
            "name": event.kind,
            "cat": event.kind,
            "ts": event.ts_ns / 1e3,
            "pid": pid(event.part),
            "tid": tid(event.part, event.scope),
            "args": dict(event.args),
        }
        if event.dur_ns > 0:
            record["ph"] = "X"
            record["dur"] = event.dur_ns / 1e3
        else:
            record["ph"] = "i"
            record["s"] = "t"
        yield from pending
        pending.clear()
        yield record
        if event.kind == "token_rx" and "depth" in event.args:
            yield {
                "ph": "C",
                "name": f"in-flight {event.scope}",
                "ts": event.ts_ns / 1e3,
                "pid": pid(event.part),
                "tid": 0,
                "args": {"tokens": event.args["depth"]},
            }


def to_chrome_trace(events: Iterable[TraceEvent],
                    hash_track_ids: bool = False) -> dict:
    """Build the Chrome trace dict for ``events``."""
    return {"traceEvents": list(iter_chrome_records(
                events, hash_track_ids=hash_track_ids)),
            "displayTimeUnit": "ns"}


def stream_chrome_trace(events: Iterable[TraceEvent],
                        path: Union[str, Path],
                        compress: bool = False,
                        hash_track_ids: bool = False) -> Path:
    """Stream ``events`` to ``path`` without buffering the document.

    With ``compress`` the output is gzipped (a ``.gz`` suffix is
    appended unless the path already carries one).  The produced JSON
    parses to exactly what :func:`to_chrome_trace` builds.
    """
    path = Path(path)
    if compress and not path.name.endswith(".gz"):
        path = path.with_name(path.name + ".gz")
    path.parent.mkdir(parents=True, exist_ok=True)
    opener = (lambda p: gzip.open(p, "wt", encoding="utf-8")) \
        if compress else (lambda p: open(p, "w", encoding="utf-8"))
    with opener(path) as fh:
        fh.write('{"traceEvents": [')
        first = True
        for record in iter_chrome_records(
                events, hash_track_ids=hash_track_ids):
            if not first:
                fh.write(", ")
            fh.write(json.dumps(record))
            first = False
        fh.write('], "displayTimeUnit": "ns"}')
    return path
