"""Persistent run registry: archive, look up, and diff runs.

Every archived run lands under ``results/runs/<run_id>/run.json`` with
its config fingerprint, backend, headline numbers, per-partition FMR
breakdown and (when telemetry was on) the sampled metric series.  The
registry is the service's result cache, and what ``repro compare A B``
diffs:

* the **rate delta** between two runs, and
* the **FMR attribution** of that delta — which overhead component
  (serdes, link wait, credit stall, sync) of which partition absorbed
  the extra host time.  Because the FMR components partition each
  partition's ``busy_until`` exactly, the component deltas weighted by
  simulated cycles account for the whole change in host time; the
  dominant one names the cause.

Run identity: ``run_id`` is caller-chosen (CLI default: a name plus the
config fingerprint plus a sequence number), and the *fingerprint* —
a hash over the run's configuration — groups runs of the same workload
across time so trajectories can be tracked.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..observability.fmr import FMR_COMPONENTS

RUN_FORMAT = "fireaxe-repro-run"
RUN_VERSION = 1
INDEX_FORMAT = "fireaxe-repro-run-index"
INDEX_FILE = "index.json"


def config_fingerprint(config: dict) -> str:
    """Stable 12-hex-digit digest of a run configuration."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def run_record(result, name: str = "", backend: str = "",
               config: Optional[dict] = None,
               extra: Optional[dict] = None) -> dict:
    """Build the archive payload for one ``SimulationResult``.

    ``extra`` merges additional top-level keys into the record (e.g.
    the farm layer's ``{"farm": {placement, host_fmr, ...}}``); it may
    not override the fixed schema fields.
    """
    config = dict(config or {})
    detail = dict(result.detail)
    record = {
        "format": RUN_FORMAT,
        "version": RUN_VERSION,
        "name": name,
        "backend": backend,
        "config": config,
        "fingerprint": config_fingerprint(config),
        "created": time.time(),
        "target_cycles": result.target_cycles,
        "wall_ns": result.wall_ns,
        "rate_hz": result.rate_hz,
        "tokens_transferred": result.tokens_transferred,
        "per_partition_cycles": dict(result.per_partition_cycles),
        "detail": detail,
    }
    for key, value in (extra or {}).items():
        if key in record:
            raise ReproError(
                f"extra run-record key {key!r} collides with the "
                "fixed schema")
        record[key] = value
    return record


def _stamp(st: os.stat_result) -> tuple:
    """What identifies one written ``index.json``: it is replaced by
    rename, never rewritten in place."""
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class RunRegistry:
    """Archive of runs under one directory (``results/runs`` by
    default).

    As a cache substrate the registry keeps an ``index.json`` beside
    the run directories mapping ``run_id`` to its fingerprint,
    creation time and on-disk size.  Both the records and the index
    are written via atomic tmp+rename, so concurrent readers never
    observe a torn file.  :meth:`index` validates the index against
    the directory names and rebuilds it from a scan whenever runs
    appeared or vanished behind the registry's back.

    The registry also keeps in memory the index it last read or
    wrote, stamped with that ``index.json``'s ``(st_ino, st_size,
    st_mtime_ns)``, and a map from fingerprint to run ids, oldest
    first.  While ``index.json`` is unchanged, :meth:`latest` costs
    one ``stat`` plus one record read however many runs are archived,
    and :meth:`archive` one ``stat`` plus the index rewrite.  Once the
    file changed (another registry or process wrote it, or it was
    deleted) both fall back to the validated read.
    """

    def __init__(self, root: Union[str, Path] = "results/runs"):
        self.root = Path(root)
        #: (stamp of index.json, its entries, fingerprint ->
        #: [(created, run_id)] oldest first), as last read or written
        self._memo: Optional[tuple] = None

    # -- write ------------------------------------------------------------

    def archive(self, result, name: str = "run",
                backend: str = "", config: Optional[dict] = None,
                run_id: Optional[str] = None,
                extra: Optional[dict] = None) -> Path:
        """Persist one run; returns the record path."""
        record = run_record(result, name=name, backend=backend,
                            config=config, extra=extra)
        if run_id is None:
            run_id = self._new_id(name, record["fingerprint"])
        record["run_id"] = run_id
        path = self.root / run_id / "run.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(record, indent=2, sort_keys=True))
        tmp.replace(path)
        entries = dict(self._current()[0])
        entries[run_id] = self._index_entry(record, path)
        self._write_index(entries)
        return path

    def _new_id(self, name: str, fingerprint: str) -> str:
        seq = 0
        prefix = f"{name}-{fingerprint}"
        while (self.root / f"{prefix}-{seq:04d}").exists():
            seq += 1
        return f"{prefix}-{seq:04d}"

    def remove(self, run_id: str) -> None:
        """Delete one archived run and its index entry."""
        path = self.root / run_id
        if not (path / "run.json").is_file():
            raise ReproError(f"no archived run {run_id!r} under "
                             f"{self.root}")
        shutil.rmtree(path)
        entries = self.index()
        entries.pop(run_id, None)
        self._write_index(entries)

    def gc(self, max_age_s: Optional[float] = None,
           keep: Optional[int] = None,
           max_bytes: Optional[int] = None,
           dry_run: bool = False,
           now: Optional[float] = None) -> List[str]:
        """Cache eviction: prune archived runs, oldest first.

        Three independent policies compose (any may be None):

        * ``max_age_s`` — drop runs older than this many seconds,
        * ``keep`` — keep at most this many runs (newest survive),
        * ``max_bytes`` — drop oldest runs until the total archive
          size fits the budget.

        Returns the pruned run ids (oldest first); ``dry_run`` reports
        without deleting.
        """
        now = time.time() if now is None else now
        entries = self.index()
        survivors = sorted(entries.items(),
                           key=lambda kv: kv[1].get("created", 0.0))
        pruned: List[str] = []

        def prune(run_id: str) -> None:
            pruned.append(run_id)

        if max_age_s is not None:
            fresh = []
            for run_id, entry in survivors:
                if now - entry.get("created", 0.0) > max_age_s:
                    prune(run_id)
                else:
                    fresh.append((run_id, entry))
            survivors = fresh
        if keep is not None and len(survivors) > keep:
            excess = len(survivors) - keep
            for run_id, _ in survivors[:excess]:
                prune(run_id)
            survivors = survivors[excess:]
        if max_bytes is not None:
            total = sum(e.get("bytes", 0) for _, e in survivors)
            while survivors and total > max_bytes:
                run_id, entry = survivors.pop(0)
                total -= entry.get("bytes", 0)
                prune(run_id)
        if not dry_run:
            for run_id in pruned:
                shutil.rmtree(self.root / run_id, ignore_errors=True)
            if pruned:
                for run_id in pruned:
                    entries.pop(run_id, None)
                self._write_index(entries)
        return pruned

    # -- index ------------------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self.root / INDEX_FILE

    @staticmethod
    def _index_entry(record: dict, path: Path) -> dict:
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        return {
            "fingerprint": record.get("fingerprint", ""),
            "name": record.get("name", ""),
            "created": record.get("created", 0.0),
            "rate_hz": record.get("rate_hz", 0.0),
            "target_cycles": record.get("target_cycles", 0),
            "bytes": size,
        }

    def index(self) -> Dict[str, dict]:
        """``run_id -> {fingerprint, created, bytes, ...}`` for every
        archived run; rebuilt by scanning when missing or when the run
        directories no longer match it (cheap name-set check — no
        record is parsed on the happy path)."""
        data, stamp = None, None
        try:
            with self._index_path.open("rb") as f:
                payload = json.loads(f.read())
                stamp = _stamp(os.fstat(f.fileno()))
            if payload.get("format") == INDEX_FORMAT:
                data = payload.get("runs", {})
        except (OSError, ValueError):
            data = None
        dirs = set()
        if self.root.is_dir():
            dirs = {p.name for p in self.root.iterdir()
                    if (p / "run.json").is_file()}
        if data is None or set(data) != dirs:
            return dict(self._rebuild_index())
        self._remember(stamp, data)
        return dict(data)

    def _current(self) -> Tuple[Dict[str, dict], Dict[str, list]]:
        """The index and its fingerprint map: the in-memory copy while
        ``index.json`` is the file this registry last read or wrote
        (one ``stat``), else a validated :meth:`index` read."""
        memo = self._memo
        if memo is not None:
            try:
                if _stamp(os.stat(self._index_path)) == memo[0]:
                    return memo[1], memo[2]
            except OSError:
                pass
        self.index()
        return self._memo[1], self._memo[2]

    def _remember(self, stamp: Optional[tuple],
                  entries: Dict[str, dict]) -> None:
        by_fingerprint: Dict[str, list] = {}
        for run_id, entry in entries.items():
            by_fingerprint.setdefault(entry.get("fingerprint"), []) \
                .append((entry.get("created", 0.0), run_id))
        for runs in by_fingerprint.values():
            runs.sort()
        self._memo = (stamp, entries, by_fingerprint)

    def _scan(self):
        """Every readable ``(path, record)`` under the root."""
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/run.json")):
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if record.get("format") == RUN_FORMAT:
                yield path, record

    def _rebuild_index(self) -> Dict[str, dict]:
        entries = {path.parent.name: self._index_entry(record, path)
                   for path, record in self._scan()}
        if self.root.is_dir():
            self._write_index(entries)
        else:
            self._remember(None, entries)
        return entries

    def _write_index(self, entries: Dict[str, dict]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"format": INDEX_FORMAT,
                   "runs": dict(sorted(entries.items()))}
        # one tmp name per writer: registries in other threads or
        # processes may be writing the index at the same moment
        tmp = self._index_path.with_suffix(
            f".json.{os.getpid()}-{threading.get_ident()}.tmp")
        with tmp.open("w") as f:
            f.write(json.dumps(payload, indent=2, sort_keys=True))
            f.flush()
            stamp = _stamp(os.fstat(f.fileno()))
        tmp.replace(self._index_path)
        self._remember(stamp, entries)

    def total_bytes(self) -> int:
        """Total archived record size, from the index."""
        return sum(e.get("bytes", 0) for e in self.index().values())

    # -- read -------------------------------------------------------------

    def load(self, run_id: str) -> dict:
        """Load one archived run by id (or by a path to its json)."""
        path = Path(run_id)
        if not path.is_file():
            path = self.root / run_id / "run.json"
        return self._read(run_id, path)

    @staticmethod
    def _read(run_id: str, path: Path) -> dict:
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read run {run_id!r}: {exc}")
        if record.get("format") != RUN_FORMAT:
            raise ReproError(f"{path} is not an archived run record")
        return record

    def list_runs(self) -> List[dict]:
        """Every archived record, oldest first."""
        return sorted((record for _, record in self._scan()),
                      key=lambda r: r.get("created", 0.0))

    def latest(self, fingerprint: str) -> Optional[dict]:
        """The newest archived run of one config fingerprint — the
        cache-lookup primitive: while ``index.json`` is unchanged, one
        ``stat`` plus one record read, however many runs are archived.

        A candidate is served only if its record loads and carries
        ``fingerprint``; otherwise the next newest is tried.  An
        in-memory index gone stale (a run deleted or re-archived by
        hand) can so cost a miss, never a wrong or vanished record."""
        _, by_fingerprint = self._current()
        for _, run_id in reversed(by_fingerprint.get(fingerprint, ())):
            try:
                record = self._read(run_id,
                                    self.root / run_id / "run.json")
            except ReproError:
                continue
            if record.get("fingerprint") == fingerprint:
                return record
        return None


# -- comparison ------------------------------------------------------------


@dataclass
class RunComparison:
    """The diff of two archived runs."""

    run_a: str
    run_b: str
    rate_a_hz: float
    rate_b_hz: float
    #: per partition, per FMR component: B minus A (host cycles per
    #: target cycle)
    fmr_delta: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per component: cycle-weighted host-cycle delta across partitions
    attribution: Dict[str, float] = field(default_factory=dict)

    @property
    def rate_delta_pct(self) -> float:
        if self.rate_a_hz == 0:
            return 0.0
        return (self.rate_b_hz / self.rate_a_hz - 1.0) * 100.0

    @property
    def dominant_component(self) -> str:
        """The FMR component absorbing the largest share of the host
        time change (in the direction of the change)."""
        if not self.attribution:
            return "none"
        total = sum(self.attribution.values())
        key = max if total >= 0 else min
        return key(self.attribution, key=self.attribution.get)


def compare_runs(a: dict, b: dict) -> RunComparison:
    """Diff two :func:`run_record` payloads (A = baseline, B = new)."""
    comparison = RunComparison(
        run_a=a.get("run_id", a.get("name", "A")),
        run_b=b.get("run_id", b.get("name", "B")),
        rate_a_hz=a.get("rate_hz", 0.0),
        rate_b_hz=b.get("rate_hz", 0.0))
    break_a = a.get("detail", {}).get("fmr_breakdown", {})
    break_b = b.get("detail", {}).get("fmr_breakdown", {})
    cycles_a = a.get("per_partition_cycles", {})
    cycles_b = b.get("per_partition_cycles", {})
    attribution = {name: 0.0 for name in FMR_COMPONENTS}
    for part in sorted(set(break_a) & set(break_b)):
        deltas = {}
        weight = min(cycles_a.get(part, a.get("target_cycles", 0)),
                     cycles_b.get(part, b.get("target_cycles", 0)))
        for component in FMR_COMPONENTS:
            delta = (break_b[part].get(component, 0.0)
                     - break_a[part].get(component, 0.0))
            deltas[component] = delta
            attribution[component] += delta * weight
        comparison.fmr_delta[part] = deltas
    comparison.attribution = attribution
    return comparison


def format_comparison(comparison: RunComparison) -> str:
    """Render a comparison the way ``repro compare`` prints it."""
    sign = "+" if comparison.rate_delta_pct >= 0 else ""
    lines = [
        f"compare {comparison.run_a} -> {comparison.run_b}",
        f"rate: {comparison.rate_a_hz / 1e3:.2f} kHz -> "
        f"{comparison.rate_b_hz / 1e3:.2f} kHz "
        f"({sign}{comparison.rate_delta_pct:.1f}%)",
    ]
    if comparison.fmr_delta:
        lines.append("")
        lines.append("FMR delta (host cycles per target cycle, B - A):")
        header = f"{'partition':>12}" + "".join(
            f"{name:>14}" for name in FMR_COMPONENTS)
        lines.append(header)
        for part in sorted(comparison.fmr_delta):
            deltas = comparison.fmr_delta[part]
            lines.append(f"{part:>12}" + "".join(
                f"{deltas.get(name, 0.0):>+14.3f}"
                for name in FMR_COMPONENTS))
        total = sum(comparison.attribution.values())
        if total:
            lines.append("")
            lines.append("attribution of the host-time change:")
            for name in FMR_COMPONENTS:
                value = comparison.attribution[name]
                share = value / total * 100.0
                lines.append(f"  {name:>14}: {value:>+12.1f} "
                             f"host cycles ({share:.1f}%)")
            lines.append(f"dominant component: "
                         f"{comparison.dominant_component}")
    return "\n".join(lines)
