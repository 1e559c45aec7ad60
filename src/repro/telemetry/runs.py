"""Persistent run registry: archive, look up, and diff runs.

Every archived run lands under ``results/runs/<run_id>/run.json`` with
its config fingerprint, backend, headline numbers, per-partition FMR
breakdown and (when telemetry was on) the sampled metric series.  The
registry is the memory the regression detector checks new runs against,
and what ``repro compare A B`` diffs:

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
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

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


class RunRegistry:
    """Archive of runs under one directory (``results/runs`` by
    default).

    As a cache substrate the registry keeps an ``index.json`` beside
    the run directories mapping ``run_id`` to its fingerprint,
    creation time and on-disk size, so fingerprint lookups
    (:meth:`latest`, :meth:`trajectory`) read one small file plus the
    matching record instead of parsing every ``run.json``.  Both the
    records and the index are written via atomic tmp+rename, so
    concurrent readers never observe a torn file; the index is
    validated against the directory names and rebuilt from a scan
    whenever runs appeared or vanished behind the registry's back.
    """

    def __init__(self, root: Union[str, Path] = "results/runs"):
        self.root = Path(root)

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
        entries = self.index()
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
        data = None
        try:
            payload = json.loads(self._index_path.read_text())
            if payload.get("format") == INDEX_FORMAT:
                data = payload.get("runs", {})
        except (OSError, json.JSONDecodeError):
            data = None
        dirs = set()
        if self.root.is_dir():
            dirs = {p.name for p in self.root.iterdir()
                    if (p / "run.json").is_file()}
        if data is None or set(data) != dirs:
            data = self._rebuild_index()
        return data

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
        return entries

    def _write_index(self, entries: Dict[str, dict]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"format": INDEX_FORMAT,
                   "runs": dict(sorted(entries.items()))}
        tmp = self._index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(self._index_path)

    def total_bytes(self) -> int:
        """Total archived record size, from the index."""
        return sum(e.get("bytes", 0) for e in self.index().values())

    # -- read -------------------------------------------------------------

    def load(self, run_id: str) -> dict:
        """Load one archived run by id (or by a path to its json)."""
        path = Path(run_id)
        if not path.is_file():
            path = self.root / run_id / "run.json"
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

    def _matching_ids(self, fingerprint: str) -> List[str]:
        """Run ids sharing ``fingerprint``, oldest first, via the
        index — no record is parsed."""
        matches = [(entry.get("created", 0.0), run_id)
                   for run_id, entry in self.index().items()
                   if entry.get("fingerprint") == fingerprint]
        return [run_id for _, run_id in sorted(matches)]

    def trajectory(self, fingerprint: str) -> List[dict]:
        """Archived runs sharing one config fingerprint, oldest
        first — the history a new run of that config is judged
        against."""
        records = []
        for run_id in self._matching_ids(fingerprint):
            try:
                records.append(self.load(run_id))
            except ReproError:
                continue
        return records

    def latest(self, fingerprint: str) -> Optional[dict]:
        """The newest archived run of one config fingerprint — the
        cache-lookup primitive: one index read plus one record read,
        however many runs are archived."""
        for run_id in reversed(self._matching_ids(fingerprint)):
            try:
                return self.load(run_id)
            except ReproError:
                continue
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
