"""Cycle-keyed time-series sampling, and a run's metrics, read off
the modelled state.

The paper's sweeps (Figs. 7-14) are all rate-vs-configuration curves,
but a *single* partitioned run also has structure over time: link-wait
grows when an upstream partition slows, credit stalls appear when a
receiver falls behind, FAME-5 contention shows up as serdes time.  The
:class:`Sampler` captures that by snapshotting each partition's timing
overlay every ``interval`` *target cycles*.

Determinism is the design center.  A sample for partition ``p`` is
taken at the first scheduling slot at which ``p``'s target cycle
reaches the next multiple of the interval, and every sampled value is
derived from ``p``-local modelled state (``busy_until``, FMR spans,
the link counters of the links it sources or terminates, arrival-queue
depths).  Under the process backend the wavefront schedule makes a
partition's local state at that slot bit-identical to the serial
round-robin's, so the per-worker series the coordinator merges are
bit-identical to an in-process run's — the property suite asserts
exactly this.

Nothing here is bumped per token.  The counts a run's metrics report
are the ones the harness keeps anyway — ``Link.tokens``,
``Link.stalls``, ``Link.depth_hist``, each unit's cycle and fire flags
— and :func:`metrics_snapshot` reads them when the result is built, so
the metrics are a function of the simulation's state: a checkpoint
restores them with the links, and a worker ships only its series.

A :class:`Telemetry` object bundles one run's sampler (+ live status)
and is what :class:`~repro.harness.partitioned.PartitionedSimulation`
accepts as its ``telemetry`` argument.  The default is
:data:`NULL_TELEMETRY` (disabled, free).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import SimulationError
from .metrics import Histogram

#: one series entry, in its JSON form: [target cycle, {metric name:
#: value}], the names in sorted order
SeriesPoint = List

#: metric names every sample carries, in sorted (emission) order
SAMPLE_FIELDS: Tuple[str, ...] = (
    "busy_ns", "compute_ns", "credit_stall_ns", "credit_stalls", "fmr",
    "link_tokens", "link_wait_ns", "ns_per_kcycle", "queue_depth",
    "serdes_ns", "sync_ns", "tokens_rx", "tokens_tx",
)


class Sampler:
    """Emits one :data:`SeriesPoint` per partition per ``interval``
    target cycles."""

    def __init__(self, interval: int = 50):
        if interval < 1:
            raise SimulationError(
                f"sample interval must be >= 1 (got {interval})")
        self.interval = interval
        #: partition -> ordered sample series; a point is never
        #: changed once taken, so a state dict shares it
        self.series: Dict[str, List[SeriesPoint]] = {}
        #: partition -> next target cycle at which to sample (absent:
        #: ``interval``); the harness compares against it before it
        #: calls in, so a pass that crosses no threshold costs one
        #: lookup
        self.next_at: Dict[str, int] = {}

    def on_pass(self, sim, part) -> None:
        """Called by the harness right after ``part``'s slot in a pass;
        takes a sample when the partition crossed its next threshold."""
        cycle = part.target_cycle
        if cycle < self.next_at.get(part.name, self.interval):
            return
        self.take(sim, part)
        self.next_at[part.name] = \
            (cycle // self.interval + 1) * self.interval

    def take(self, sim, part) -> SeriesPoint:
        """Sample ``part`` now, regardless of thresholds."""
        cycle = part.target_cycle
        spans = part.hooks.spans
        name = part.name
        busy = part.busy_until
        host_cycles = (busy / part.host_cycle_ns
                       if part.host_cycle_ns else 0.0)
        queue_depth = sum(
            len(q) for key, q in sim._arrivals.items()
            if key[0] == name)
        link_tokens = stalls = received = 0
        for link in sim.links:
            if link.src[0] == name:
                link_tokens += link.tokens
                stalls += link.stalls
            if link.dst[0] == name:
                received += sum(link.depth_hist.values())
        values = {  # sorted by name: the JSON form, made once
            "busy_ns": busy,
            "compute_ns": spans.compute_ns,
            "credit_stall_ns": spans.credit_stall_ns,
            "credit_stalls": float(stalls),
            "fmr": host_cycles / cycle if cycle else 0.0,
            "link_tokens": float(link_tokens),
            "link_wait_ns": spans.link_wait_ns,
            "ns_per_kcycle": busy / cycle * 1e3 if cycle else 0.0,
            "queue_depth": float(queue_depth),
            "serdes_ns": spans.serdes_ns,
            "sync_ns": spans.sync_ns,
            "tokens_rx": float(received),
            "tokens_tx": float(link_tokens),
        }
        point: SeriesPoint = [cycle, values]
        self.series.setdefault(name, []).append(point)
        return point

    # -- persistence ------------------------------------------------------

    def state_dict(self, part: Optional[str] = None) -> dict:
        """Cursors and series of every partition, or of ``part``: each
        series is a fresh list of the points :meth:`take` made, already
        in their JSON form, so the cost is a pointer per point."""
        return {
            "interval": self.interval,
            "next": {name: cycle
                     for name, cycle in sorted(self.next_at.items())
                     if part in (None, name)},
            "series": {name: list(points)
                       for name, points in sorted(self.series.items())
                       if part in (None, name)},
        }

    def load_state_dict(self, state: dict,
                        part: Optional[str] = None) -> None:
        """Restore :meth:`state_dict` output; with ``part``, overlay
        only that partition's cursor and series."""
        if part is None:
            self.interval = state.get("interval", self.interval)
            self.next_at, self.series = {}, {}
        for name, cycle in state.get("next", {}).items():
            if part in (None, name):
                self.next_at[name] = int(cycle)
        for name, points in state.get("series", {}).items():
            if part in (None, name):
                self.series[name] = [[int(cycle), dict(sorted(
                    values.items()))] for cycle, values in points]


def metrics_snapshot(sim) -> dict:
    """``sim``'s metrics, read off its modelled state, per partition
    ``p``: ``tokens_tx`` and ``credit_stalls`` (the ``tokens`` and
    ``stalls`` of the links out of ``p``), ``tokens_rx`` and the
    ``rx_depth`` histogram (the ``depth_hist`` of the links into
    ``p``), and ``bridge_outputs`` (per unlinked output, the unit's
    cycle plus its fired flag).  Keyed ``name|part`` in sorted order;
    an instrument is present iff it is non-zero."""
    counters: Dict[Tuple[str, str], float] = {}
    depths: Dict[str, Histogram] = {}

    def add(name: str, part: str, amount: int) -> None:
        if amount:
            key = (name, part)
            counters[key] = counters.get(key, 0.0) + amount

    for link in sim.links:
        src, dst = link.src[0], link.dst[0]
        add("tokens_tx", src, link.tokens)
        add("credit_stalls", src, link.stalls)
        for depth, count in link.depth_hist.items():
            add("tokens_rx", dst, count)
            hist = depths.get(dst)
            if hist is None:
                hist = depths[dst] = Histogram("rx_depth", dst)
            hist.observe(depth, count)
    for part in sim.partitions.values():
        for prefix, unit in part.units:
            for base, fired in unit._fired.items():
                if (part.name, prefix + base) not in sim._link_by_src:
                    add("bridge_outputs", part.name,
                        unit.target_cycle + fired)
    return {
        "counters": {f"{name}|{part}": value for (name, part), value
                     in sorted(counters.items())},
        "gauges": {},
        "histograms": {f"rx_depth|{part}": depths[part].as_dict()
                       for part in sorted(depths)},
    }


class LiveStatus:
    """Wall-clock-throttled writer of an in-flight run's status file.

    ``repro watch`` polls the JSON this writes.  Wall time is used only
    to pace the writes and stamp ``updated`` — nothing here feeds back
    into simulation state, so live status never perturbs determinism.
    """

    def __init__(self, path: Union[str, Path],
                 min_interval_s: float = 0.2):
        self.path = Path(path)
        self.min_interval_s = min_interval_s
        # None until the first write: monotonic() counts from an
        # arbitrary epoch (often boot), so seeding with 0.0 would
        # throttle the very first update on a freshly booted machine
        self._last_write: Optional[float] = None

    def update(self, payload: dict, force: bool = False) -> None:
        now = time.monotonic()
        if not force and self._last_write is not None \
                and now - self._last_write < self.min_interval_s:
            return
        self._last_write = now
        payload = dict(payload)
        payload["updated"] = time.time()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(self.path)  # atomic: watchers never read a torn file

    @staticmethod
    def read(path: Union[str, Path]) -> Optional[dict]:
        try:
            return json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError):
            return None


class Telemetry:
    """One run's sampler (+ optional live status).

    Args:
        sample_every: target cycles between samples.
        live_path: when given, a :class:`LiveStatus` file is kept up to
            date while the run progresses (``repro watch`` reads it).
        annotations: extra identity keys merged into every live-status
            payload (the simulation service stamps ``job``, ``tenant``
            and ``fingerprint`` here so ``repro watch --job`` can name
            what it is following).  Annotations never override the
            harness-owned payload fields.
    """

    enabled: bool = True

    def __init__(self, sample_every: int = 50,
                 live_path: Optional[Union[str, Path]] = None,
                 annotations: Optional[dict] = None):
        self.sampler = Sampler(sample_every)
        self.live: Optional[LiveStatus] = (
            LiveStatus(live_path) if live_path is not None else None)
        self.annotations = dict(annotations or {})
        #: run target, set by the harness so live status can show
        #: progress toward it
        self.target_cycles: Optional[int] = None

    @property
    def sample_every(self) -> int:
        return self.sampler.interval

    def on_pass(self, sim, part) -> None:
        self.sampler.on_pass(sim, part)
        if self.live is not None:
            self.live.update(self.live_payload(sim))

    def live_payload(self, sim, status: str = "running",
                     partitions: Optional[Dict[str, int]] = None,
                     wall_ns: float = 0.0) -> dict:
        """The live-status record of ``sim``: its per-partition cycles
        and modelled wall time, or the ``partitions`` / ``wall_ns`` a
        coordinator passes for partitions that run in worker processes
        — then annotated."""
        if partitions is None:
            partitions = {name: p.target_cycle
                          for name, p in sim.partitions.items()}
            wall_ns = max((p.busy_until
                           for p in sim.partitions.values()), default=0.0)
        frontier = min(partitions.values())
        rate_hz = frontier / wall_ns * 1e9 if wall_ns > 0 else 0.0
        payload = {
            "status": status,
            "backend": sim.last_run_backend or "inproc",
            "frontier_cycle": frontier,
            "target_cycles": self.target_cycles,
            "wall_ns": wall_ns,
            "rate_hz": rate_hz,
            "partitions": partitions,
        }
        for key, value in self.annotations.items():
            payload.setdefault(key, value)
        return payload

    def finish(self, sim) -> None:
        """Write the terminal live-status record (forced)."""
        if self.live is not None:
            self.live.update(self.live_payload(sim, status="done"),
                             force=True)

    # -- result / persistence --------------------------------------------

    def detail(self, sim) -> dict:
        """The ``SimulationResult.detail['telemetry']`` payload of
        ``sim`` — deterministic, JSON-able, bit-identical across
        backends."""
        return {
            "sample_every": self.sampler.interval,
            "series": self.sampler.state_dict()["series"],
            "metrics": metrics_snapshot(sim),
        }

    def state_dict(self, part: Optional[str] = None) -> dict:
        """The whole session, or — with ``part`` — the slice one
        partition owns (what :meth:`merge_worker` loads)."""
        return {"sampler": self.sampler.state_dict(part)}

    def load_state_dict(self, state: dict) -> None:
        self.sampler.load_state_dict(state.get("sampler", {}))

    def merge_worker(self, part: str, state: dict) -> None:
        """Overlay one worker's telemetry onto this (parent) session:
        only the series and cursor of the partition the worker owns
        are taken, mirroring the state-fragment ownership rule."""
        self.sampler.load_state_dict(state.get("sampler", {}), part)


class NullTelemetry(Telemetry):
    """The default disabled session: no samples, no cost."""

    enabled = False

    def on_pass(self, sim, part) -> None:  # pragma: no cover
        pass

    def finish(self, sim) -> None:  # pragma: no cover
        pass


#: shared default session — attach sites use this instead of None checks
NULL_TELEMETRY = NullTelemetry()

