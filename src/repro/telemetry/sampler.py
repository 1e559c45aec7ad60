"""Cycle-keyed time-series sampling over a metrics registry.

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
source-side link counters, arrival-queue depths).  Under the process
backend the wavefront schedule makes a partition's local state at that
slot bit-identical to the serial round-robin's, so the per-worker
series the coordinator merges are bit-identical to an in-process run's
— the property suite asserts exactly this.

A :class:`Telemetry` object bundles one run's registry + sampler and is
what :class:`~repro.harness.partitioned.PartitionedSimulation` accepts
as its ``telemetry`` argument.  The default is :data:`NULL_TELEMETRY`
(disabled, free).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import SimulationError
from .metrics import MetricsRegistry, NULL_METRICS

#: one series entry: (target cycle, {metric name: value})
SeriesPoint = Tuple[int, Dict[str, float]]

#: metric names every sample carries, in emission order
SAMPLE_FIELDS: Tuple[str, ...] = (
    "busy_ns", "ns_per_kcycle", "fmr",
    "compute_ns", "serdes_ns", "link_wait_ns", "credit_stall_ns",
    "sync_ns",
    "tokens_tx", "tokens_rx", "credit_stalls", "queue_depth",
    "link_tokens",
)


class Sampler:
    """Emits one :data:`SeriesPoint` per partition per ``interval``
    target cycles."""

    def __init__(self, registry: MetricsRegistry, interval: int = 50):
        if interval < 1:
            raise SimulationError(
                f"sample interval must be >= 1 (got {interval})")
        self.registry = registry
        self.interval = interval
        #: partition -> ordered sample series
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
        reg = self.registry
        name = part.name
        busy = part.busy_until
        host_cycles = (busy / part.host_cycle_ns
                       if part.host_cycle_ns else 0.0)
        queue_depth = sum(
            len(q) for key, q in sim._arrivals.items()
            if key[0] == name)
        link_tokens = sum(link.tokens for link in sim.links
                          if link.src[0] == name)
        values = {
            "busy_ns": busy,
            "ns_per_kcycle": busy / cycle * 1e3 if cycle else 0.0,
            "fmr": host_cycles / cycle if cycle else 0.0,
            "compute_ns": spans.compute_ns,
            "serdes_ns": spans.serdes_ns,
            "link_wait_ns": spans.link_wait_ns,
            "credit_stall_ns": spans.credit_stall_ns,
            "sync_ns": spans.sync_ns,
            "tokens_tx": reg.value("counter", "tokens_tx", name),
            "tokens_rx": reg.value("counter", "tokens_rx", name),
            "credit_stalls": reg.value("counter", "credit_stalls",
                                       name),
            "queue_depth": float(queue_depth),
            "link_tokens": float(link_tokens),
        }
        point: SeriesPoint = (cycle, values)
        self.series.setdefault(name, []).append(point)
        return point

    # -- persistence ------------------------------------------------------

    def state_dict(self, part: Optional[str] = None) -> dict:
        """Cursors and series of every partition, or of ``part``."""
        return {
            "interval": self.interval,
            "next": {name: cycle
                     for name, cycle in sorted(self.next_at.items())
                     if part in (None, name)},
            "series": {
                name: [[cycle, dict(sorted(values.items()))]
                       for cycle, values in points]
                for name, points in sorted(self.series.items())
                if part in (None, name)
            },
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
                self.series[name] = [(int(cycle), dict(values))
                                     for cycle, values in points]


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
    """One run's metrics registry + sampler (+ optional live status).

    Args:
        sample_every: target cycles between samples.
        registry: the instrument registry (a fresh
            :class:`~repro.telemetry.metrics.MetricsRegistry` by
            default).
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
                 registry: Optional[MetricsRegistry] = None,
                 live_path: Optional[Union[str, Path]] = None,
                 annotations: Optional[dict] = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.sampler = Sampler(self.registry, sample_every)
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

    def detail(self) -> dict:
        """The ``SimulationResult.detail['telemetry']`` payload —
        deterministic, JSON-able, bit-identical across backends."""
        return {
            "sample_every": self.sampler.interval,
            "series": self.sampler.state_dict()["series"],
            "metrics": self.registry.snapshot(),
        }

    def state_dict(self, part: Optional[str] = None) -> dict:
        """The whole session, or — with ``part`` — the slice one
        partition owns (what :meth:`merge_worker` loads)."""
        return {
            "sampler": self.sampler.state_dict(part),
            "metrics": self.registry.snapshot(part),
        }

    def load_state_dict(self, state: dict) -> None:
        self.sampler.load_state_dict(state.get("sampler", {}))
        self.registry = MetricsRegistry()
        self.registry.load_snapshot(state.get("metrics", {}))
        self.sampler.registry = self.registry

    def merge_worker(self, part: str, state: dict) -> None:
        """Overlay one worker's telemetry onto this (parent) session:
        only the series, cursor and instruments of the partition the
        worker owns are taken, mirroring the state-fragment ownership
        rule."""
        self.sampler.load_state_dict(state.get("sampler", {}), part)
        self.registry.load_snapshot(state.get("metrics", {}),
                                    part=part)


class NullTelemetry(Telemetry):
    """The default disabled session: no registry, no samples, no cost."""

    enabled = False

    def __init__(self):
        super().__init__(registry=NULL_METRICS)

    def on_pass(self, sim, part) -> None:  # pragma: no cover
        pass

    def finish(self, sim) -> None:  # pragma: no cover
        pass


#: shared default session — attach sites use this instead of None checks
NULL_TELEMETRY = NullTelemetry()

