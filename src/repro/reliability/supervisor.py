"""Run supervisor: periodic checkpoints, heartbeats, rollback/resume.

The software analogue of FireSim's run-farm liveness layer, scaled to
this repo's in-process co-simulation.  The supervisor owns a *factory*
for the simulation (so it can rebuild one from scratch after a crash —
the same thing a fresh process restoring an on-disk checkpoint does),
runs it in checkpoint-sized segments, and between segments:

* records a per-partition progress heartbeat,
* captures a checkpoint (in memory, and on disk when a directory is
  given),
* checks that every partition advanced since the last heartbeat.

A stall (deadlock, heartbeat failure) or a crash (injected via
``crash_at_cycles``, or any simulation error) rolls the run back to the
last checkpoint on a freshly built simulation and resumes.  Injected
crashes are one-shot, so the replay sails past the crash point; a
deterministic stall (e.g. an unrecovered token drop) recurs on every
replay and the supervisor gives up after ``max_rollbacks``, re-raising
the underlying error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..errors import SimulationError
from ..harness.metrics import SimulationResult
from ..harness.partitioned import PartitionedSimulation
from ..observability.tracer import NULL_TRACER, TraceEvent, Tracer
from .checkpoint import capture_state, restore_state, write_checkpoint


class InjectedCrash(SimulationError):
    """A scripted host crash (testing/experiment construct)."""

    def __init__(self, cycle: int):
        self.cycle = cycle
        super().__init__(f"injected crash at target cycle {cycle}")


@dataclass
class SupervisorEvent:
    """One entry of the supervisor's run journal."""

    kind: str  # checkpoint | crash | stall | rollback | complete
    cycle: int
    note: str = ""


@dataclass
class SupervisorReport:
    """Everything a supervised run produced."""

    result: SimulationResult
    events: List[SupervisorEvent] = field(default_factory=list)
    checkpoints: int = 0
    rollbacks: int = 0
    heartbeats: List[Dict[str, int]] = field(default_factory=list)
    #: final recorded external-output tokens (when the simulation was
    #: built with ``record_outputs``) — lets callers check bit-identity
    #: against an unsupervised or fault-free run
    output_log: Dict[tuple, list] = field(default_factory=dict)

    def event_kinds(self) -> List[str]:
        return [e.kind for e in self.events]


class RunSupervisor:
    """Drives a partitioned run to completion across failures.

    Args:
        build: zero-argument factory producing a fresh, structurally
            identical simulation (e.g. ``lambda:
            design.build_simulation(...)`` plus any link hardening).
        checkpoint_every: target cycles between checkpoints.
        checkpoint_dir: when given, every checkpoint is also written to
            ``<dir>/checkpoint-<cycle>.json`` (latest wins at restore).
        max_rollbacks: rollbacks tolerated before the supervisor
            re-raises the underlying failure.
        crash_at_cycles: target cycles at which to inject a one-shot
            host crash (each fires once, then is consumed).
        tracer: optional
            :class:`~repro.observability.tracer.Tracer` receiving the
            supervisor's heartbeat/checkpoint/rollback events (this is
            separate from any tracer the built simulation carries).
        backend: optional :class:`~repro.parallel.ProcessBackend`; when
            given, every segment runs distributed across per-partition
            worker processes.  A worker that dies or hangs surfaces as
            a :class:`~repro.errors.WorkerError` (a
            ``SimulationError``), so the ordinary rollback/resume path
            applies — the supervisor rebuilds, restores the last
            checkpoint, and retries, up to ``max_rollbacks``.
    """

    def __init__(self, build: Callable[[], PartitionedSimulation],
                 checkpoint_every: int = 100,
                 checkpoint_dir: Optional[Union[str, Path]] = None,
                 max_rollbacks: int = 3,
                 crash_at_cycles: Sequence[int] = (),
                 tracer: Optional[Tracer] = None,
                 backend=None):
        if checkpoint_every <= 0:
            raise SimulationError("checkpoint_every must be positive")
        self.build = build
        self.backend = backend
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = (Path(checkpoint_dir)
                               if checkpoint_dir is not None else None)
        self.max_rollbacks = max_rollbacks
        self._pending_crashes = sorted(crash_at_cycles)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _emit(self, kind: str, sim: PartitionedSimulation,
              **args) -> None:
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                kind,
                ts_ns=max(p.busy_until for p in sim.partitions.values()),
                scope="supervisor",
                args={"cycle": sim.frontier_cycle(), **args}))

    # -- internals ------------------------------------------------------------

    def _heartbeat(self, sim: PartitionedSimulation) -> Dict[str, int]:
        return {name: p.target_cycle
                for name, p in sim.partitions.items()}

    def _take_checkpoint(self, sim: PartitionedSimulation,
                         report: SupervisorReport) -> dict:
        state = capture_state(sim)
        cycle = sim.frontier_cycle()
        if self.checkpoint_dir is not None:
            # the rollback copy and the file are the same snapshot
            write_checkpoint(
                state, self.checkpoint_dir / f"checkpoint-{cycle}.json")
        report.checkpoints += 1
        report.events.append(SupervisorEvent("checkpoint", cycle))
        report.heartbeats.append(self._heartbeat(sim))
        self._emit("checkpoint", sim)
        self._emit("heartbeat", sim, progress=self._heartbeat(sim))
        return state

    @staticmethod
    def _pin_target(sim: PartitionedSimulation,
                    target_cycles: int) -> None:
        """Pin the *overall* run target on a (re)built simulation's
        telemetry so segment-sized ``run`` calls neither finalize the
        live status early nor lower the pinned target."""
        if sim.telemetry.enabled:
            sim.telemetry.target_cycles = max(
                sim.telemetry.target_cycles or 0, target_cycles)

    def _segment_stop(self, crash_cycle: Optional[int]):
        if crash_cycle is None:
            return None

        def stop(sim: PartitionedSimulation) -> bool:
            if sim.frontier_cycle() >= crash_cycle:
                raise InjectedCrash(crash_cycle)
            return False
        return stop

    # -- main entry -----------------------------------------------------------

    def run(self, target_cycles: int) -> SupervisorReport:
        """Simulate ``target_cycles``, surviving crashes and stalls."""
        sim = self.build()
        self._pin_target(sim, target_cycles)
        report = SupervisorReport(result=sim.result())
        last_state = self._take_checkpoint(sim, report)
        rollbacks = 0
        while sim.frontier_cycle() < target_cycles:
            frontier = sim.frontier_cycle()
            seg_end = min(
                (frontier // self.checkpoint_every + 1)
                * self.checkpoint_every,
                target_cycles)
            crash_cycle = None
            if self._pending_crashes \
                    and self._pending_crashes[0] <= seg_end:
                crash_cycle = self._pending_crashes[0]
            try:
                if self.backend is not None:
                    self.backend.run(sim, seg_end,
                                     crash_cycle=crash_cycle)
                else:
                    sim.run(seg_end,
                            stop=self._segment_stop(crash_cycle))
                if sim.frontier_cycle() <= frontier:
                    raise SimulationError(
                        f"no partition advanced past cycle {frontier} "
                        f"in a whole segment")
            except SimulationError as exc:
                kind = ("crash" if isinstance(exc, InjectedCrash)
                        else "stall")
                report.events.append(SupervisorEvent(
                    kind, sim.frontier_cycle(), str(exc)))
                self._emit(kind, sim, error=str(exc))
                if isinstance(exc, InjectedCrash):
                    # the crash happened; don't re-fire it on replay
                    self._pending_crashes.pop(0)
                rollbacks += 1
                report.rollbacks += 1
                if rollbacks > self.max_rollbacks:
                    raise
                sim = self.build()
                self._pin_target(sim, target_cycles)
                restore_state(sim, last_state)
                report.events.append(SupervisorEvent(
                    "rollback", sim.frontier_cycle(),
                    f"restored checkpoint after {kind}"))
                self._emit("rollback", sim, after=kind)
                continue
            last_state = self._take_checkpoint(sim, report)
            rollbacks = 0  # only *consecutive* failures count as fatal
        report.result = sim.result()
        report.output_log = sim.output_log
        report.events.append(SupervisorEvent(
            "complete", sim.frontier_cycle()))
        return report
