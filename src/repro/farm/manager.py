"""Farm manager: place, deploy, supervise, collect.

:class:`FarmBackend` is the run-farm execution engine: a
:class:`~repro.parallel.ProcessBackend` whose partition workers carry
a virtual-host label.  Spawner, supervision loop, data plane, merge
and cleanup are the process backend's, unchanged, so results stay
bit-identical to every other backend.  The farm adds:

* **placement / re-placement bookkeeping** — every run re-places the
  design onto the farm's live hosts (:mod:`repro.farm.placement`);
* **host loss** — pulling a host SIGKILLs every worker placed on it,
  and a lost worker on a pulled host is a
  :class:`~repro.errors.HostDeadError` (a ``WorkerError``), which the
  :class:`~repro.reliability.supervisor.RunSupervisor` rolls back like
  any other: restore the last checkpoint, re-place onto the survivors;
* **per-host FMR** — the partition breakdown summed by hosting host.

:class:`FarmManager` is the porcelain the ``repro farm`` CLI drives:
``plan`` prints a placement, ``launch`` wraps a supervised run and
archives the result (placement, per-host FMR, surviving hosts) into
the run registry under the fingerprint of the job config it was given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..errors import HostDeadError
from ..parallel.coordinator import (ProcessBackend, Worker, emit_event,
                                    fork_workers)
from ..parallel.pool import exit_reason
from ..reliability.supervisor import RunSupervisor, SupervisorReport
from .hosts import FarmSpec
from .placement import Placement, place_sim


class FarmBackend(ProcessBackend):
    """Distributed execution across simulated hosts: the process
    backend's supervision loop over workers placed on hosts (what the
    farm adds to it is listed in the module docstring).

    Args:
        spec: the farm manifest; placement uses its live hosts and
            prices cross-host links with its link classes.
        colocate: partition groups that must share a host (e.g.
            FAME-5 instance-multithreading candidates).
        host_faults: test hook — ``{host: pass_no}``; the manager pulls
            the host (SIGKILLs every worker placed on it, a whole-host
            loss) when any of those workers reports reaching that
            wavefront pass.
        Remaining arguments as for
            :class:`~repro.parallel.ProcessBackend`.
    """

    def __init__(self, spec: FarmSpec,
                 colocate: Iterable[Iterable[str]] = (),
                 heartbeat_timeout: float = 30.0,
                 worker_faults: Optional[Dict[str, tuple]] = None,
                 host_faults: Optional[Dict[str, int]] = None):
        super().__init__(heartbeat_timeout=heartbeat_timeout,
                         worker_faults=worker_faults)
        self.spec = spec
        self.colocate = [list(g) for g in colocate]
        self.host_faults = dict(host_faults or {})
        self._backend_label = "farm"
        #: placement of the last (attempted) run
        self.last_placement: Optional[Placement] = None
        #: every placement this backend computed, in order (a re-run
        #: after a host death appends the survivors-only placement)
        self.placements: List[Placement] = []
        #: {host: {fmr component: summed value}} of the last
        #: *completed* run
        self.last_host_fmr: Dict[str, Dict[str, float]] = {}

    # -- what the farm adds to the supervision loop --------------------------

    def run(self, sim, target_cycles: int,
            max_passes: int = 50_000_000,
            crash_cycle: Optional[int] = None):
        result = super().run(sim, target_cycles, max_passes=max_passes,
                             crash_cycle=crash_cycle)
        if self.last_placement is not None:
            self.last_host_fmr = self._host_fmr(
                result, self.last_placement.assignment)
        return result

    def _spawn(self, sim, target_cycles: int,
               max_passes: int) -> Dict[str, Worker]:
        """(Re-)place the design on the live hosts, log one deploy per
        placed host and fork every worker, tagged with its host."""
        placement = place_sim(sim, self.spec, self.colocate)
        # the supervisor runs once per checkpoint segment; only record
        # the placement when it actually changed (it does after a host
        # death shrinks the farm)
        if self.last_placement is None \
                or placement.assignment != self.last_placement.assignment:
            self.placements.append(placement)
            if len(self.placements) > 1:
                emit_event(sim, "host_replace",
                           hosts=",".join(sorted(placement.by_host())),
                           assignment=dict(placement.assignment))
        self.last_placement = placement
        for host, parts in sorted(placement.by_host().items()):
            emit_event(sim, "host_deploy", host=host,
                       parts=",".join(parts))
        return fork_workers(
            sim, self._worker_options(sim), target_cycles, max_passes,
            {part: {"host": host, "backend": self._backend_label}
             for part, host in placement.assignment.items()})

    def _find_failure(self, sim, states, now, quiescing: bool):
        """Host-level verdicts before the worker-level ones.  A host
        whose fault trigger one of its workers' reports reached is
        pulled: marked dead, and every worker placed on it SIGKILLed.
        A lost worker on a pulled host is then a lost host — checked
        first, since its peers elsewhere fail *because* it died."""
        host_of = self.last_placement.assignment
        for worker in states.values():
            host = host_of[worker.name]
            trigger = self.host_faults.get(host)
            if trigger is not None and self.spec.hosts[host].alive \
                    and worker.max_reported >= trigger:
                self.spec.mark_dead(host)
                for other in states.values():
                    if host_of[other.name] == host:
                        other.proc.kill()
        for worker in states.values():
            host = host_of[worker.name]
            if worker.dead and worker.fragment is None \
                    and not self.spec.hosts[host].alive:
                emit_event(sim, "host_death", host=host, reason="died")
                return HostDeadError(
                    host, "died", f"the manager pulled the host; its "
                    f"worker {worker.name!r} "
                    f"{exit_reason(worker.proc.exitcode)}")
        return super()._find_failure(sim, states, now, quiescing)

    @staticmethod
    def _host_fmr(result, part_host) -> Dict[str, Dict[str, float]]:
        """Sum the per-partition FMR breakdown by hosting host."""
        host_fmr: Dict[str, Dict[str, float]] = {}
        breakdown = result.detail.get("fmr_breakdown", {})
        for part, components in breakdown.items():
            host = part_host.get(part)
            if host is None:
                continue
            agg = host_fmr.setdefault(host, {})
            for component, value in components.items():
                agg[component] = agg.get(component, 0.0) + value
        return host_fmr


@dataclass
class FarmReport:
    """Everything one ``FarmManager.launch`` produced."""

    supervisor: SupervisorReport
    #: every distinct placement used, in order (>1 after host deaths)
    placements: List[Placement] = field(default_factory=list)
    host_fmr: Dict[str, Dict[str, float]] = field(default_factory=dict)
    live_hosts: List[str] = field(default_factory=list)
    dead_hosts: List[str] = field(default_factory=list)
    archive_path: Optional[object] = None

    @property
    def result(self):
        return self.supervisor.result

    @property
    def placement(self) -> Optional[Placement]:
        return self.placements[-1] if self.placements else None

    def to_extra(self) -> dict:
        """The ``extra={"farm": ...}`` payload for the run registry."""
        return {
            "placements": [p.to_dict() for p in self.placements],
            "host_fmr": self.host_fmr,
            "live_hosts": list(self.live_hosts),
            "dead_hosts": list(self.dead_hosts),
            "rollbacks": self.supervisor.rollbacks,
        }


class FarmManager:
    """Porcelain for the ``repro farm`` CLI, the service's farm kind
    and programmatic callers.

    Args:
        build: zero-argument simulation factory (the supervisor
            rebuilds through it after a rollback).
        config: the normalized farm job
            (:func:`~repro.service.executor.normalize_config`) — the
            job's only home: the manifest, the co-location groups, the
            checkpoint interval, the injected host kill and the cycle
            count are all read from it, and ``launch`` archives under
            its fingerprint, so the record describes what ran.
        max_rollbacks: supervisor knob.
        host_faults / worker_faults: fault-injection hooks for what a
            job config cannot say (a second host kill, a worker fault).
    """

    def __init__(self, build, config: dict,
                 max_rollbacks: int = 3,
                 heartbeat_timeout: float = 30.0,
                 host_faults: Optional[Dict[str, int]] = None,
                 worker_faults: Optional[Dict[str, tuple]] = None):
        self.build = build
        self.config = config
        self.spec = FarmSpec.from_dict(config["hosts"])
        self.max_rollbacks = max_rollbacks
        host_faults = dict(host_faults or {})
        if config["kill_host"]:
            host_faults[config["kill_host"]] = config["kill_at_pass"]
        self.backend = FarmBackend(
            self.spec, colocate=config["colocate"],
            heartbeat_timeout=heartbeat_timeout,
            host_faults=host_faults,
            worker_faults=worker_faults)

    def plan(self, sim=None) -> Placement:
        """Place (a fresh build of) the design without running it."""
        if sim is None:
            sim = self.build()
        return place_sim(sim, self.spec, self.config["colocate"])

    def launch(self, registry=None, run_name: str = "farm") -> FarmReport:
        """Run the job to its ``cycles`` under supervision; survives
        host deaths by rollback + re-placement onto the survivors.
        The archive fingerprints the job config itself, so a farm run
        shares its key with the same job submitted to the service and
        never with another design."""
        supervisor = RunSupervisor(
            self.build,
            checkpoint_every=self.config["checkpoint_every"],
            max_rollbacks=self.max_rollbacks,
            backend=self.backend)
        sup_report = supervisor.run(self.config["cycles"])
        report = FarmReport(
            supervisor=sup_report,
            placements=list(self.backend.placements),
            host_fmr=dict(self.backend.last_host_fmr),
            live_hosts=[h.name for h in self.spec.live_hosts()],
            dead_hosts=sorted(n for n, h in self.spec.hosts.items()
                              if not h.alive))
        if registry is not None:
            report.archive_path = registry.archive(
                sup_report.result, name=run_name, backend="farm",
                config=self.config, extra={"farm": report.to_extra()})
        return report
