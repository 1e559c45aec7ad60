"""Farm manager: place, deploy, supervise, collect.

:class:`FarmBackend` is the run-farm execution engine — a
:class:`~repro.parallel.ProcessBackend` whose endpoints are *host
agents* (:mod:`repro.farm.deploy`), each fronting the partition
workers placed on it.  The supervision loop, the spawner, the data
plane (stream-socket pairs the manager makes before forking), the
merge and the cleanup are the process backend's, unchanged, so
results stay bit-identical to every other backend.  The farm adds:

* **placement / re-placement bookkeeping** — every run re-places the
  design onto the farm's live hosts (:mod:`repro.farm.placement`) and
  forks one agent per placed host;
* **host-death classification** — an agent that dies with work
  outstanding, or goes silent, is a
  :class:`~repro.errors.HostDeadError` (a ``WorkerError``), raised
  after the host is marked dead in the :class:`~repro.farm.hosts.
  FarmSpec`.  That lands a whole-host loss on the
  :class:`~repro.reliability.supervisor.RunSupervisor`'s ordinary
  rollback path: restore the last checkpoint, and the next ``run``
  re-places onto the survivors;
* **the ping/pong agent probe** that makes agent silence observable
  while its workers are quiet;
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
from ..parallel.coordinator import (Endpoint, ProcessBackend,
                                    broadcast, emit_event,
                                    fork_endpoints)
from ..reliability.supervisor import RunSupervisor, SupervisorReport
from .deploy import host_agent_main
from .hosts import FarmSpec
from .placement import Placement, place_sim


class FarmBackend(ProcessBackend):
    """Distributed execution across simulated hosts: the process
    backend's supervision loop over host-agent endpoints (what the
    farm adds to it is listed in the module docstring).

    Args:
        spec: the farm manifest; placement uses its live hosts and
            prices cross-host links with its link classes.
        colocate: partition groups that must share a host (e.g.
            FAME-5 instance-multithreading candidates).
        host_faults: test hook — ``{host: pass_no}``; the host's agent
            SIGKILLs itself (a whole-host loss) when any of its
            workers reports reaching that wavefront pass.
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
        self._last_ping = 0.0
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
               max_passes: int) -> List[Endpoint]:
        """(Re-)place the design on the live hosts and fork one agent
        endpoint per placed host, fronting that host's partitions."""
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
        options = self._worker_options(sim)
        # agents fork the partition workers, so they cannot be
        # daemonic; they exit when reaped (SIGTERM) or on manager EOF
        return fork_endpoints(sim, "agent", "host_deploy", [
            (host, parts, host_agent_main,
             (host, target_cycles, max_passes,
              {part: options[part] for part in parts},
              self.host_faults.get(host)),
             {"host": host, "parts": ",".join(parts)},
             [end for part in parts
              for end in options[part]["ends"].values()])
            for host, parts in sorted(placement.by_host().items())],
            daemon=False)

    def _find_failure(self, sim, endpoints, states, now,
                      quiescing: bool):
        """Host-level verdicts around the worker-level ones: an agent
        that died with work outstanding is a lost host (its workers
        died *because* it did, so it is checked first); an agent that
        stops answering the ping/pong probe is a lost host too."""
        outstanding = [ep for ep in endpoints
                       if any(states[p].fragment is None
                              for p in ep.parts)]
        if not quiescing:
            for ep in outstanding:
                if ep.dead:
                    return self._host_dead(
                        sim, ep.name, "died",
                        f"host agent exited with code "
                        f"{ep.proc.exitcode}, taking partition(s) "
                        f"{', '.join(ep.parts)} down")
        failure = super()._find_failure(sim, endpoints, states, now,
                                        quiescing)
        if failure is not None:
            return failure
        # workers are checked individually above (their heartbeats
        # relay through the agent), agents through the probe — sent
        # often enough that a live agent never looks silent
        if now - self._last_ping >= self.heartbeat_timeout / 4:
            self._last_ping = now
            broadcast(endpoints, ("ping",))
        for ep in outstanding:
            if not ep.dead \
                    and now - ep.last_seen > self.heartbeat_timeout:
                return self._host_dead(
                    sim, ep.name, "heartbeat-timeout",
                    f"no message from the host agent for more than "
                    f"{self.heartbeat_timeout}s")
        return None

    def _host_dead(self, sim, host: str, reason: str,
                   message: str) -> HostDeadError:
        self.spec.mark_dead(host)
        emit_event(sim, "host_death", host=host, reason=reason)
        return HostDeadError(host, reason, message)

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
