"""Farm manager: place, deploy, supervise, collect.

:class:`FarmBackend` is the run-farm execution engine — a
:class:`~repro.parallel.ProcessBackend` whose children are *host
agents* (:mod:`repro.farm.deploy`) instead of bare partition workers.
Each run re-places the design onto the farm's live hosts
(:mod:`repro.farm.placement`), forks one agent per placed host, and
supervises through the agents: worker control traffic relays up tagged
with its partition, host liveness is probed with ping/pong, and a dead
or silent agent becomes a :class:`~repro.errors.HostDeadError` — a
``WorkerError`` — after the survivors are aborted and reaped.  That
makes a whole-host loss land on the
:class:`~repro.reliability.supervisor.RunSupervisor`'s ordinary
rollback path: the host is marked dead in the
:class:`~repro.farm.hosts.FarmSpec`, the supervisor restores the last
checkpoint, and the next ``run`` call re-places onto the survivors.

Data plane: the process backend's — every linked pair, same host or
not, exchanges packed records over a stream socket whose rendezvous
listener the manager binds pre-fork
(:meth:`~repro.parallel.ProcessBackend._worker_options`).  The merge
path is the coordinator's too — results stay bit-identical to every
other backend.

:class:`FarmManager` is the porcelain the ``repro farm`` CLI drives:
``plan`` prints a placement, ``launch`` wraps a supervised run and
archives the result (placement, per-host FMR, surviving hosts) into
the run registry.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import HostDeadError, WorkerError
from ..obsplane.events import (EV_HOST_DEATH, EV_HOST_DEPLOY,
                               EV_HOST_REPLACE)
from ..obsplane.log import get_logger, log_record
from ..parallel.coordinator import ProcessBackend, _WorkerState
from ..reliability.supervisor import (InjectedCrash, RunSupervisor,
                                      SupervisorReport)
from .deploy import host_agent_main
from .hosts import FarmSpec
from .placement import Placement, place_sim

_LOG = get_logger("repro.farm")


class FarmBackend(ProcessBackend):
    """Distributed execution across simulated hosts.

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
                 flush_interval: int = 16,
                 window: Optional[int] = None,
                 heartbeat_timeout: float = 30.0,
                 worker_faults: Optional[Dict[str, tuple]] = None,
                 host_faults: Optional[Dict[str, int]] = None,
                 socket_family: Optional[str] = None):
        super().__init__(flush_interval=flush_interval, window=window,
                         heartbeat_timeout=heartbeat_timeout,
                         worker_faults=worker_faults,
                         socket_family=socket_family)
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

    # -- plumbing -------------------------------------------------------------

    def _spawn_farm(self, sim, placement: Placement,
                    target_cycles: int, max_passes: int):
        ctx = mp.get_context("fork")
        names = list(sim.partitions)
        order = {name: i for i, name in enumerate(names)}
        host_parts = placement.by_host()
        worker_options = self._worker_options(sim)

        all_conns: List = []

        def pipe():
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            all_conns.extend((recv_conn, send_conn))
            return recv_conn, send_conn

        hosts = sorted(host_parts)
        up = {host: pipe() for host in hosts}
        down = {host: pipe() for host in hosts}
        corr = getattr(sim, "corr_id", "") or ""
        agents: Dict[str, mp.Process] = {}
        for host in hosts:
            options: Dict[str, dict] = {"__agent__": {
                "die_at_pass": self.host_faults.get(host),
                "corr_id": corr,
                "host": host}}
            for part in host_parts[host]:
                options[part] = worker_options[part]
            own = {id(down[host][0]), id(up[host][1])}
            unrelated = [c for c in all_conns if id(c) not in own]
            # agents fork the partition workers, so they cannot be
            # daemonic; they exit on manager EOF instead
            agents[host] = ctx.Process(
                target=host_agent_main,
                args=(sim, host, host_parts[host], order,
                      target_cycles, max_passes,
                      down[host][0], up[host][1], unrelated, options),
                name=f"repro-host-{host}", daemon=False)
        for proc in agents.values():
            proc.start()
        events = getattr(sim, "events", None)
        if events is not None and events.enabled:
            for host, proc in agents.items():
                events.emit(EV_HOST_DEPLOY, corr=corr, host=host,
                            agent_pid=proc.pid,
                            parts=",".join(host_parts[host]))
        for host in hosts:
            down[host][0].close()
            up[host][1].close()
        self._close_listeners()
        ctl_recv = {host: up[host][0] for host in hosts}
        ctl_send = {host: down[host][1] for host in hosts}
        return agents, ctl_recv, ctl_send

    # -- the supervision loop -------------------------------------------------

    def _run(self, sim, target_cycles, max_passes, crash_cycle):
        from multiprocessing.connection import wait as conn_wait

        placement = place_sim(sim, self.spec, self.colocate)
        # the supervisor calls _run once per checkpoint segment; only
        # record the placement when it actually changed (it does after
        # a host death shrinks the farm)
        if self.last_placement is None \
                or placement.assignment != self.last_placement.assignment:
            self.placements.append(placement)
            events = getattr(sim, "events", None)
            if len(self.placements) > 1 and events is not None \
                    and events.enabled:
                events.emit(
                    EV_HOST_REPLACE,
                    corr=getattr(sim, "corr_id", "") or "",
                    hosts=",".join(sorted(placement.by_host())),
                    assignment=dict(placement.assignment))
        self.last_placement = placement
        agents, ctl_recv, ctl_send = self._spawn_farm(
            sim, placement, target_cycles, max_passes)
        names = list(sim.partitions)
        part_host = placement.assignment
        host_parts = placement.by_host()
        hosts = sorted(host_parts)
        now = time.monotonic()
        states = {name: _WorkerState(
            sim.partitions[name].target_cycle, now)
            for name in names}
        conn_host = {ctl_recv[host]: host for host in hosts}
        sentinel_host = {agents[host].sentinel: host
                         for host in hosts}
        agent_seen = {host: now for host in hosts}
        agent_dead: set = set()
        stopping = False
        aborting: Optional[str] = None
        abort_at = 0.0
        primary_failure: Optional[Tuple[str, str, str, str]] = None
        host_failure: Optional[Tuple[str, str, str]] = None
        tick = min(1.0, max(0.05, self.heartbeat_timeout / 4))
        last_ping = now
        ping_seq = 0

        def broadcast(msg) -> None:
            for host, conn in ctl_send.items():
                if host in agent_dead:
                    continue
                try:
                    conn.send(msg)
                except (BrokenPipeError, OSError):
                    pass

        def host_done(host) -> bool:
            return all(states[p].fragment is not None
                       for p in host_parts[host])

        try:
            while True:
                waitables = [ctl_recv[h] for h in hosts
                             if h not in agent_dead]
                waitables += [s for s, h in sentinel_host.items()
                              if h not in agent_dead]
                ready = conn_wait(waitables, timeout=tick) \
                    if waitables else []
                now = time.monotonic()
                for item in ready:
                    if item in sentinel_host:
                        host = sentinel_host[item]
                        agents[host].join(1.0)
                        self._drain_agent(host, ctl_recv[host],
                                          states, agent_seen, now)
                        agent_dead.add(host)
                        if host_done(host):
                            continue  # clean exit after its fragments
                        for part in host_parts[host]:
                            states[part].dead = True
                            if states[part].exitcode is None:
                                states[part].exitcode = \
                                    agents[host].exitcode
                        if host_failure is None \
                                and not (stopping or aborting):
                            host_failure = (
                                host, "died",
                                f"host agent exited with code "
                                f"{agents[host].exitcode}, taking "
                                f"partition(s) "
                                f"{', '.join(host_parts[host])} down")
                    else:
                        self._drain_agent(conn_host[item], item,
                                          states, agent_seen, now)
                live = (sim.telemetry.live
                        if sim.telemetry.enabled else None)
                if live is not None:
                    live.update(self._live_payload(sim, states))

                if host_failure is not None:
                    host, reason, message = host_failure
                    self.spec.mark_dead(host)
                    self._emit_host_death(sim, host, reason)
                    broadcast(("abort", "fatal"))
                    raise HostDeadError(host, reason, message)

                failure = primary_failure or self._find_failure(
                    names, states, stopping, aborting)
                if failure is not None:
                    primary_failure = failure
                    broadcast(("abort", "fatal"))
                    raise self._failure_error(failure)

                # liveness: workers are checked individually (their
                # heartbeats relay through the agent), agents through
                # the ping/pong probe
                for name in names:
                    state = states[name]
                    if not state.dead and state.fragment is None \
                            and now - state.last_seen \
                            > self.heartbeat_timeout:
                        broadcast(("abort", "fatal"))
                        raise WorkerError(
                            name, "heartbeat-timeout",
                            f"no message for more than "
                            f"{self.heartbeat_timeout}s")
                if now - last_ping >= tick:
                    ping_seq += 1
                    broadcast(("ping", ping_seq))
                    last_ping = now
                for host in hosts:
                    if host in agent_dead or host_done(host):
                        continue
                    if now - agent_seen[host] > self.heartbeat_timeout:
                        self.spec.mark_dead(host)
                        self._emit_host_death(sim, host,
                                              "heartbeat-timeout")
                        broadcast(("abort", "fatal"))
                        raise HostDeadError(
                            host, "heartbeat-timeout",
                            f"no message from the host agent for "
                            f"more than {self.heartbeat_timeout}s")

                if aborting == "deadlock":
                    if all(s.postmortem is not None
                           for s in states.values()):
                        raise self._deadlock_error(sim, states)
                    if now - abort_at > self.heartbeat_timeout:
                        silent = [n for n in names
                                  if states[n].postmortem is None]
                        raise WorkerError(
                            silent[0], "heartbeat-timeout",
                            "no deadlock postmortem within "
                            f"{self.heartbeat_timeout}s")
                    continue

                min_frontier = min(s.frontier
                                   for s in states.values())
                if not stopping and min_frontier >= target_cycles:
                    fence = max(s.max_reported
                                for s in states.values()) + 1
                    broadcast(("stop", fence))
                    stopping = True
                if stopping:
                    if all(s.fragment is not None
                           for s in states.values()):
                        break
                    continue
                if crash_cycle is not None \
                        and min_frontier >= crash_cycle:
                    broadcast(("abort", "crash"))
                    raise InjectedCrash(crash_cycle)

                k_star = self._deadlock_pass(states)
                if k_star is not None:
                    broadcast(("abort", "deadlock"))
                    aborting = "deadlock"
                    abort_at = now
        finally:
            broadcast(("shutdown",))
            self._cleanup(agents, ctl_recv, ctl_send)

        fragments = {n: states[n].fragment for n in names}
        self.last_wire_stats = {
            n: frag.get("wire_stats", {})
            for n, frag in fragments.items()}
        self.last_worker_corr = {
            n: frag.get("corr", "")
            for n, frag in fragments.items()}
        sim.last_worker_corr = dict(self.last_worker_corr)
        self._merge(sim, fragments)
        sim.last_run_backend = self._backend_label
        self._finish_telemetry(sim)
        result = sim.result()
        self.last_host_fmr = self._host_fmr(result, part_host)
        return result

    def _emit_host_death(self, sim, host: str, reason: str) -> None:
        events = getattr(sim, "events", None)
        if events is not None and events.enabled:
            events.emit(EV_HOST_DEATH,
                        corr=getattr(sim, "corr_id", "") or "",
                        host=host, reason=reason)
        log_record(_LOG, EV_HOST_DEATH,
                   corr=getattr(sim, "corr_id", "") or "",
                   host=host, reason=reason,
                   level=logging.WARNING)

    def _drain_agent(self, host, conn, states, agent_seen, now) -> None:
        while True:
            try:
                if not conn.poll():
                    return
                msg = conn.recv()
            except (EOFError, OSError):
                return  # the sentinel handler owns death accounting
            agent_seen[host] = now
            kind = msg[0]
            if kind == "w":
                self._apply_msg(states[msg[1]], msg[2], now)
            elif kind == "dead":
                state = states[msg[1]]
                state.dead = True
                if msg[2] is not None:
                    state.exitcode = msg[2]
            # "pong" carries no payload beyond refreshing agent_seen

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
    """Porcelain for the ``repro farm`` CLI and programmatic callers.

    Args:
        build: zero-argument simulation factory (the supervisor
            rebuilds through it after a rollback).
        spec: the farm manifest.
        colocate: see :class:`FarmBackend`.
        checkpoint_every / max_rollbacks: supervisor knobs.
        host_faults / worker_faults: fault-injection hooks.
    """

    def __init__(self, build, spec: FarmSpec,
                 colocate: Iterable[Iterable[str]] = (),
                 checkpoint_every: int = 100,
                 max_rollbacks: int = 3,
                 flush_interval: int = 16,
                 heartbeat_timeout: float = 30.0,
                 host_faults: Optional[Dict[str, int]] = None,
                 worker_faults: Optional[Dict[str, tuple]] = None,
                 socket_family: Optional[str] = None):
        self.build = build
        self.spec = spec
        self.colocate = [list(g) for g in colocate]
        self.checkpoint_every = checkpoint_every
        self.max_rollbacks = max_rollbacks
        self.backend = FarmBackend(
            spec, colocate=colocate,
            flush_interval=flush_interval,
            heartbeat_timeout=heartbeat_timeout,
            host_faults=host_faults,
            worker_faults=worker_faults,
            socket_family=socket_family)

    def plan(self, sim=None) -> Placement:
        """Place (a fresh build of) the design without running it."""
        if sim is None:
            sim = self.build()
        return place_sim(sim, self.spec, self.colocate)

    def launch(self, target_cycles: int, registry=None,
               run_name: str = "farm") -> FarmReport:
        """Run to ``target_cycles`` under supervision; survives host
        deaths by rollback + re-placement onto the survivors."""
        supervisor = RunSupervisor(
            self.build,
            checkpoint_every=self.checkpoint_every,
            max_rollbacks=self.max_rollbacks,
            backend=self.backend)
        sup_report = supervisor.run(target_cycles)
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
                config={"hosts": self.spec.to_dict(),
                        "target_cycles": target_cycles,
                        "colocate": self.colocate},
                extra={"farm": report.to_extra()})
        return report
