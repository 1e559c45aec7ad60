"""Coordinator for the process backend: spawn, supervise, merge.

``ProcessBackend.run`` forks one worker process per partition (the
simulation object is inherited by ``fork``, so compiled artefacts,
token sources and closures need no pickling) after making one stream
socket pair per pair of *linked* partitions and one control pipe pair
per worker, and then plays supervisor.  What it supervises are
*endpoints* (:class:`Endpoint`, forked by the one spawner
:func:`fork_endpoints`): a child process,
its control pipe pair and sentinel, and the partitions it fronts — one
worker here, a host agent fronting several workers in
:class:`~repro.farm.FarmBackend`, which runs this same loop.  The
supervisor:

* tracks per-worker progress reports to detect global completion,
  LI-BDN deadlock (no worker progressed past pass ``k*`` — the same
  pass the serial loop would have detected it at) and injected-crash
  trigger points,
* converts worker death, unhandled worker exceptions and heartbeat
  silence into a typed :class:`~repro.errors.WorkerError` naming the
  partition that failed first — after terminating, joining and reaping
  every remaining child, so a failure never leaves orphans or a hung
  parent,
* on success merges the per-worker state fragments back onto the parent
  simulation object, so ``sim.result()``, checkpointing and continued
  in-process runs observe exactly the state a serial run would have
  produced.

Determinism: workers execute the wavefront schedule (see ``worker``),
which reproduces the serial round-robin's interleaving of
cross-partition effects exactly; everything in
``SimulationResult.detail`` is derived from modelled time, so results
are bit-identical to the in-process backend.  Host wall-clock never
enters the results (see DESIGN.md).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import (BackendUnavailableError, DeadlockError,
                      SimulationError, SocketSetupError,
                      UnknownBackendError, UnsupportedTopologyError,
                      WorkerError, env_number, rebuild_error)
from ..observability.postmortem import DeadlockPostmortem
from ..observability.events import lifecycle_event
from ..observability.tracer import (NULL_TRACER, RecordingTracer,
                                    TraceEvent)
from ..reliability.checkpoint import load_partition_state
from ..reliability.supervisor import InjectedCrash
from . import worker as _worker_mod
from .channels import FramePacker
from .worker import close_all, worker_main


def unsupported_reason(sim) -> Optional[str]:
    """Why ``sim`` cannot be distributed, or None if it can."""
    switch_srcs: Dict[int, set] = {}
    for link in sim.links:
        if link.hooks.switch is not None:
            switch_srcs.setdefault(
                id(link.hooks.switch), set()).add(link.src[0])
    for srcs in switch_srcs.values():
        if len(srcs) > 1:
            return ("a switch fabric is shared by links of different "
                    "source partitions; backplane contention ordering "
                    "cannot be partitioned")
    if sim.tracer.enabled \
            and not isinstance(sim.tracer, RecordingTracer):
        return (f"tracer {type(sim.tracer).__name__} cannot be "
                "re-based across worker processes (only "
                "RecordingTracer or a disabled tracer is supported)")
    return None


def fork_available() -> bool:
    return "fork" in mp.get_all_start_methods()


#: canonical backend names, as `normalize_backend` returns them
VALID_BACKENDS = ("auto", "inproc", "process")

#: accepted spellings -> canonical backend name.  The shm/socket
#: spellings named transport tiers that no longer exist; they arrive
#: from outside (environments, service configs, committed corpora) and
#: all mean the one process backend.
BACKEND_ALIASES = {
    "auto": "auto",
    "inproc": "inproc",
    "process": "process",
    "proc": "process",
    "process-shm": "process",
    "shm": "process",
    "process-socket": "process",
    "socket": "process",
}


def normalize_backend(name, source: str = "backend") -> str:
    """Canonical backend name for ``name``.  An unrecognized spelling
    raises :class:`~repro.errors.UnknownBackendError` listing every
    valid name — it must never silently fall through to a different
    backend than the caller asked for."""
    key = (name or "").strip().lower() if isinstance(name, str) else name
    try:
        return BACKEND_ALIASES[key]
    except (KeyError, TypeError):
        raise UnknownBackendError(name, VALID_BACKENDS,
                                  source=source) from None


def auto_backend(sim) -> Optional["ProcessBackend"]:
    """Backend selected by the ``REPRO_BACKEND`` environment variable
    for ``run(backend="auto")``, or None for the in-process loop.
    A non-empty unknown value raises
    :class:`~repro.errors.UnknownBackendError` rather than silently
    running in-process."""
    if _worker_mod.IN_WORKER:
        return None
    raw = os.environ.get("REPRO_BACKEND", "").strip()
    if not raw:
        return None
    mode = normalize_backend(raw, source="REPRO_BACKEND")
    if mode in ("auto", "inproc"):
        return None
    if not fork_available():
        return None
    if unsupported_reason(sim) is not None:
        return None
    timeout = env_number("REPRO_HEARTBEAT_TIMEOUT", None)
    if timeout is None:
        return ProcessBackend()
    return ProcessBackend(heartbeat_timeout=timeout)


class _WorkerState:
    __slots__ = ("frontier", "last_true_pass", "max_reported",
                 "last_seen", "fragment", "postmortem", "dead",
                 "exitcode", "failed", "busy_ns")

    def __init__(self, frontier: int, now: float):
        self.frontier = frontier
        self.last_true_pass = 0
        self.max_reported = 0
        self.last_seen = now
        self.fragment = None
        self.postmortem = None
        self.dead = False
        self.exitcode: Optional[int] = None
        #: (exception type name, message, args) from a "failed" report
        self.failed: Optional[tuple] = None
        #: modelled time position from the last piggybacked metric
        #: frame (live status rendering only)
        self.busy_ns = 0.0


def emit_event(sim, kind: str, **fields) -> None:
    """Log one lifecycle event under ``sim``'s correlation id."""
    if sim.events.enabled:
        sim.events.emit(lifecycle_event(kind, corr=sim.corr_id,
                                        **fields))


@dataclass
class Endpoint:
    """One supervised child process: its control pipe pair and the
    partitions it fronts — a partition worker fronts its own, a farm
    host agent every partition placed on its host."""

    name: str
    parts: List[str]
    proc: mp.Process
    recv: object            # parent-side end of child -> parent
    send: object            # parent-side end of parent -> child
    fields: dict            # identity fields of its spawn/exit events
    last_seen: float = field(default_factory=time.monotonic)
    dead: bool = False


def broadcast(endpoints, msg) -> None:
    """Send ``msg`` down to every endpoint not known dead."""
    for ep in endpoints:
        if ep.dead:
            continue
        try:
            ep.send.send(msg)
        except (BrokenPipeError, OSError):
            pass


def reap(procs) -> None:
    """Terminate and join every started process: ``SIGTERM``, one
    shared 5 s grace, then ``SIGKILL``."""
    procs = list(procs)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    deadline = time.monotonic() + 5.0
    for proc in procs:
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            proc.kill()
            proc.join(5.0)


def fork_endpoints(sim, role: str, spawn_kind: str, children,
                   daemon: bool = True) -> List[Endpoint]:
    """The one spawner: fork one child per ``(name, parts, target,
    args, fields, ends)`` entry, each behind its own control pipe pair.

    ``target`` runs as ``target(sim, *args, ctl_recv=..., ctl_send=...,
    unrelated_conns=...)`` — the simulation is inherited by ``fork``.
    ``ends`` are the data-plane socket ends of the partitions the child
    fronts.  One rule covers pipes and pairs alike: a child closes
    every end it inherited that is not its own (``unrelated_conns``),
    and the parent closes its copies of the children's ends once they
    are forked (or the fork failed), which is what makes any single
    death an EOF everywhere else.  Each start is logged as a
    ``spawn_kind`` event: ``fields`` plus ``<role>_pid``.  A start that
    fails reaps the children already started and raises
    :class:`~repro.errors.WorkerError`.
    """
    ctx = mp.get_context("fork")
    #: per child: (child -> parent, parent -> child), each (recv, send)
    pipes = [(ctx.Pipe(duplex=False), ctx.Pipe(duplex=False))
             for _ in children]
    ends = [end for *_, child_ends in children for end in child_ends]
    inherited = [conn for up, down in pipes for conn in up + down] + ends
    endpoints = []
    for (name, parts, target, args, fields, child_ends), (up, down) in zip(
            children, pipes):
        own = {id(down[0]), id(up[1])} | {id(end) for end in child_ends}
        proc = ctx.Process(
            target=target, args=(sim, *args),
            kwargs={"ctl_recv": down[0], "ctl_send": up[1],
                    "unrelated_conns": [c for c in inherited
                                        if id(c) not in own]},
            name=f"repro-{role}-{name}", daemon=daemon)
        endpoints.append(
            Endpoint(name, parts, proc, up[0], down[1], fields))
    try:
        for ep in endpoints:
            ep.proc.start()
    except OSError as exc:  # fork refused: EAGAIN, ENOMEM
        started = [ep.proc for ep in endpoints if ep.proc.pid is not None]
        reap(started)
        close_all(inherited + started)
        raise WorkerError(endpoints[len(started)].name, "spawn-failed",
                          f"cannot start the {role}: {exc}") from exc
    finally:
        close_all(ends)
    for ep, (up, down) in zip(endpoints, pipes):
        ep.fields = dict(ep.fields, **{f"{role}_pid": ep.proc.pid})
        emit_event(sim, spawn_kind, **ep.fields)
        # the child owns these ends now; closing them here is what
        # turns its death into an EOF on the parent's ends
        close_all((up[1], down[0]))
    return endpoints


def fork_workers(sim, options: Dict[str, dict], target_cycles: int,
                 max_passes: int, **fields) -> List[Endpoint]:
    """One partition-worker endpoint per entry of ``options`` (its
    ``worker_main`` option dict)."""
    return fork_endpoints(sim, "worker", "worker_spawn", [
        (name, [name], worker_main,
         (name, target_cycles, max_passes, worker_options),
         dict(fields, part=name), worker_options["ends"].values())
        for name, worker_options in options.items()])


class ProcessBackend:
    """Runs a partitioned simulation with one OS process per partition.

    Args:
        heartbeat_timeout: seconds of *total* silence from a worker
            (no frames for peers implies progress reports or heartbeats
            for the coordinator) before it is declared hung.
        worker_faults: test hook — ``{partition: (mode, pass_no)}``
            where mode is ``"kill"``, ``"raise"`` or ``"hang"``.

    Linked workers exchange one struct-packed frame per pass over the
    stream-socket pair made for them before the fork
    (:mod:`repro.parallel.worker` says why the lock-step wavefront
    needs no batching, window or acknowledgement on top;
    :mod:`repro.parallel.socket_transport` is the carrier); control and
    coordinator-side liveness stay on pipes.  Sockets are the only
    data plane because the end-to-end ledger picked them: pickled
    pipes measured ~10-15% slower and shared-memory rings 2.6-6.4x
    slower (no fd to select on, so a 0.5 ms poll per lock-step round
    trip) on every shape tried — see DESIGN.md, "Process backend
    wire".
    """

    def __init__(self, heartbeat_timeout: float = 30.0,
                 worker_faults: Optional[Dict[str, tuple]] = None):
        self.heartbeat_timeout = heartbeat_timeout
        self.worker_faults = dict(worker_faults or {})
        self._backend_label = "process"
        #: per-worker wire accounting from the last completed run —
        #: {partition: {"messages_sent": ..., "effects_sent": ...}};
        #: benchmark instrumentation, never part of simulation state
        self.last_wire_stats: Dict[str, dict] = {}
        #: per-worker corr-id echo from the last completed run — the
        #: propagation proof (observability only, never merged)
        self.last_worker_corr: Dict[str, str] = {}
        #: per-worker step-plane compile verdicts of the last completed
        #: run (observability only, never merged)
        self.last_jit_report: Dict[str, str] = {}

    # -- public entry ---------------------------------------------------------

    def run(self, sim, target_cycles: int,
            max_passes: int = 50_000_000,
            crash_cycle: Optional[int] = None):
        if not fork_available():
            raise BackendUnavailableError(
                "process backend needs the 'fork' start method "
                "(unavailable on this platform)")
        reason = unsupported_reason(sim)
        if reason is not None:
            raise UnsupportedTopologyError(reason)
        sim.last_run_backend = self._backend_label
        if sim.telemetry.enabled:
            sim.telemetry.target_cycles = max(
                sim.telemetry.target_cycles or 0, target_cycles)
        if sim.frontier_cycle() >= target_cycles:
            self._finish_telemetry(sim)
            return sim.result()
        if crash_cycle is not None \
                and sim.frontier_cycle() >= crash_cycle:
            raise InjectedCrash(crash_cycle)
        return self._run(sim, target_cycles, max_passes, crash_cycle)

    # -- plumbing -------------------------------------------------------------

    def _worker_options(self, sim) -> Dict[str, dict]:
        """Per-partition ``worker_main`` option dicts, each carrying its
        own ends of the data plane keyed by peer: one
        ``socket.socketpair()`` per linked partition pair, made before
        forking.  Shared with the farm manager, whose agents hand the
        same dicts to their workers.  A failed ``socketpair()`` (fd
        exhaustion) closes the pairs already made and raises
        :class:`~repro.errors.SocketSetupError`."""
        shared = {
            "heartbeat_s": min(2.0, self.heartbeat_timeout / 4),
            "packer": FramePacker.from_sim(sim),
        }
        ends: Dict[str, Dict[str, socket.socket]] = {
            name: {} for name in sim.partitions}
        try:
            for link in sim.links:
                a, b = link.src[0], link.dst[0]
                if a != b and b not in ends[a]:
                    ends[a][b], ends[b][a] = socket.socketpair()
        except OSError as exc:
            close_all(end for peers in ends.values()
                      for end in peers.values())
            raise SocketSetupError(
                f"cannot make a data-plane socket pair: {exc}") from exc
        return {name: dict(shared, ends=ends[name],
                           die=self.worker_faults.get(name))
                for name in sim.partitions}

    def _spawn(self, sim, target_cycles: int,
               max_passes: int) -> List[Endpoint]:
        """One worker endpoint per partition."""
        return fork_workers(sim, self._worker_options(sim),
                            target_cycles, max_passes,
                            backend=self._backend_label)

    def _cleanup(self, sim, endpoints) -> None:
        """Terminate, reap and unplumb every child unconditionally —
        the one place a child's exit is final, so the one place its
        ``worker_exit`` record (with the exit code) is written."""
        reap(ep.proc for ep in endpoints)
        for ep in endpoints:
            emit_event(sim, "worker_exit", **ep.fields,
                       exitcode=ep.proc.exitcode)
            close_all((ep.recv, ep.send, ep.proc))

    # -- the supervision loop -------------------------------------------------

    def _run(self, sim, target_cycles, max_passes, crash_cycle):
        """The one supervision loop, for every backend built on this
        class.  It supervises the endpoints :meth:`_spawn` forked,
        whose workers' control messages arrive — directly or relayed
        — in ``(partition, message)`` envelopes.  Completion (the stop
        fence), LI-BDN deadlock, injected crashes and every failure
        verdict are decided here from the per-partition view;
        subclasses only change what an endpoint is and how its loss is
        classified (:meth:`_find_failure`)."""
        from multiprocessing.connection import wait as conn_wait

        endpoints: List[Endpoint] = []
        try:
            endpoints = self._spawn(sim, target_cycles, max_passes)
            now = time.monotonic()
            states = {name: _WorkerState(part.target_cycle, now)
                      for name, part in sim.partitions.items()}
            watched = {}
            for ep in endpoints:
                watched[ep.recv] = watched[ep.proc.sentinel] = ep
            stopping = False
            aborting: Optional[str] = None
            abort_at = 0.0
            tick = min(1.0, max(0.05, self.heartbeat_timeout / 4))
            while True:
                waitables = [item for item, ep in watched.items()
                             if not ep.dead]
                ready = conn_wait(waitables, timeout=tick) \
                    if waitables else []
                now = time.monotonic()
                for item in ready:
                    ep = watched[item]
                    if item is ep.recv:
                        self._drain(ep, states, now)
                    else:
                        self._on_death(ep, states, now)
                if sim.telemetry.live is not None:
                    # the parent's partitions are stale while workers
                    # run: the reports' frontiers and times stand in
                    sim.telemetry.live.update(sim.telemetry.live_payload(
                        sim, partitions={n: s.frontier
                                         for n, s in states.items()},
                        wall_ns=max(s.busy_ns for s in states.values())))

                failure = self._find_failure(
                    sim, endpoints, states, now,
                    stopping or aborting is not None)
                if failure is not None:
                    broadcast(endpoints, ("abort", "fatal"))
                    raise failure

                if aborting == "deadlock":
                    if all(s.postmortem is not None
                           for s in states.values()):
                        raise self._deadlock_error(sim, states)
                    if now - abort_at > self.heartbeat_timeout:
                        silent = [n for n, s in states.items()
                                  if s.postmortem is None]
                        raise WorkerError(
                            silent[0], "heartbeat-timeout",
                            "no deadlock postmortem within "
                            f"{self.heartbeat_timeout}s")
                    continue

                min_frontier = min(s.frontier
                                   for s in states.values())
                # a crash strictly inside the segment fires even when
                # the first report already shows the segment done (the
                # one-cycle-per-pass in-process loop would have crashed
                # on the way); one *at* its end fires at the next entry
                if crash_cycle is not None and not stopping \
                        and crash_cycle < target_cycles \
                        and min_frontier >= crash_cycle:
                    broadcast(endpoints, ("abort", "crash"))
                    raise InjectedCrash(crash_cycle)
                if not stopping and min_frontier >= target_cycles:
                    # fence: running the wavefront through this pass
                    # guarantees every effect-bearing frame (all emitted
                    # at or before a worker's completion pass, hence at
                    # or before its last report) has been applied
                    fence = max(s.max_reported
                                for s in states.values()) + 1
                    broadcast(endpoints, ("stop", fence))
                    stopping = True
                if stopping:
                    if all(s.fragment is not None
                           for s in states.values()):
                        break
                    continue

                k_star = self._deadlock_pass(states)
                if k_star is not None:
                    broadcast(endpoints, ("abort", "deadlock"))
                    aborting = "deadlock"
                    abort_at = now
        finally:
            self._cleanup(sim, endpoints)

        fragments = {n: s.fragment for n, s in states.items()}
        self.last_wire_stats = {
            n: frag["wire_stats"] for n, frag in fragments.items()}
        self.last_worker_corr = {
            n: frag["corr"] for n, frag in fragments.items()}
        sim.last_worker_corr = dict(self.last_worker_corr)
        # each worker compiled its own partition's step function
        self.last_jit_report = {
            n: fragments[n]["jit"] for n in sim.partitions}
        sim.last_jit_report = dict(self.last_jit_report)
        self._merge(sim, fragments)
        self._finish_telemetry(sim)
        return sim.result()

    @staticmethod
    def _finish_telemetry(sim) -> None:
        if sim.telemetry.enabled and sim.frontier_cycle() >= (
                sim.telemetry.target_cycles or 0):
            sim.telemetry.finish(sim)

    def _drain(self, ep, states, now) -> None:
        """Fold every pending ``(partition, message)`` envelope of one
        endpoint into the supervision state; partition ``None`` is the
        endpoint itself answering a probe (it only proves it alive)."""
        while True:
            try:
                if not ep.recv.poll():
                    return
                part, msg = ep.recv.recv()
            except (EOFError, OSError):
                return  # the sentinel handler owns death accounting
            ep.last_seen = now
            if part is not None:
                self._apply_msg(states[part], msg, now)

    @staticmethod
    def _apply_msg(state, msg, now) -> None:
        """Fold one worker control message into its state record."""
        state.last_seen = now
        kind = msg[0]
        if kind == "progress":
            for pass_no, frontier, progressed in msg[2]:
                if pass_no > state.max_reported:
                    state.max_reported = pass_no
                if progressed and pass_no > state.last_true_pass:
                    state.last_true_pass = pass_no
                state.frontier = frontier
            if len(msg) > 3 and msg[3] is not None:
                state.busy_ns = msg[3].busy_ns
                state.frontier = max(state.frontier,
                                     msg[3].frontier)
        elif kind == "heartbeat":
            state.frontier = max(state.frontier, msg[3])
        elif kind == "done":
            state.fragment = msg[1]
        elif kind == "postmortem":
            state.postmortem = msg[1]
        elif kind == "failed" and state.failed is None:
            state.failed = msg[2:]
        elif kind == "dead":
            # relayed by the endpoint fronting this worker
            state.dead = True
            if msg[1] is not None:
                state.exitcode = msg[1]

    def _on_death(self, ep, states, now) -> None:
        """An endpoint's process exited: everything it fronts that has
        not reported its own exit went down with it."""
        ep.proc.join(1.0)
        self._drain(ep, states, now)
        ep.dead = True
        for part in ep.parts:
            state = states[part]
            state.dead = True
            if state.exitcode is None:
                state.exitcode = ep.proc.exitcode

    def _find_failure(self, sim, endpoints, states, now,
                      quiescing: bool) -> Optional[SimulationError]:
        """The first fatal worker condition in partition order, as the
        error to raise: a reported exception, then a death — primary
        causes before secondary casualties (exit code 3 means "my
        peer or coordinator vanished"), and none of it once a stop or
        abort is out (``quiescing``), when exits are expected — then
        heartbeat silence."""
        for name, state in states.items():
            if state.failed is not None:
                return rebuild_error(name, *state.failed)
        if not quiescing:
            lost = [(name, state) for name, state in states.items()
                    if state.dead and state.fragment is None
                    and state.postmortem is None]
            for name, state in lost:
                if state.exitcode not in (0, 3):
                    return WorkerError(
                        name, "died", "worker process exited with "
                        f"code {state.exitcode}")
            if lost:
                return WorkerError(
                    lost[0][0], "died", "worker process exited after "
                    "losing a peer or coordinator connection")
        for name, state in states.items():
            if not state.dead and state.fragment is None \
                    and now - state.last_seen > self.heartbeat_timeout:
                return WorkerError(
                    name, "heartbeat-timeout",
                    f"no message for more than "
                    f"{self.heartbeat_timeout}s")
        return None

    # -- terminal assembly ----------------------------------------------------

    def _deadlock_pass(self, states) -> Optional[int]:
        """The pass the serial loop would have detected deadlock at, or
        None while any worker may still progress.  Sound because reports
        arrive in pass order: once every worker has reported *past* the
        last pass on which any of them progressed, no token can ever
        move again (the wavefront has fully propagated)."""
        if not states:
            return None
        floor = min(s.max_reported for s in states.values())
        last_true = max(s.last_true_pass for s in states.values())
        if floor > last_true:
            return last_true + 1
        return None

    def _deadlock_error(self, sim, states) -> DeadlockError:
        k_star = self._deadlock_pass(states)
        details: List[str] = []
        channels: Dict[str, Dict[str, dict]] = {}
        events: List[TraceEvent] = []
        for name in sim.partitions:
            payload = states[name].postmortem
            details.extend(payload["stuck"])
            channels[name] = payload["channels"]
            events.extend(payload["events"])
        events.sort(key=lambda e: e.ts_ns)
        frontier = min(states[n].postmortem["frontier"]
                       for n in sim.partitions)
        if sim.tracer.enabled:
            deadlock = TraceEvent(
                "deadlock",
                ts_ns=max(states[n].postmortem["busy_until"]
                          for n in sim.partitions),
                args={"host_passes": k_star, "frontier": frontier})
            sim.tracer.emit(deadlock)
            # the ring ends with the deadlock itself, as the serial
            # loop's does
            events.append(deadlock)
        postmortem = DeadlockPostmortem(
            host_passes=k_star,
            frontier_cycle=frontier,
            channels=channels,
            events=events[-sim.postmortem_events:])
        return DeadlockError(" ;; ".join(details), host_cycle=k_star,
                             postmortem=postmortem)

    @staticmethod
    def _merge(sim, fragments) -> None:
        """Overlay every worker's owned state onto the parent process's
        simulation (:func:`~repro.reliability.checkpoint.
        load_partition_state` — the ownership rule lives there), then
        what only exists because the state was split across processes:
        token deltas, tracer events, and the consume-queue
        recombination."""
        #: pre-run credit-read cursors — how much of each receiver-
        #: reported consume sequence the sender dropped *this run*
        base_before = dict(sim._consume_base)
        merged_events: List[TraceEvent] = []
        for name in sim.partitions:
            frag = fragments[name]
            load_partition_state(sim, name, frag["state"])
            sim.total_tokens += frag["total_delta"]
            sim.dropped_tokens += frag["dropped_delta"]
            if frag["tracer_events"]:
                merged_events.extend(frag["tracer_events"])
        # consume-time queues: the receiver's worker holds the full
        # (untrimmed) append sequence, a remote sole feeder's how far
        # its credit reads trimmed its own copy; serially the two act
        # on one shared deque.  (A feeder local to the receiver already
        # trimmed the reported values; a shared channel is never
        # trimmed, so its cursor did not move.)
        for link in sim.links:
            if link.src[0] != link.dst[0]:
                queue = sim._consume_times.get(link.dst)
                for _ in range(sim._consume_base.get(link.dst, 0)
                               - base_before.get(link.dst, 0)):
                    queue.popleft()
        if merged_events and sim.tracer.enabled:
            merged_events.sort(key=lambda e: e.ts_ns)
            for event in merged_events:
                sim.tracer.emit(event)
