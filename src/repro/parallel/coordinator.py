"""Coordinator for the process backend: spawn, supervise, merge.

``ProcessBackend.run`` forks one worker process per partition (the
simulation object is inherited by ``fork``, so compiled artefacts,
token sources and closures need no pickling) after making one stream
socket pair per pair of *linked* partitions, and then plays supervisor
over one :class:`Worker` record per partition (forked by
:func:`fork_workers`): the process, its control connection and
sentinel, and what its reports said.  :class:`~repro.farm.FarmBackend`
runs this same loop over the same workers, each placed on a virtual
host.  The supervisor:

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
from typing import Dict, List, Optional

from ..errors import (BackendUnavailableError, DeadlockError,
                      SimulationError, SocketSetupError,
                      UnsupportedTopologyError, WorkerError, env_number,
                      rebuild_error)
from ..harness.partitioned import normalize_backend
from ..observability.postmortem import DeadlockPostmortem
from ..observability.events import lifecycle_event
from ..observability.tracer import RecordingTracer, TraceEvent
from ..reliability.checkpoint import load_partition_state
from ..reliability.supervisor import InjectedCrash
from . import worker as _worker_mod
from .channels import FramePacker
from .pool import exit_reason, fork_available, reap, start_child
from .worker import close_all, worker_main


def unsupported_reason(sim) -> Optional[str]:
    """Why ``sim`` cannot be distributed, or None if it can."""
    switch_srcs: Dict[int, set] = {}
    for link in sim.links:
        if link.switch is not None:
            switch_srcs.setdefault(
                id(link.switch), set()).add(link.src[0])
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


class Worker:
    """One forked partition worker: its process, the parent's end of its
    control socketpair, the identity fields of its spawn/exit events,
    and the supervision state the coordinator folds its control
    messages into."""

    def __init__(self, name: str, proc, conn, fields: dict,
                 frontier: int):
        self.name = name
        self.proc = proc
        self.conn = conn
        self.fields = fields
        self.frontier = frontier
        self.last_true_pass = 0
        self.max_reported = 0
        self.last_seen = time.monotonic()
        self.fragment = None
        self.postmortem = None
        self.dead = False
        #: (exception type name, message, args) from a "failed" report
        self.failed: Optional[tuple] = None
        #: modelled time position from the last progress report
        #: (live status rendering only)
        self.busy_ns = 0.0


def emit_event(sim, kind: str, **fields) -> None:
    """Log one lifecycle event under ``sim``'s correlation id."""
    if sim.events.enabled:
        sim.events.emit(lifecycle_event(kind, corr=sim.corr_id,
                                        **fields))


def broadcast(workers, msg) -> None:
    """Send ``msg`` down to every worker not known dead."""
    for worker in workers:
        if worker.dead:
            continue
        try:
            worker.conn.send(msg)
        except (BrokenPipeError, OSError):
            pass


def fork_workers(sim, options: Dict[str, dict], target_cycles: int,
                 max_passes: int,
                 fields: Dict[str, dict]) -> Dict[str, Worker]:
    """Start one daemonic worker per entry of ``options`` (its
    ``worker_main`` option dict) with :func:`.pool.start_child`,
    keeping its data-plane ends and its end of one control socketpair;
    every other end is a socket, which the child parks.  Each start is
    logged as a ``worker_spawn`` event (``fields[name]``, ``part``,
    ``worker_pid``).  A refused start reaps the workers already
    started, closes every end and raises."""
    ctx = mp.get_context("fork")
    workers: Dict[str, Worker] = {}
    conns = []
    try:
        for name, opts in options.items():
            conn, ctl = ctx.Pipe()
            conns.append(conn)
            proc = start_child(
                worker_main,
                (sim, name, target_cycles, max_passes, opts, ctl),
                name, f"repro-worker-{name}",
                [ctl, *opts["ends"].values()], daemon=True)
            workers[name] = Worker(
                name, proc, conn,
                dict(fields[name], part=name, worker_pid=proc.pid),
                sim.partitions[name].target_cycle)
    except WorkerError:
        started = [w.proc for w in workers.values()]
        reap(started)
        close_all(conns + started + [end for opts in options.values()
                                     for end in opts["ends"].values()])
        raise
    for worker in workers.values():
        emit_event(sim, "worker_spawn", **worker.fields)
    return workers


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
    :mod:`repro.parallel.socket_transport` is the carrier); control
    rides one socketpair per worker.  Sockets are the only data plane
    because the end-to-end ledger picked them: pickled pipes measured
    ~10-15% slower and shared-memory rings 2.6-6.4x slower (no fd to
    select on, so a 0.5 ms poll per lock-step round trip) on every
    shape tried — see DESIGN.md, "Process backend wire".
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
        forking.  A failed ``socketpair()`` (fd exhaustion) closes the
        pairs already made and raises
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
               max_passes: int) -> Dict[str, Worker]:
        """One worker per partition."""
        return fork_workers(
            sim, self._worker_options(sim), target_cycles, max_passes,
            {name: {"backend": self._backend_label}
             for name in sim.partitions})

    def _cleanup(self, sim, workers) -> None:
        """Terminate, reap and unplumb every worker unconditionally —
        the one place a worker's exit is final, so the one place its
        ``worker_exit`` record (with the exit code) is written."""
        reap(w.proc for w in workers)
        for worker in workers:
            emit_event(sim, "worker_exit", **worker.fields,
                       exitcode=worker.proc.exitcode)
            close_all((worker.conn, worker.proc))

    # -- the supervision loop -------------------------------------------------

    def _run(self, sim, target_cycles, max_passes, crash_cycle):
        """The one supervision loop, for every backend built on this
        class, over the workers :meth:`_spawn` forked.  Completion (the
        stop fence), LI-BDN deadlock, injected crashes and every
        failure verdict are decided here from the per-partition view;
        subclasses only change where workers are placed and how a loss
        is classified (:meth:`_find_failure`)."""
        from multiprocessing.connection import wait as conn_wait

        states: Dict[str, Worker] = {}
        try:
            states = self._spawn(sim, target_cycles, max_passes)
            workers = states.values()
            watched = {}
            for worker in workers:
                watched[worker.conn] = watched[worker.proc.sentinel] = worker
            stopping = False
            aborting: Optional[str] = None
            abort_at = 0.0
            tick = min(1.0, max(0.05, self.heartbeat_timeout / 4))
            while True:
                waitables = [item for item, worker in watched.items()
                             if not worker.dead]
                ready = conn_wait(waitables, timeout=tick) \
                    if waitables else []
                now = time.monotonic()
                for item in ready:
                    worker = watched[item]
                    if item is worker.conn:
                        self._drain(worker, now)
                    else:
                        self._on_death(worker, now)
                if sim.telemetry.live is not None:
                    # the parent's partitions are stale while workers
                    # run: the reports' frontiers and times stand in
                    sim.telemetry.live.update(sim.telemetry.live_payload(
                        sim, partitions={n: s.frontier
                                         for n, s in states.items()},
                        wall_ns=max(s.busy_ns for s in states.values())))

                failure = self._find_failure(
                    sim, states, now, stopping or aborting is not None)
                if failure is not None:
                    broadcast(workers, ("abort", "fatal"))
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
                    broadcast(workers, ("abort", "crash"))
                    raise InjectedCrash(crash_cycle)
                if not stopping and min_frontier >= target_cycles:
                    # fence: running the wavefront through this pass
                    # guarantees every effect-bearing frame (all emitted
                    # at or before a worker's completion pass, hence at
                    # or before its last report) has been applied
                    fence = max(s.max_reported
                                for s in states.values()) + 1
                    broadcast(workers, ("stop", fence))
                    stopping = True
                if stopping:
                    if all(s.fragment is not None
                           for s in states.values()):
                        break
                    continue

                k_star = self._deadlock_pass(states)
                if k_star is not None:
                    broadcast(workers, ("abort", "deadlock"))
                    aborting = "deadlock"
                    abort_at = now
        finally:
            self._cleanup(sim, states.values())

        fragments = {n: s.fragment for n, s in states.items()}
        self.last_wire_stats = {
            n: frag["wire_stats"] for n, frag in fragments.items()}
        self.last_worker_corr = {
            n: frag["corr"] for n, frag in fragments.items()}
        sim.last_worker_corr = dict(self.last_worker_corr)
        # each worker compiled its own partition's pass
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

    @staticmethod
    def _drain(state, now) -> None:
        """Fold every pending control message of one worker into its
        record."""
        while True:
            try:
                if not state.conn.poll():
                    return
                msg = state.conn.recv()
            except (EOFError, OSError):
                return  # the sentinel handler owns death accounting
            state.last_seen = now
            kind = msg[0]
            if kind == "progress":
                for pass_no, frontier, progressed in msg[2]:
                    if pass_no > state.max_reported:
                        state.max_reported = pass_no
                    if progressed and pass_no > state.last_true_pass:
                        state.last_true_pass = pass_no
                    state.frontier = frontier
                state.busy_ns = msg[3]
            elif kind == "heartbeat":
                state.frontier = max(state.frontier, msg[3])
            elif kind == "done":
                state.fragment = msg[1]
            elif kind == "postmortem":
                state.postmortem = msg[1]
            elif kind == "failed" and state.failed is None:
                state.failed = msg[2:]

    def _on_death(self, state, now) -> None:
        """A worker's process exited: reap it, then fold whatever it
        sent before it went."""
        state.proc.join(1.0)
        self._drain(state, now)
        state.dead = True

    def _find_failure(self, sim, states, now,
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
                if state.proc.exitcode not in (0, 3):
                    return WorkerError(
                        name, "died", "worker process "
                        + exit_reason(state.proc.exitcode))
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
