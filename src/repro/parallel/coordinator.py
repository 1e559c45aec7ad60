"""Coordinator for the process backend: spawn, supervise, merge.

``ProcessBackend.run`` forks one worker process per partition (the
simulation object is inherited by ``fork``, so compiled artefacts,
token sources and closures need no pickling), binds the rendezvous
listeners through which every pair of *linked* partitions connects its
stream socket, wires a control pipe pair per worker, and then plays
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
import shutil
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from .. import errors as _errors
from ..errors import (BackendUnavailableError, DeadlockError,
                      SimulationError, UnknownBackendError,
                      UnsupportedTopologyError, WorkerError)
from ..observability.postmortem import DeadlockPostmortem
from ..obsplane.events import EV_WORKER_EXIT, EV_WORKER_SPAWN
from ..observability.tracer import (NULL_TRACER, RecordingTracer,
                                    TraceEvent)
from ..reliability.supervisor import InjectedCrash
from . import worker as _worker_mod
from .channels import FramePacker
from .socket_transport import (default_family, make_listeners,
                               socket_available, socket_timeouts)
from .worker import worker_main


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
    if not fork_available() or not socket_available():
        return None
    if unsupported_reason(sim) is not None:
        return None
    kwargs = {}
    flush = os.environ.get("REPRO_FLUSH_INTERVAL")
    if flush:
        kwargs["flush_interval"] = max(1, int(flush))
    timeout = os.environ.get("REPRO_HEARTBEAT_TIMEOUT")
    if timeout:
        kwargs["heartbeat_timeout"] = float(timeout)
    return ProcessBackend(**kwargs)


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
        #: (exception type name, message) from a "failed" report
        self.failed: Optional[Tuple[str, str]] = None
        #: modelled time position from the last piggybacked metric
        #: frame (live status rendering only)
        self.busy_ns = 0.0


class ProcessBackend:
    """Runs a partitioned simulation with one OS process per partition.

    Args:
        flush_interval: passes batched into one wire record per peer
            (frame batching; also the progress-report batch size).
        window: max unacknowledged passes in flight per peer before a
            sender blocks (credit flow control); default
            ``2 * flush_interval``.
        heartbeat_timeout: seconds of *total* silence from a worker
            (no frames for peers implies progress reports or heartbeats
            for the coordinator) before it is declared hung.
        worker_faults: test hook — ``{partition: (mode, pass_no)}``
            where mode is ``"kill"``, ``"raise"`` or ``"hang"``.
        socket_family: ``"tcp"`` (loopback TCP with ``TCP_NODELAY``)
            or ``"unix"``; defaults to the ``REPRO_SOCKET_FAMILY``
            environment variable, then tcp.

    Linked workers exchange struct-packed frame batches over stream
    sockets (see :mod:`repro.parallel.socket_transport`); control and
    coordinator-side liveness stay on pipes.  Sockets are the only
    data plane because the end-to-end ledger picked them: pickled
    pipes measured ~10-15% slower and shared-memory rings 2.6-6.4x
    slower (no fd to select on, so a 0.5 ms poll per lock-step round
    trip) on every shape tried — see DESIGN.md, "Process backend
    wire".
    """

    def __init__(self, flush_interval: int = 16,
                 window: Optional[int] = None,
                 heartbeat_timeout: float = 30.0,
                 worker_faults: Optional[Dict[str, tuple]] = None,
                 socket_family: Optional[str] = None):
        self.flush_interval = max(1, flush_interval)
        self.window = window
        self.heartbeat_timeout = heartbeat_timeout
        self.worker_faults = dict(worker_faults or {})
        if socket_family is None:
            socket_family = default_family()
        if socket_family not in ("tcp", "unix"):
            raise ValueError(
                f"unknown socket family {socket_family!r} "
                "(tcp or unix)")
        self.socket_family = socket_family
        self._backend_label = "process"
        self._listeners: Dict[str, object] = {}
        self._socket_tmpdir: Optional[str] = None
        #: per-worker wire accounting from the last completed run —
        #: {partition: {"messages_sent": ..., "frames_pushed": ...}};
        #: benchmark instrumentation, never part of simulation state
        self.last_wire_stats: Dict[str, dict] = {}
        #: per-worker corr-id echo from the last completed run — the
        #: propagation proof (observability only, never merged)
        self.last_worker_corr: Dict[str, str] = {}

    # -- public entry ---------------------------------------------------------

    def run(self, sim, target_cycles: int,
            max_passes: int = 50_000_000,
            crash_cycle: Optional[int] = None):
        if not fork_available():
            raise BackendUnavailableError(
                "process backend needs the 'fork' start method "
                "(unavailable on this platform)")
        if not socket_available(self.socket_family):
            raise BackendUnavailableError(
                f"process backend needs {self.socket_family} stream "
                "sockets (unavailable on this host)")
        reason = unsupported_reason(sim)
        if reason is not None:
            raise UnsupportedTopologyError(reason)
        if sim.telemetry.enabled:
            sim.telemetry.target_cycles = max(
                sim.telemetry.target_cycles or 0, target_cycles)
        if sim.frontier_cycle() >= target_cycles:
            sim.last_run_backend = self._backend_label
            self._finish_telemetry(sim)
            return sim.result()
        if crash_cycle is not None \
                and sim.frontier_cycle() >= crash_cycle:
            raise InjectedCrash(crash_cycle)
        return self._run(sim, target_cycles, max_passes, crash_cycle)

    # -- plumbing -------------------------------------------------------------

    def _worker_options(self, sim) -> Dict[str, dict]:
        """Per-partition ``worker_main`` option dicts, with the data
        plane's rendezvous bound: one listener per partition that a
        higher-order linked peer will connect down to, created before
        forking so every child inherits it live.  Shared with the farm
        manager, whose agents hand the same dicts to their workers."""
        names = list(sim.partitions)
        order = {name: i for i, name in enumerate(names)}
        #: each linked pair, lower-order partition (the listener's
        #: owner) first
        pairs = {(a, b) if order[a] < order[b] else (b, a)
                 for a, b in ((link.src[0], link.dst[0])
                              for link in sim.links) if a != b}
        owners: Dict[str, int] = {}
        for name in names:
            backlog = sum(1 for owner, _ in pairs if owner == name)
            if backlog:
                owners[name] = backlog
        listeners, addresses, tmpdir = make_listeners(
            owners, self.socket_family)
        self._listeners = listeners
        self._socket_tmpdir = tmpdir
        connect_timeout, read_timeout = socket_timeouts()
        shared = {
            "flush_interval": self.flush_interval,
            "window": self.window,
            "heartbeat_s": min(2.0, self.heartbeat_timeout / 4),
            "packer": FramePacker.from_sim(sim),
            "socket": {
                "family": self.socket_family,
                "listeners": listeners,
                "addresses": addresses,
                "connect_timeout": connect_timeout,
                "read_timeout": read_timeout,
            },
            "corr_id": getattr(sim, "corr_id", "") or "",
        }
        return {name: dict(shared, die=self.worker_faults.get(name))
                for name in names}

    def _close_listeners(self) -> None:
        for sock in self._listeners.values():
            try:
                sock.close()
            except OSError:
                pass
        self._listeners = {}

    def _spawn(self, sim, target_cycles: int, max_passes: int):
        ctx = mp.get_context("fork")
        names = list(sim.partitions)
        order = {name: i for i, name in enumerate(names)}
        options = self._worker_options(sim)

        all_conns: List = []

        def pipe():
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            all_conns.extend((recv_conn, send_conn))
            return recv_conn, send_conn

        up: Dict[str, tuple] = {}
        down: Dict[str, tuple] = {}
        for name in names:
            up[name] = pipe()      # worker -> coordinator
            down[name] = pipe()    # coordinator -> worker

        procs: Dict[str, mp.Process] = {}
        for name in names:
            own = {id(down[name][0]), id(up[name][1])}
            unrelated = [c for c in all_conns if id(c) not in own]
            procs[name] = ctx.Process(
                target=worker_main,
                args=(sim, name, order, target_cycles, max_passes,
                      down[name][0], up[name][1], unrelated,
                      options[name]),
                name=f"repro-worker-{name}", daemon=True)
        for proc in procs.values():
            proc.start()
        events = getattr(sim, "events", None)
        if events is not None and events.enabled:
            corr = getattr(sim, "corr_id", "")
            for name, proc in procs.items():
                events.emit(EV_WORKER_SPAWN, corr=corr, part=name,
                            worker_pid=proc.pid,
                            backend=self._backend_label)
        # the children own these ends now; closing them here is what
        # turns any single worker death into EOFs everywhere else
        for name in names:
            down[name][0].close()
            up[name][1].close()
        # children inherited the rendezvous listeners across fork; the
        # owners keep their copies open until their accept phase ends
        self._close_listeners()
        ctl_recv = {name: up[name][0] for name in names}
        ctl_send = {name: down[name][1] for name in names}
        return procs, ctl_recv, ctl_send

    @staticmethod
    def _broadcast(ctl_send, msg) -> None:
        for conn in ctl_send.values():
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                pass

    def _cleanup(self, procs, ctl_recv, ctl_send) -> None:
        """Terminate, reap and unplumb every child unconditionally."""
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + 5.0
        for proc in procs.values():
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in procs.values():
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
        for conn in list(ctl_recv.values()) + list(ctl_send.values()):
            try:
                conn.close()
            except OSError:
                pass
        # children are reaped; the parent owns the unix-socket
        # rendezvous directory
        self._close_listeners()
        if self._socket_tmpdir is not None:
            shutil.rmtree(self._socket_tmpdir, ignore_errors=True)
            self._socket_tmpdir = None

    # -- the supervision loop -------------------------------------------------

    def _run(self, sim, target_cycles, max_passes, crash_cycle):
        from multiprocessing.connection import wait as conn_wait

        procs, ctl_recv, ctl_send = self._spawn(
            sim, target_cycles, max_passes)
        names = list(sim.partitions)
        now = time.monotonic()
        states = {name: _WorkerState(
            sim.partitions[name].target_cycle, now)
            for name in names}
        conn_name = {ctl_recv[name]: name for name in names}
        sentinel_name = {procs[name].sentinel: name for name in names}
        stopping = False
        aborting: Optional[str] = None
        abort_at = 0.0
        primary_failure: Optional[Tuple[str, str, str, str]] = None
        tick = min(1.0, max(0.05, self.heartbeat_timeout / 4))

        try:
            while True:
                waitables = [c for c in ctl_recv.values()
                             if not states[conn_name[c]].dead]
                waitables += [s for s, n in sentinel_name.items()
                              if not states[n].dead]
                ready = conn_wait(waitables, timeout=tick) \
                    if waitables else []
                now = time.monotonic()
                for item in ready:
                    if item in sentinel_name:
                        self._on_death(sentinel_name[item], procs,
                                       ctl_recv, states, now)
                    else:
                        self._drain(conn_name[item],
                                    ctl_recv[conn_name[item]],
                                    states, now)
                live = (sim.telemetry.live
                        if sim.telemetry.enabled else None)
                if live is not None:
                    live.update(self._live_payload(sim, states))

                failure = primary_failure or self._find_failure(
                    names, states, stopping, aborting)
                if failure is not None:
                    primary_failure = failure
                    self._broadcast(ctl_send, ("abort", "fatal"))
                    raise self._failure_error(failure)

                for name in names:
                    state = states[name]
                    if not state.dead and state.fragment is None \
                            and now - state.last_seen \
                            > self.heartbeat_timeout:
                        self._broadcast(ctl_send, ("abort", "fatal"))
                        raise WorkerError(
                            name, "heartbeat-timeout",
                            f"no message for more than "
                            f"{self.heartbeat_timeout}s")

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
                    # fence: running the wavefront through this pass
                    # guarantees every effect-bearing frame (all emitted
                    # at or before a worker's completion pass, hence at
                    # or before its last report) has been applied
                    fence = max(s.max_reported
                                for s in states.values()) + 1
                    self._broadcast(ctl_send, ("stop", fence))
                    stopping = True
                if stopping:
                    if all(s.fragment is not None
                           for s in states.values()):
                        break
                    continue
                if crash_cycle is not None \
                        and min_frontier >= crash_cycle:
                    self._broadcast(ctl_send, ("abort", "crash"))
                    raise InjectedCrash(crash_cycle)

                k_star = self._deadlock_pass(states)
                if k_star is not None:
                    self._broadcast(ctl_send, ("abort", "deadlock"))
                    aborting = "deadlock"
                    abort_at = now
        finally:
            self._cleanup(procs, ctl_recv, ctl_send)

        fragments = {n: states[n].fragment for n in names}
        self.last_wire_stats = {
            n: frag.get("wire_stats", {})
            for n, frag in fragments.items()}
        self.last_worker_corr = {
            n: frag.get("corr", "")
            for n, frag in fragments.items()}
        sim.last_worker_corr = dict(self.last_worker_corr)
        events = getattr(sim, "events", None)
        if events is not None and events.enabled:
            corr = getattr(sim, "corr_id", "")
            for n, proc in procs.items():
                events.emit(EV_WORKER_EXIT, corr=corr, part=n,
                            worker_pid=proc.pid,
                            exitcode=proc.exitcode)
        self._merge(sim, fragments)
        sim.last_run_backend = self._backend_label
        self._finish_telemetry(sim)
        return sim.result()

    def _live_payload(self, sim, states) -> dict:
        """Live status assembled from piggybacked metric frames — the
        parent's partition objects are stale while workers run."""
        wall_ns = max((s.busy_ns for s in states.values()),
                      default=0.0)
        frontier = min((s.frontier for s in states.values()),
                       default=0)
        rate_hz = frontier / wall_ns * 1e9 if wall_ns > 0 else 0.0
        return {
            "status": "running",
            "backend": self._backend_label,
            "frontier_cycle": frontier,
            "target_cycles": sim.telemetry.target_cycles,
            "wall_ns": wall_ns,
            "rate_hz": rate_hz,
            "partitions": {name: state.frontier
                           for name, state in states.items()},
        }

    @staticmethod
    def _finish_telemetry(sim) -> None:
        if sim.telemetry.enabled and sim.frontier_cycle() >= (
                sim.telemetry.target_cycles or 0):
            sim.telemetry.finish(sim)

    def _drain(self, name, conn, states, now) -> None:
        state = states[name]
        while True:
            try:
                if not conn.poll():
                    return
                msg = conn.recv()
            except (EOFError, OSError):
                return  # the sentinel handler owns death accounting
            self._apply_msg(state, msg, now)

    @staticmethod
    def _apply_msg(state, msg, now) -> None:
        """Fold one worker control message into its supervision state
        (shared with the farm manager, whose agents relay the same
        messages tagged with the partition name)."""
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
            state.failed = (msg[2], msg[3])

    def _on_death(self, name, procs, ctl_recv, states, now) -> None:
        state = states[name]
        if state.dead:
            return
        procs[name].join(1.0)
        self._drain(name, ctl_recv[name], states, now)
        state.dead = True
        state.exitcode = procs[name].exitcode

    @staticmethod
    def _find_failure(names, states, stopping, aborting):
        """First fatal worker condition in partition order, preferring
        primary causes over secondary casualties (exit code 3 means "my
        peer or coordinator vanished")."""
        for name in names:
            if states[name].failed is not None:
                return (name, "raised", *states[name].failed)
        for name in names:
            state = states[name]
            if state.dead and state.fragment is None \
                    and state.postmortem is None \
                    and state.exitcode not in (0, 3) \
                    and not (stopping or aborting):
                return (name, "died", "",
                        f"worker process exited with code "
                        f"{state.exitcode}")
        # only secondary casualties: blame the first of them
        if not (stopping or aborting):
            for name in names:
                state = states[name]
                if state.dead and state.fragment is None \
                        and state.postmortem is None:
                    return (name, "died", "",
                            "worker process exited after losing a "
                            "peer or coordinator connection")
        return None

    @staticmethod
    def _failure_error(failure):
        name, reason, exc_type, message = failure
        if reason == "raised":
            exc_cls = getattr(_errors, exc_type, None)
            if exc_cls is not None \
                    and isinstance(exc_cls, type) \
                    and issubclass(exc_cls, _errors.ReproError):
                try:
                    return exc_cls(message)
                except TypeError:
                    pass
            return WorkerError(name, "raised",
                              f"{exc_type}: {message}")
        return WorkerError(name, reason, message)

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
            sim.tracer.emit(TraceEvent(
                "deadlock",
                ts_ns=max(states[n].postmortem["busy_until"]
                          for n in sim.partitions),
                args={"host_passes": k_star, "frontier": frontier}))
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
        simulation.  Ownership: a link's transmit-side state belongs to
        its source partition's worker, its receive-side accounting to
        the destination's; arrivals, host state and recorded outputs
        belong to the partition that holds the channel."""
        merged_events: List[TraceEvent] = []
        total = sim.total_tokens
        dropped = sim.dropped_tokens
        #: pre-run trim counts — needed to know how much of each
        #: receiver-reported consume sequence the senders already
        #: dropped this run
        base_before = dict(sim._consume_base)
        consume_values: Dict[Tuple[str, str], list] = {}
        consume_base: Dict[Tuple[str, str], int] = {}
        for name in sim.partitions:
            frag = fragments[name]
            part = sim.partitions[name]
            part.busy_until = frag["busy_until"]
            spans = part.hooks.spans
            for component, ns in frag["spans"].items():
                setattr(spans, f"{component}_ns", ns)
            part.host.load_state_dict(frag["host"])
            for idx, entry in frag["links_src"].items():
                link = sim.links[idx]
                link.tokens = entry["tokens"]
                link.next_free = entry["next_free"]
                link.busy_ns = entry["busy_ns"]
                if entry["reliability"] is not None \
                        and link.reliability is not None:
                    link.reliability.load_state_dict(
                        entry["reliability"])
                switch_state = entry.get("switch")
                if switch_state is not None \
                        and link.hooks.switch is not None:
                    link.hooks.switch.next_free = \
                        switch_state["next_free"]
                    link.hooks.switch.tokens = switch_state["tokens"]
            for idx, entry in frag["links_dst"].items():
                sim.links[idx].depth_hist = dict(entry["depth_hist"])
            for key in [k for k in sim._arrivals if k[0] == name]:
                del sim._arrivals[key]
            for key, values in frag["arrivals"].items():
                sim._arrivals[key] = deque(values)
            consume_values.update(frag["consume_values"])
            consume_base.update(frag["consume_base"])
            for key in [k for k in sim.output_log if k[0] == name]:
                del sim.output_log[key]
            sim.output_log.update(frag["output_log"])
            total += frag["total_delta"]
            dropped += frag["dropped_delta"]
            if frag["tracer_events"]:
                merged_events.extend(frag["tracer_events"])
            if frag.get("telemetry") is not None \
                    and sim.telemetry.enabled:
                sim.telemetry.merge_worker(name, frag["telemetry"])
        # consume-time queues: the receiver reports the full (untrimmed)
        # append sequence, the sender how far its credit reads trimmed
        # it; serially the two act on one shared deque.  A sole feeder
        # local to the receiver already trimmed the reported values.
        feeders: Dict[Tuple[str, str], set] = {}
        for link in sim.links:
            feeders.setdefault(link.dst, set()).add(link.src[0])
        for key in [k for k in sim._consume_times
                    if k in sim._dst_link_count]:
            del sim._consume_times[key]
        for key, values in consume_values.items():
            new_base = consume_base.get(key, base_before.get(key, 0))
            drop = 0
            if feeders.get(key) != {key[0]}:
                drop = new_base - base_before.get(key, 0)
            sim._consume_times[key] = deque(values[drop:])
        for key in [k for k in sim._consume_base
                    if k in sim._dst_link_count]:
            del sim._consume_base[key]
        sim._consume_base.update(consume_base)
        sim.total_tokens = total
        sim.dropped_tokens = dropped
        if merged_events and sim.tracer.enabled:
            merged_events.sort(key=lambda e: e.ts_ns)
            for event in merged_events:
                sim.tracer.emit(event)
