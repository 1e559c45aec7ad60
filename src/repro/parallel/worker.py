"""Worker process: owns one partition of a forked co-simulation.

Each worker executes the *same* per-partition work the in-process
harness's round-robin would have executed, in the same order, seeing the
same tokens — which is what makes the process backend's results
bit-identical.  The scheduling rule that guarantees this ("wavefront
order"): before running its own pass ``k``, a worker applies the effect
frame of

* pass ``k-1`` from every linked peer that comes *after* it in the
  global partition order, then
* pass ``k`` from every linked peer that comes *before* it,

each group in ascending partition order.  That reproduces exactly the
order in which the serial round-robin interleaves cross-partition token
deliveries and consume-time (credit) records with this partition's own
processing, while leaving the expensive part — evaluating the
partition's RTL and pricing its timing overlay — to run concurrently
across workers.  The dependency graph of (pass, partition) points is
acyclic, so the wavefront can never deadlock on itself; a worker that
must block first flushes every staged outgoing byte, keeping peers
fed.

The same rule is the wire's only flow control.  We emit frame ``k+1``
to peer ``P`` only after applying a frame ``P`` emitted after applying
our frame ``k`` (``P``'s ``k+1`` when it comes before us, its ``k``
when it comes after), so every byte of frame ``k`` has left our socket
before frame ``k+1`` is written: one frame in flight per stream,
written when the pass ends, consumed in arrival order (a stream socket
is a FIFO; a frame whose pass number is not the next one is a
:class:`~repro.errors.SimulationError`).  A write therefore never
finds a staged record ahead of it, and nothing on the wire refuses
or paces one.

A finished worker (its partition reached the target cycle) keeps
cycling *service passes*: it emits empty frames so slower peers can keep
advancing — paced, like any pass, by the frames it applies first —
until the coordinator broadcasts a stop.  Service passes perform no
simulation work and mutate no state, so the final merged state is
deterministic; how many run is host timing, so their frames are not
counted in ``wire_stats["messages_sent"]``.

Control protocol (worker -> coordinator, over the worker's own control
socketpair, which tells the coordinator who spoke — no envelope):

``("progress", name, [(pass, frontier, progressed), ...], busy_until)``
    per-pass progress, ``REPORT_BATCH`` passes a message; flushed on
    no-progress passes so the coordinator can detect global deadlock
    quickly.  ``busy_until`` is the partition's modelled-time cursor,
    which live status (``repro watch``) renders.
``("heartbeat", name, pass, frontier)``
    emitted while blocked, so a hung peer is distinguishable from a
    hung self.
``("done", fragment)``  — final state fragment, after a stop.
``("postmortem", payload)`` — stuck-channel snapshot, after a deadlock
    abort.
``("failed", name, exc_type, message, args)`` — local failure
    (:func:`~repro.errors.error_report`).

Coordinator -> worker: ``("stop", fence)`` and ``("abort", reason)``.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError, error_report
from ..observability.tracer import RecordingTracer
from ..observability.corr import current_corr_id, propagate_corr_id
from ..reliability.checkpoint import partition_state
from .channels import EffectFrame
from .socket_transport import SocketChannel

#: set in forked children so backend auto-selection never recurses
IN_WORKER = False

#: passes per ``progress`` message on the control connection
REPORT_BATCH = 16


def close_all(closables) -> None:
    """Close pipe ends, sockets and reaped processes, ignoring the ones
    already gone (and a process that outlived ``SIGKILL``: it keeps its
    sentinel)."""
    for item in closables:
        try:
            item.close()
        except (OSError, ValueError):
            pass


class _Stop(Exception):
    """Coordinator broadcast a clean stop (all partitions done)."""


class _Abort(Exception):
    """Coordinator broadcast an abort (deadlock / crash / failure)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class Router:
    """The harness's remote-effect sink while running inside a worker.

    Installed as ``sim.router``; the harness (both step tiers) hands
    it every token bound for a peer partition (``deliver_remote``) and
    ``_record_consume`` every credit return for a channel fed by a
    peer's link (``consumed``).  Effects accumulate into one
    :class:`EffectFrame` per linked peer per pass.
    """

    def __init__(self, sim, me: str):
        self.me = me
        self._link_index = {id(link): i for i, link in
                            enumerate(sim.links)}
        #: dst channel key -> partitions owning a link that feeds it
        self.dst_feeders: Dict[Tuple[str, str], List[str]] = {}
        for link in sim.links:
            feeders = self.dst_feeders.setdefault(link.dst, [])
            if link.src[0] not in feeders:
                feeders.append(link.src[0])
        linked = ({l.dst[0] for l in sim.links if l.src[0] == me} |
                  {l.src[0] for l in sim.links if l.dst[0] == me})
        self.peers = sorted(linked - {me})
        self.out: Dict[str, EffectFrame] = {}

    def begin_pass(self, pass_no: int) -> None:
        self.out = {peer: EffectFrame(self.me, pass_no)
                    for peer in self.peers}

    def is_local(self, partition: str) -> bool:
        return partition == self.me

    def deliver_remote(self, link, word: int, arrive_ns: float,
                       rx_ns: float) -> None:
        self.out[link.dst[0]].deliveries.append(
            (self._link_index[id(link)], link.dst, word,
             arrive_ns, rx_ns))

    def consumed(self, key: Tuple[str, str], ns: float) -> None:
        for feeder in self.dst_feeders.get(key, ()):
            if feeder != self.me:
                self.out[feeder].credits.append((key, ns))


class PartitionWorker:
    """Drives one partition to ``target_cycles`` inside its process."""

    def __init__(self, sim, name: str,
                 target_cycles: int, max_passes: int,
                 ctl, options: dict):
        """``ctl`` is this worker's end of its control socketpair;
        ``options`` its entry of
        :meth:`ProcessBackend._worker_options`."""
        self.sim = sim
        self.name = name
        self.part = sim.partitions[name]
        self.target_cycles = target_cycles
        self.max_passes = max_passes
        self.ctl = ctl
        self.heartbeat_s = options["heartbeat_s"]
        self.die: Optional[Tuple[str, int]] = options["die"]
        self.pass_no = 0

        self.router = Router(sim, name)
        sim.router = self.router
        self.peers = self.router.peers
        order = {part: i for i, part in enumerate(sim.partitions)}
        me_idx = order[name]
        by_order = sorted(self.peers, key=order.__getitem__)
        self.peers_before = [p for p in by_order if order[p] < me_idx]
        self.peers_after = [p for p in by_order if order[p] > me_idx]

        # data plane: one socket channel per linked peer, over the end
        # of the pair the coordinator made for us before forking.
        # Sockets signal peer death natively (EOF), so the channels
        # double as the peer-liveness watch.
        self.packer = options["packer"]
        self.channels: Dict[str, SocketChannel] = {}
        #: per peer, the frames received and not yet applied, in
        #: arrival (= pass) order
        self.inboxes: Dict[str, Deque[EffectFrame]] = {}
        self._wait_conns = [ctl]
        for peer in self.peers:
            chan = SocketChannel(options["ends"][peer], peer)
            self._wait_conns.append(chan)
            self.channels[peer] = chan
            self.inboxes[peer] = deque()
        #: individual effects (deliveries + credits) written — per-token
        #: messaging would pay one record each
        self.effects_sent = 0
        #: frames of passes begun short of the target (module docstring)
        self.messages_sent = 0

        #: pass number fence from the coordinator's stop broadcast:
        #: run the wavefront through this pass, then finalize (ensures
        #: every peer's effect-bearing frame has been applied)
        self._stop_fence: Optional[int] = None
        self._abort_reason: Optional[str] = None
        self._dead_peers = set()
        self._reports: List[Tuple[int, int, bool]] = []
        self._reported_reached = False
        self._tokens0 = sim.total_tokens
        self._dropped0 = sim.dropped_tokens

        # only the coordinator renders live status; the worker's
        # inherited copy must not race it on the same file
        if sim.telemetry.enabled:
            sim.telemetry.live = None
            sim.telemetry.target_cycles = max(
                sim.telemetry.target_cycles or 0, target_cycles)

        # a recording parent tracer is swapped for a fresh one so the
        # fragment ships only the events this run produced
        self._tracer: Optional[RecordingTracer] = None
        if sim.tracer.enabled:
            self._tracer = RecordingTracer(
                capacity=getattr(sim.tracer, "capacity", None))
            sim.tracer = self._tracer
            sim._trace = True
            sim._install_tracer()

        # this partition's pass loop: the router and tracer installed
        # above are part of the hook set, so the door rebuilds whatever
        # plane the fork inherited and prints this partition alone
        # (peers' passes arrive as frames)
        self.advance = sim._enter_plane()

    # -- plumbing ------------------------------------------------------------

    def frontier(self) -> int:
        return self.part.target_cycle

    def _flush_all(self) -> None:
        for peer, chan in self.channels.items():
            try:
                if not chan.closed:
                    chan.try_flush()
            except (BrokenPipeError, OSError):
                # the peer exited; it has already applied everything it
                # needed from us (a worker only finalizes past the stop
                # fence) or the run is aborting
                self._dead_peers.add(peer)
        self._flush_reports()

    def _send_ctl(self, msg) -> None:
        try:
            self.ctl.send(msg)
        except (BrokenPipeError, OSError):
            os._exit(3)

    def _drain(self, conn) -> None:
        if conn is not self.ctl:
            self._drain_socket(conn)
            return
        while True:
            try:
                if not conn.poll():
                    return
                msg = conn.recv()
            except (EOFError, OSError):
                os._exit(3)  # coordinator vanished: die quietly
            if msg[0] == "stop":
                self._stop_fence = msg[1]
            elif msg[0] == "abort":
                self._abort_reason = msg[1]

    def _raise_control(self) -> None:
        # a stop is NOT raised here: the fence must be honoured at a
        # pass boundary (we may be blocked mid-pass on a frame we still
        # have to apply); only aborts interrupt immediately
        if self._abort_reason is not None:
            raise _Abort(self._abort_reason)

    def _poll_control(self) -> None:
        self._drain(self.ctl)
        self._raise_control()

    def _drain_socket(self, chan: SocketChannel) -> None:
        peer = chan.peer
        inbox = self.inboxes[peer]
        for payload in chan.drain():
            inbox.append(self.packer.unpack(payload, peer))
        if chan.closed:
            self._dead_peers.add(peer)
            if chan in self._wait_conns:
                self._wait_conns.remove(chan)

    def _wait_until(self, pred) -> None:
        """Block until ``pred()`` — flushing first so peers never starve
        on our staged bytes, and heartbeating while idle."""
        last_beat = time.monotonic()
        while not pred():
            self._flush_all()
            ready = _conn_wait(self._wait_conns,
                               timeout=self.heartbeat_s)
            for conn in ready:
                self._drain(conn)
            now = time.monotonic()
            if not ready and now - last_beat >= self.heartbeat_s:
                self._send_ctl(("heartbeat", self.name,
                                self.pass_no, self.frontier()))
                last_beat = now
            self._raise_control()
            # a pass beyond the stop fence only moves empty frames (all
            # partitions are done), so it is safe — and necessary — to
            # finalize from inside it: the peer we are waiting on has
            # itself stopped at the fence
            if self._stop_fence is not None \
                    and self.pass_no > self._stop_fence:
                raise _Stop()

    # -- the wavefront -------------------------------------------------------

    def _apply_frame(self, peer: str, pass_no: int) -> None:
        if pass_no <= 0:
            return
        inbox = self.inboxes[peer]
        if not inbox:
            self._wait_until(lambda: inbox)
        frame = inbox.popleft()
        if frame.pass_no != pass_no:
            # bytes from outside this process: the stream is a FIFO and
            # the peer numbers its passes as we do, so anything but the
            # next pass means the two ends disagree about the schedule
            raise SimulationError(
                f"frame stream from {peer!r} to {self.name!r} out of "
                f"order: expected pass {pass_no}, got {frame.pass_no}")
        sim = self.sim
        for idx, _dst, word, arrive_ns, rx_ns in frame.deliveries:
            sim.apply_link_delivery(sim.links[idx], word,
                                    arrive_ns, rx_ns)
        for key, ns in frame.credits:
            sim._consume_times.setdefault(key, deque()).append(ns)

    def _own_pass(self) -> bool:
        # one pass of the serial loop, this partition's slot (sampling
        # check included); the wavefront invariant makes the
        # partition-local state here bit-identical to it.  A
        # partition already at its target runs no pass
        ran, progress = self.advance(self.target_cycles, 1)
        return ran == 1 and progress

    def _emit_frames(self, counted: bool) -> None:
        """Write this pass's frame to every live peer, one record each;
        the schedule has already drained the previous one (module
        docstring), so the write never queues behind it.  ``counted``:
        the pass began short of the target (``messages_sent``)."""
        for peer in self.peers:
            if peer not in self._dead_peers:
                frame = self.router.out[peer]
                self.effects_sent += (len(frame.deliveries)
                                      + len(frame.credits))
                self.messages_sent += counted
                try:
                    self.channels[peer].write(self.packer.pack(frame))
                except (BrokenPipeError, OSError):
                    self._dead_peers.add(peer)

    def _report(self, pass_no: int, progress: bool) -> None:
        reached = self.frontier() >= self.target_cycles
        self._reports.append((pass_no, self.frontier(), progress))
        if (len(self._reports) >= REPORT_BATCH
                or (not progress and not reached)
                or (reached and not self._reported_reached)):
            self._flush_reports()
            if reached:
                self._reported_reached = True

    def _flush_reports(self) -> None:
        if self._reports:
            self._send_ctl(("progress", self.name, self._reports,
                            self.part.busy_until))
            self._reports = []

    def _maybe_die(self, pass_no: int) -> None:
        if self.die is None or pass_no != self.die[1]:
            return
        mode = self.die[0]
        if mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == "raise":
            raise RuntimeError("injected worker fault (test)")
        elif mode == "hang":
            time.sleep(3600)

    def loop(self) -> None:
        """Run passes forever; exits via :class:`_Stop`/:class:`_Abort`
        (or an error).  The coordinator owns termination decisions —
        global completion, deadlock and crash conditions all need the
        view across every partition."""
        idle = 0
        while True:
            if self._stop_fence is not None \
                    and self.pass_no >= self._stop_fence:
                raise _Stop()
            self.pass_no += 1
            k = self.pass_no
            for peer in self.peers_after:
                self._apply_frame(peer, k - 1)
            for peer in self.peers_before:
                self._apply_frame(peer, k)
            self._poll_control()
            self._maybe_die(k)
            self.router.begin_pass(k)
            short = self.frontier() < self.target_cycles
            progress = self._own_pass()
            self._emit_frames(short)
            self._report(k, progress)
            # serial parity: the pass budget only binds while this
            # partition still has work (a finished worker's service
            # passes aren't passes the serial loop would have run)
            if (k > self.max_passes
                    and self.frontier() < self.target_cycles):
                raise SimulationError(
                    "co-simulation pass budget exhausted")
            if progress or self.frontier() >= self.target_cycles:
                idle = 0
            else:
                # likely deadlocked: keep serving frames and reporting,
                # but don't burn the host while the coordinator decides
                idle += 1
                if idle >= 2:
                    time.sleep(min(0.001 * idle, 0.02))

    # -- terminal payloads ---------------------------------------------------

    def fragment(self) -> dict:
        """Everything the coordinator needs to make the parent process's
        simulation object identical to a serial run's: the state this
        partition owns, plus what only a split run has."""
        sim = self.sim
        return {
            # telemetry included: the merge takes this partition's
            # series and instruments from here.  For a channel fed
            # from a peer process the consume-time queue is the full
            # append sequence (the feeder's worker trims its own copy
            # and owns the cursor); the merge recombines them
            "state": partition_state(sim, self.name),
            "total_delta": sim.total_tokens - self._tokens0,
            "dropped_delta": sim.dropped_tokens - self._dropped0,
            "tracer_events": (self._tracer.events
                              if self._tracer is not None else None),
            # observability echo: the corr id this worker's process
            # actually observed (diagnostics; never merged into state)
            "corr": current_corr_id(),
            # ... and this partition's step-plane compile verdict
            "jit": sim.last_jit_report[self.name],
            # wire accounting (benchmarks; never merged into sim state)
            "wire_stats": {
                "messages_sent": self.messages_sent,
                "effects_sent": self.effects_sent,
            },
        }

    def postmortem_payload(self) -> dict:
        part = self.part
        return {
            "partition": self.name,
            "frontier": part.target_cycle,
            "busy_until": part.busy_until,
            "stuck": [unit.stuck_detail() for _, unit in part.units],
            "channels": {
                (prefix + unit.name if prefix else unit.name):
                    unit.channel_state()
                for prefix, unit in part.units
            },
            "events": (self._tracer.recent(self.sim.postmortem_events)
                       if self._tracer is not None else []),
        }


def worker_main(sim, name, target_cycles, max_passes, options,
                ctl) -> None:
    """Entry point of a forked worker process, started by
    :func:`~repro.parallel.pool.start_child`, which has already parked
    every end that is not this worker's."""
    global IN_WORKER
    IN_WORKER = True
    # adopt the request's correlation id: visible to anything this
    # worker execs, and echoed home in the result fragment
    if sim.corr_id:
        propagate_corr_id(sim.corr_id)
    worker = None
    try:
        worker = PartitionWorker(sim, name, target_cycles, max_passes,
                                 ctl, options)
        worker.loop()
    except _Stop:
        worker._flush_all()
        worker._send_ctl(("done", worker.fragment()))
    except _Abort as abort:
        if abort.reason == "deadlock":
            worker._send_ctl(("postmortem", worker.postmortem_payload()))
    except Exception as exc:  # noqa: BLE001 — everything must be reported
        import traceback
        tail = traceback.format_exc(limit=-3)
        try:
            ctl.send(("failed", name, *error_report(
                exc, f"{exc}\n{tail}".rstrip())))
        except (BrokenPipeError, OSError):
            pass
        os._exit(1)
    os._exit(0)
