"""Virtual-host deployment: one agent process per simulated host.

A farm run is a two-level process tree.  The manager
(:class:`~repro.farm.manager.FarmBackend`) forks one *host agent* per
placed host — the software stand-in for a run-farm machine — and each
agent forks one partition worker per partition placed on its host.
Because the agent is a real OS process, killing it takes every one of
its workers down exactly the way a machine loss would: workers see
their control pipe EOF and exit, peers on other hosts see their
sockets close, and the manager sees the agent's sentinel fire.

Workers exchange frames over the process backend's stream-socket
pairs, same host or not: the manager makes every pair before forking
the agents, each agent keeps its own workers' ends, hands them on when
it forks the workers and then closes its copies.  The agent itself is
a pure relay:

* worker -> manager: every ``(partition, message)`` envelope forwards
  unchanged; a worker death as ``(partition, ("dead", exitcode))``.
* manager -> workers: ``("stop", fence)`` / ``("abort", reason)``
  broadcast down unchanged; ``("ping",)`` answers with
  ``(None, ("pong",))`` (the manager's host-liveness probe).

The relay loop ends when the manager reaps the agent (``SIGTERM``: the
agent kills whatever worker is still alive, then exits) or vanishes
(control-pipe EOF).

Fault injection for tests/demos: ``die_at_pass`` makes the agent
``SIGKILL`` itself the moment any of its workers reports reaching that
wavefront pass — a whole-host loss mid-run.
"""

from __future__ import annotations

import os
import signal
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, Optional

from ..observability.corr import propagate_corr_id
from ..parallel.coordinator import (broadcast, emit_event,
                                    fork_workers)
from ..parallel.worker import close_all


def host_agent_main(sim, host: str, target_cycles: int,
                    max_passes: int, options: Dict[str, dict],
                    die_at_pass: Optional[int],
                    ctl_recv, ctl_send, unrelated_conns) -> None:
    """Entry point of a forked host agent.

    Args:
        host: this virtual host's name.
        options: ``worker_main`` option dict per partition placed here
            (each gets one worker, with its data-plane ends).
        die_at_pass: injected whole-host fault trigger, or None.
        ctl_recv / ctl_send: the manager-facing control pipe ends.
        unrelated_conns: other agents' pipe and socket ends to close
            (fork hygiene — EOF propagation needs every stray copy
            closed).
    """
    close_all(unrelated_conns)
    # adopt the request's correlation id before forking workers: they
    # inherit the environment
    if sim.corr_id:
        propagate_corr_id(sim.corr_id)

    workers = fork_workers(sim, options, target_cycles, max_passes,
                           host=host, backend="farm")

    def shutdown(signum, frame) -> None:
        # the manager's reap: a worker still alive now is hung (the
        # others left on a stop/abort or follow the control-pipe EOF)
        for worker in workers:
            if worker.proc.is_alive():
                worker.proc.kill()
        os._exit(0)

    signal.signal(signal.SIGTERM, shutdown)

    watched = {}
    for worker in workers:
        watched[worker.recv] = watched[worker.proc.sentinel] = worker

    def send_up(envelope) -> None:
        try:
            ctl_send.send(envelope)
        except (BrokenPipeError, OSError):
            os._exit(3)  # manager vanished

    def relay(worker) -> bool:
        """Forward every pending envelope of one worker; False on EOF.
        Fires the injected host fault when a progress report crosses
        the trigger pass."""
        while True:
            try:
                if not worker.recv.poll():
                    return True
                envelope = worker.recv.recv()
            except (EOFError, OSError):
                return False
            msg = envelope[1]
            if die_at_pass is not None and msg[0] == "progress" \
                    and any(entry[0] >= die_at_pass for entry in msg[2]):
                os.kill(os.getpid(), signal.SIGKILL)
            send_up(envelope)

    while True:
        waitables = [ctl_recv]
        waitables += [item for item, worker in watched.items()
                      if not worker.dead]
        for item in _conn_wait(waitables):
            if item is ctl_recv:
                try:
                    if not ctl_recv.poll():
                        continue
                    msg = ctl_recv.recv()
                except (EOFError, OSError):
                    os._exit(3)  # manager vanished; workers follow suit
                if msg[0] in ("stop", "abort"):
                    broadcast(workers, msg)
                elif msg[0] == "ping":
                    send_up((None, ("pong",)))
                continue
            worker = watched[item]
            if item is worker.recv:
                if not relay(worker):
                    del watched[item]  # EOF; the sentinel reports it
                continue
            # the sentinel: reap, flush any parting messages, then
            # report the death
            worker.proc.join(1.0)
            relay(worker)
            worker.dead = True
            emit_event(sim, "worker_exit", **worker.fields,
                       exitcode=worker.proc.exitcode)
            send_up((worker.name, ("dead", worker.proc.exitcode)))
