"""Virtual-host deployment: one agent process per simulated host.

A farm run is a two-level process tree.  The manager
(:class:`~repro.farm.manager.FarmBackend`) forks one *host agent* per
placed host — the software stand-in for a run-farm machine — and each
agent forks one partition worker per partition placed on its host.
Because the agent is a real OS process, killing it takes every one of
its workers down exactly the way a machine loss would: workers see
their control pipe EOF and exit, peers on other hosts see their
sockets close, and the manager sees the agent's sentinel fire.

Workers exchange frames over the process backend's stream sockets,
same host or not (the manager binds the rendezvous before forking the
agents).  The agent itself is a pure relay:

* worker -> manager: every control message forwards as
  ``("w", partition, msg)``; a worker death as
  ``("dead", partition, exitcode)``.
* manager -> workers: ``("stop", fence)`` / ``("abort", reason)``
  broadcast down unchanged; ``("ping", seq)`` answers with
  ``("pong", seq)`` (the manager's host-liveness probe);
  ``("shutdown",)`` ends the relay loop after a completed run.

Fault injection for tests/demos: ``die_at_pass`` makes the agent
``SIGKILL`` itself the moment any of its workers reports reaching that
wavefront pass — a whole-host loss mid-run.
"""

from __future__ import annotations

import os
import signal
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List

from ..obsplane.corr import propagate_corr_id
from ..obsplane.log import get_logger, log_record
from ..parallel.worker import worker_main


def host_agent_main(sim, host: str, parts: List[str], order,
                    target_cycles: int, max_passes: int,
                    ctl_recv, ctl_send, unrelated_conns,
                    options: Dict[str, dict]) -> None:
    """Entry point of a forked host agent.

    Args:
        host: this virtual host's name.
        parts: partitions placed here (each gets one worker).
        ctl_recv / ctl_send: the manager-facing control pipe ends.
        unrelated_conns: other agents' pipe ends to close (fork
            hygiene — EOF propagation needs every stray copy closed).
        options: per-partition worker option dicts; the agent-level
            keys ride in ``options["__agent__"]`` (``die_at_pass``).
    """
    import multiprocessing as mp
    ctx = mp.get_context("fork")
    for conn in unrelated_conns:
        try:
            conn.close()
        except OSError:
            pass
    agent_options = options.get("__agent__", {})
    die_at_pass = agent_options.get("die_at_pass")
    # adopt the request's correlation id before forking workers: they
    # inherit the environment, and anything this agent logs carries it
    corr_id = agent_options.get("corr_id", "")
    if corr_id:
        propagate_corr_id(corr_id)
    log_record(get_logger("repro.farm.agent"), "agent_start",
               corr=corr_id, host=host, parts=",".join(parts))

    own_conns: List = []
    up: Dict[str, tuple] = {}
    down: Dict[str, tuple] = {}
    for part in parts:
        up[part] = ctx.Pipe(duplex=False)
        down[part] = ctx.Pipe(duplex=False)
        own_conns.extend(up[part])
        own_conns.extend(down[part])

    procs: Dict[str, mp.Process] = {}
    for part in parts:
        keep = {id(down[part][0]), id(up[part][1])}
        stray = [c for c in own_conns if id(c) not in keep]
        procs[part] = ctx.Process(
            target=worker_main,
            args=(sim, part, order, target_cycles, max_passes,
                  down[part][0], up[part][1], stray, options[part]),
            name=f"repro-worker-{part}", daemon=True)
    for proc in procs.values():
        proc.start()
    events = getattr(sim, "events", None)
    if events is not None and events.enabled:
        for part, proc in procs.items():
            events.emit("worker_spawn", corr=corr_id, part=part,
                        host=host, worker_pid=proc.pid,
                        backend="farm")
    for part in parts:
        down[part][0].close()
        up[part][1].close()
    # every rendezvous listener was inherited across two forks; the
    # workers own their copies now, the agent's are strays (all the
    # per-partition plans share one listener map)
    plan0 = options[parts[0]].get("socket") if parts else None
    for sock in (plan0 or {}).get("listeners", {}).values():
        try:
            sock.close()
        except OSError:
            pass

    wrecv = {up[part][0]: part for part in parts}
    wsend = {part: down[part][1] for part in parts}
    sentinels = {procs[part].sentinel: part for part in parts}
    dead = set()

    def forward_down(msg) -> None:
        for part, conn in wsend.items():
            if part in dead:
                continue
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                pass

    def send_up(msg) -> None:
        try:
            ctl_send.send(msg)
        except (BrokenPipeError, OSError):
            os._exit(3)  # manager vanished

    while True:
        waitables = [ctl_recv]
        waitables += [c for c, p in wrecv.items() if p not in dead]
        waitables += [s for s, p in sentinels.items() if p not in dead]
        for item in _conn_wait(waitables):
            if item in sentinels:
                part = sentinels[item]
                procs[part].join(1.0)
                # flush any parting messages before reporting the death
                conn = up[part][0]
                _relay_all(conn, part, send_up, die_at_pass)
                dead.add(part)
                if events is not None and events.enabled:
                    events.emit("worker_exit", corr=corr_id,
                                part=part, host=host,
                                worker_pid=procs[part].pid,
                                exitcode=procs[part].exitcode)
                send_up(("dead", part, procs[part].exitcode))
            elif item is ctl_recv:
                try:
                    if not ctl_recv.poll():
                        continue
                    msg = ctl_recv.recv()
                except (EOFError, OSError):
                    os._exit(3)  # manager vanished; workers follow suit
                kind = msg[0]
                if kind in ("stop", "abort"):
                    forward_down(msg)
                elif kind == "ping":
                    send_up(("pong", msg[1]))
                elif kind == "shutdown":
                    os._exit(0)
            else:
                part = wrecv[item]
                if not _relay_all(item, part, send_up, die_at_pass):
                    dead.add(part)
                    send_up(("dead", part, None))


def _relay_all(conn, part: str, send_up, die_at_pass) -> bool:
    """Forward every pending message of one worker; False on EOF.
    Fires the injected host fault when a progress report crosses the
    trigger pass."""
    while True:
        try:
            if not conn.poll():
                return True
            msg = conn.recv()
        except (EOFError, OSError):
            return False
        if die_at_pass is not None and msg[0] == "progress" \
                and any(entry[0] >= die_at_pass for entry in msg[2]):
            os.kill(os.getpid(), signal.SIGKILL)
        send_up(("w", part, msg))
