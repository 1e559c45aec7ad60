"""Experiment-level fan-out: run independent sweep points in a bounded
pool of forked workers.

This is deliberately simpler than the per-partition backend in
``coordinator``: sweep points share nothing, so there is no token
protocol — just a queue of task indices (the closures themselves are
inherited by ``fork``, so nothing needs pickling except each task's
return value) drained by ``jobs`` child processes.

Children run with the backend auto-selection disabled
(``worker.IN_WORKER``): when the caller parallelizes at the experiment
level, each point runs in-process — two layers of forking would
oversubscribe the host and daemonic children cannot fork again anyway.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Callable, List, Optional, Sequence

from ..errors import WorkerError, error_report, rebuild_error
from . import worker as _worker_mod
from .coordinator import fork_available


def _pool_child(thunks, queue, send_conn) -> None:
    _worker_mod.IN_WORKER = True
    while True:
        idx = queue.get()
        if idx is None:
            break
        try:
            send_conn.send((idx, True, thunks[idx]()))
        except BaseException as exc:  # noqa: BLE001 — shipped to parent
            try:
                send_conn.send((idx, False, *error_report(exc)))
            except (BrokenPipeError, OSError):
                os._exit(1)
    send_conn.close()
    os._exit(0)


def fanout(thunks: Sequence[Callable[[], object]], jobs: int,
           labels: Optional[Sequence[str]] = None) -> List[object]:
    """Run every thunk, at most ``jobs`` concurrently, returning their
    results in input order.

    ``jobs <= 1`` (or a single task, or a platform without ``fork``, or
    already being inside a parallel worker) degrades to a plain
    sequential loop — identical behaviour, no processes.  The first
    failing task's exception is re-raised in the parent after the pool
    has been torn down.
    """
    thunks = list(thunks)
    labels = list(labels) if labels is not None \
        else [f"task-{i}" for i in range(len(thunks))]
    if jobs is None or jobs <= 1 or len(thunks) <= 1 \
            or not fork_available() or _worker_mod.IN_WORKER:
        return [thunk() for thunk in thunks]
    jobs = min(jobs, len(thunks))
    ctx = mp.get_context("fork")
    queue = ctx.SimpleQueue()
    for i in range(len(thunks)):
        queue.put(i)
    for _ in range(jobs):
        queue.put(None)
    procs = []
    conns = []
    try:
        for _ in range(jobs):
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_pool_child,
                               args=(thunks, queue, send_conn),
                               daemon=True)
            proc.start()
            send_conn.close()
            procs.append(proc)
            conns.append(recv_conn)
        results: dict = {}
        first_error = None
        open_conns = list(conns)
        while open_conns:
            from multiprocessing.connection import wait as conn_wait
            for conn in conn_wait(open_conns):
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    open_conns.remove(conn)
                    continue
                if msg[1]:
                    results[msg[0]] = msg[2]
                elif first_error is None:
                    first_error = rebuild_error(labels[msg[0]], *msg[2:])
        if first_error is not None:
            raise first_error
        missing = [i for i in range(len(thunks)) if i not in results]
        if missing:
            raise WorkerError(
                labels[missing[0]], "died",
                "pool worker exited before finishing "
                f"{len(missing)} task(s)")
        return [results[i] for i in range(len(thunks))]
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(5.0)
        _worker_mod.close_all(conns)
        queue.close()
