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

:func:`fork_call` runs one thunk in one forked child the same way —
value or :func:`~repro.errors.error_report` back over a pipe — for
callers that wait on it themselves (the service runs every executed
job through it).  That child is not daemonic and keeps the backend
auto-selection, so a job can fork its own partition workers.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import signal
import stat
from typing import Callable, List, Optional, Sequence

from ..errors import (BackendUnavailableError, WorkerError, error_report,
                      rebuild_error)
from . import worker as _worker_mod
from .coordinator import fork_available
from .worker import close_all


def _ship(send_conn, tag, thunk) -> None:
    """Run ``thunk`` in a child and send ``(tag, True, value)``, or
    ``(tag, False, *error_report)`` if it raised (or its value does not
    pickle)."""
    try:
        send_conn.send((tag, True, thunk()))
    except BaseException as exc:  # noqa: BLE001 — shipped to parent
        try:
            send_conn.send((tag, False, *error_report(exc)))
        except (BrokenPipeError, OSError):
            os._exit(1)


def _pool_child(thunks, queue, send_conn) -> None:
    _worker_mod.IN_WORKER = True
    while True:
        idx = queue.get()
        if idx is None:
            break
        _ship(send_conn, idx, thunks[idx])
    send_conn.close()
    os._exit(0)


def _park_inherited_sockets() -> None:
    """Drop every socket a child inherited (listeners, client
    connections, an event loop's self-pipe): none is the child's, and
    holding one keeps it alive for its peer.  Each is replaced by
    ``/dev/null`` rather than closed, so the fd number stays taken and
    a parent object that still names it can never close a new file."""
    try:
        fds = [int(fd) for fd in os.listdir("/proc/self/fd")]
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in fds:
            try:
                if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass
    finally:
        os.close(devnull)


def _call_child(thunk, send_conn, unrelated_conns) -> None:
    close_all(unrelated_conns)
    _park_inherited_sockets()
    # a collection writes to every object it traverses; frozen, the
    # inherited heap is never traversed and its pages stay shared
    gc.freeze()
    _ship(send_conn, None, thunk)
    send_conn.close()


class ForkedCall:
    """One thunk running in its own forked child (:func:`fork_call`):
    the process and the read end its one message arrives on (readable
    once the message is in, or the child died)."""

    def __init__(self, proc, conn, label: str):
        self.proc = proc
        self.conn = conn
        self.label = label
        self._reported = False

    def result(self):
        """The thunk's value, or the error it raised rebuilt typed; a
        child that died without reporting is a
        :class:`~repro.errors.WorkerError` naming how it exited."""
        try:
            msg = self.conn.recv()
        except (EOFError, OSError):
            self.proc.join()
            code = self.proc.exitcode
            how = (f"killed by {signal.Signals(-code).name}"
                   if code is not None and code < 0
                   else f"exited with code {code}")
            raise WorkerError(self.label, "died",
                              f"{how} before reporting") from None
        finally:
            self._reported = True
        if msg[1]:
            return msg[2]
        raise rebuild_error(self.label, *msg[2:])

    def close(self) -> None:
        """Reap the child — killed first unless :meth:`result` was
        read, after which it is only exiting — and close its ends."""
        if not self._reported and self.proc.is_alive():
            self.proc.kill()
        self.proc.join()
        close_all((self.conn, self.proc))


def fork_call(thunk: Callable[[], object], label: str,
              unrelated_conns: Sequence = ()) -> ForkedCall:
    """Start ``thunk`` in a forked child and return at once.

    The child applies the rule of
    :func:`~repro.parallel.coordinator.fork_workers`: it closes
    ``unrelated_conns`` (ends the caller holds for other children) and
    every socket it inherited, so its death is an EOF on exactly its
    own pipe.  A fork the host refuses raises
    :class:`~repro.errors.WorkerError` (``spawn-failed``).
    """
    if not fork_available():
        raise BackendUnavailableError(
            "running a call in a forked child needs fork")
    ctx = mp.get_context("fork")
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_call_child,
                       args=(thunk, send_conn, list(unrelated_conns)),
                       name=f"repro-call-{label}")
    try:
        proc.start()
    except OSError as exc:  # fork refused: EAGAIN, ENOMEM
        recv_conn.close()
        raise WorkerError(label, "spawn-failed",
                          f"cannot start the child: {exc}") from exc
    finally:
        send_conn.close()
    return ForkedCall(proc, recv_conn, label)


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
        close_all(conns)
        queue.close()
