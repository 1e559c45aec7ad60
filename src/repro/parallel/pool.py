"""The one way to start a child, and the two ways to use it.

:func:`start_child` is the only place ``parallel`` forks, under one
rule: the child keeps the ends it is handed (``mine``) and parks every
other inherited socket on ``/dev/null``, and the parent closes its
copies of ``mine`` once the start succeeds or is refused — so a death
is an EOF on exactly the child's own ends.  Pipes are not parked: a
stray read end never delays an EOF, and the parent closes each write
end it hands out before it forks again.  The child also freezes its
inherited heap, so collections leave those pages shared.
:func:`reap` and :func:`exit_reason` are every child's one teardown
and one wording of a death.

Built on it: the coordinator's partition workers
(:func:`~repro.parallel.coordinator.fork_workers`); :func:`fork_call`,
one thunk in one child whose value or
:func:`~repro.errors.error_report` comes back over a pipe (the service
runs every job through it; the child keeps the backend
auto-selection, so a job can fork its own workers); and
:func:`fanout`, a window of ``fork_call`` children over independent
experiments, each with ``worker.IN_WORKER`` set so it runs
in-process.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import signal
import stat
import time
from multiprocessing.connection import wait as conn_wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import (BackendUnavailableError, WorkerError, error_report,
                      rebuild_error)
from . import worker as _worker_mod
from .worker import close_all


def fork_available() -> bool:
    return "fork" in mp.get_all_start_methods()


def _child_main(keep, target, args) -> None:
    """Park every inherited socket whose fd is not in ``keep``
    (listeners, client connections, an event loop's self-pipe, other
    children's ends) on ``/dev/null`` — the fd number stays taken, so a
    parent object that still names it can never close a new file —
    freeze the inherited heap, then run ``target(*args)``."""
    try:
        fds = [int(fd) for fd in os.listdir("/proc/self/fd")]
    except OSError:
        fds = []
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        try:
            if fd > 2 and fd not in keep \
                    and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
        except OSError:
            pass
    os.close(devnull)
    # a collection writes to every object it traverses; frozen, the
    # inherited heap is never traversed and its pages stay shared
    gc.freeze()
    target(*args)


def start_child(target: Callable, args: tuple, label: str, name: str,
                mine: Iterable, daemon: bool = False):
    """Fork a child running ``target(*args)`` under the one rule (see
    the module docstring) and return its started process.  ``mine`` is
    the ends the child keeps; the parent's copies are closed here.  A
    fork the host refuses raises :class:`~repro.errors.WorkerError`
    (``spawn-failed``) naming ``label``."""
    mine = list(mine)
    proc = mp.get_context("fork").Process(
        target=_child_main,
        args=({end.fileno() for end in mine}, target, args),
        name=name, daemon=daemon)
    try:
        proc.start()
    except OSError as exc:  # fork refused: EAGAIN, ENOMEM
        raise WorkerError(label, "spawn-failed",
                          f"cannot start the child: {exc}") from exc
    finally:
        close_all(mine)
    return proc


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


def exit_reason(exitcode: Optional[int]) -> str:
    """How a child exited, in the one wording every verdict uses:
    ``killed by SIGKILL`` or ``exited with code N``."""
    if exitcode is None or exitcode >= 0:
        return f"exited with code {exitcode}"
    try:
        return f"killed by {signal.Signals(-exitcode).name}"
    except ValueError:
        return f"killed by signal {-exitcode}"


def _call_child(thunk, send_conn) -> None:
    """Send ``(True, value)``, or ``(False, *error_report)`` if the
    thunk raised (or its value does not pickle)."""
    try:
        send_conn.send((True, thunk()))
    except BaseException as exc:  # noqa: BLE001 — shipped to parent
        try:
            send_conn.send((False, *error_report(exc)))
        except (BrokenPipeError, OSError):
            os._exit(1)
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
            raise WorkerError(self.label, "died", exit_reason(
                self.proc.exitcode) + " before reporting") from None
        finally:
            self._reported = True
        if msg[0]:
            return msg[1]
        raise rebuild_error(self.label, *msg[1:])

    def close(self) -> None:
        """Reap the child — an unreported one with :func:`reap`; once
        :meth:`result` was read it is only exiting — and close its
        ends."""
        if not self._reported:
            reap([self.proc])
        self.proc.join()
        close_all((self.conn, self.proc))


def fork_call(thunk: Callable[[], object], label: str) -> ForkedCall:
    """Start ``thunk`` in a forked child and return at once.  The child
    keeps only the write end of its result pipe; a refused fork raises
    :class:`~repro.errors.WorkerError` (``spawn-failed``)."""
    if not fork_available():
        raise BackendUnavailableError(
            "running a call in a forked child needs fork")
    recv_conn, send_conn = mp.get_context("fork").Pipe(duplex=False)
    try:
        proc = start_child(_call_child, (thunk, send_conn), label,
                           f"repro-call-{label}", [send_conn])
    except WorkerError:
        recv_conn.close()
        raise
    return ForkedCall(proc, recv_conn, label)


def _in_worker(thunk):
    _worker_mod.IN_WORKER = True
    return thunk()


def fanout(thunks: Sequence[Callable[[], object]], jobs: int,
           labels: Optional[Sequence[str]] = None) -> List[object]:
    """Run every thunk, at most ``jobs`` concurrently, returning their
    results in input order.

    ``jobs <= 1`` (or a single task, or a platform without ``fork``, or
    already being inside a parallel worker) degrades to a plain
    sequential loop — identical behaviour, no processes.  Otherwise
    each task is one :func:`fork_call` child; the first task to fail
    (raise, die, or not start) raises in the parent after every running
    child is reaped.
    """
    thunks = list(thunks)
    labels = list(labels) if labels is not None \
        else [f"task-{i}" for i in range(len(thunks))]
    if jobs is None or jobs <= 1 or len(thunks) <= 1 \
            or not fork_available() or _worker_mod.IN_WORKER:
        return [thunk() for thunk in thunks]
    results: Dict[int, object] = {}
    running: Dict[int, ForkedCall] = {}

    def collect() -> None:
        ready = conn_wait([call.conn for call in running.values()])
        for i, call in list(running.items()):
            if call.conn in ready:
                results[i] = call.result()
                del running[i]
                call.close()

    try:
        for i, thunk in enumerate(thunks):
            if len(running) == jobs:
                collect()
            running[i] = fork_call(lambda t=thunk: _in_worker(t),
                                   labels[i])
        while running:
            collect()
    finally:
        for call in running.values():
            call.close()
    return [results[i] for i in range(len(thunks))]
