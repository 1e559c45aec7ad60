"""The one spawner and what is built on it: ``fork_call`` and the
experiment-level ``fanout``."""

import json
import multiprocessing as mp
import multiprocessing.connection
import os
import signal
import socket
import stat
from multiprocessing.process import BaseProcess

import pytest

from repro.errors import DeadlockError, WorkerError
from repro.parallel import fanout, fork_available
from repro.parallel import pool as pool_mod
from repro.parallel.pool import fork_call, start_child

from ..farm.test_leaks import _fds


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _raise():
    raise ValueError("bad sweep point")


def _refuse_second_start(monkeypatch):
    real_start = BaseProcess.start
    started = []

    def start(proc):
        if started:
            raise OSError("fork refused")
        real_start(proc)
        started.append(proc)

    monkeypatch.setattr(BaseProcess, "start", start)


class TestFanout:
    def test_results_in_input_order(self):
        thunks = [lambda i=i: i * i for i in range(7)]
        assert fanout(thunks, jobs=3) == [i * i for i in range(7)]

    def test_jobs_one_is_sequential(self):
        pids = []
        fanout([lambda: pids.append(os.getpid()) or 0] * 3, jobs=1)
        # ran in this process: the side effect is visible here
        assert pids == [os.getpid()] * 3

    def test_worker_error_rebuilt_with_task_label(self):
        def boom():
            raise ValueError("bad sweep point")
        with pytest.raises(WorkerError) as err:
            fanout([lambda: 1, boom, lambda: 3], jobs=2,
                   labels=["a", "b", "c"])
        assert err.value.partition == "b"
        assert "ValueError" in str(err.value)
        assert "bad sweep point" in str(err.value)

    def test_repro_errors_survive_the_fork_boundary(self):
        def sim_fails():
            raise DeadlockError("left waits on right", host_cycle=3)
        with pytest.raises(DeadlockError, match="waits on"):
            fanout([sim_fails, lambda: 2], jobs=2)

    def test_dead_pool_worker_is_reported(self):
        def die():
            os._exit(17)
        with pytest.raises(WorkerError, match="died|exited"):
            fanout([die, lambda: 2], jobs=2)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    @pytest.mark.parametrize("second, error, match", [
        (lambda: 2, None, None),
        (_raise, WorkerError, "bad sweep point"),
        (_kill_self, WorkerError, "killed by SIGKILL"),
        ("refused", WorkerError, "spawn-failed.*fork refused"),
    ], ids=["ok", "raises", "sigkill", "refused-start"])
    def test_every_outcome_leaves_nothing(self, monkeypatch, second,
                                          error, match):
        """Whatever the second task does — return, raise, die, or
        never start — the result or the error names it, and no fd and
        no child outlives the call."""
        if second == "refused":
            _refuse_second_start(monkeypatch)
            second = lambda: 2  # noqa: E731
        before = _fds()
        thunks = [lambda: 1, second, lambda: 3]
        if error is None:
            assert fanout(thunks, jobs=2) == [1, 2, 3]
        else:
            with pytest.raises(error, match=match) as err:
                fanout(thunks, jobs=2, labels=["a", "b", "c"])
            assert err.value.partition == "b"
        assert _fds() == before
        assert mp.active_children() == []

    def test_nested_fanout_degrades_to_sequential(self, monkeypatch):
        from repro.parallel import worker as worker_mod
        monkeypatch.setattr(worker_mod, "IN_WORKER", True)
        pid = os.getpid()
        pids = fanout([os.getpid, os.getpid], jobs=2)
        assert pids == [pid, pid]


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestForkCall:
    def run(self, thunk):
        call = fork_call(thunk, "task")
        try:
            multiprocessing.connection.wait([call.conn], timeout=30)
            return call.result()
        finally:
            call.close()

    def test_value_comes_from_a_child(self):
        assert self.run(os.getpid) != os.getpid()

    def test_typed_error_reads_as_the_childs(self):
        raised = DeadlockError("left waits on right", host_cycle=3)

        def sim_fails():
            raise raised
        with pytest.raises(DeadlockError) as err:
            self.run(sim_fails)
        assert str(err.value) == str(raised)

    def test_killed_child_names_the_signal(self):
        def die():
            os.kill(os.getpid(), signal.SIGKILL)
        with pytest.raises(WorkerError, match="killed by SIGKILL") as err:
            self.run(die)
        assert (err.value.partition, err.value.reason) == ("task", "died")


@pytest.mark.skipif(not fork_available(), reason="needs fork")
class TestStartChild:
    def test_child_keeps_only_its_own_socket(self):
        """The one rule: a child started with ``mine=[a]`` holds no
        other live socket, so the parent closing its copy of an
        unrelated pair gives the peer EOF while the child lives."""
        a, b = socket.socketpair()
        left, right = socket.socketpair()
        listener = socket.create_server(("127.0.0.1", 0))
        mine_fd = a.fileno()

        def report(conn):
            live = []
            for fd in map(int, os.listdir("/proc/self/fd")):
                try:
                    if stat.S_ISSOCK(os.fstat(fd).st_mode):
                        live.append(fd)
                except OSError:
                    pass
            conn.sendall(json.dumps(live).encode() + b"\n")
            conn.recv(1)  # live until the parent says go

        proc = start_child(report, (a,), "probe", "repro-probe", [a])
        try:
            assert a.fileno() == -1  # the parent's copy is closed
            with b.makefile() as lines:
                assert json.loads(lines.readline()) == [mine_fd]
            left.close()
            assert right.recv(1) == b""
            assert proc.is_alive()
            b.sendall(b"x")
        finally:
            for end in (b, right, listener):
                end.close()
            proc.join(30)
            pool_mod.reap([proc])
        assert proc.exitcode == 0
        proc.close()


class TestRunnerJobs:
    def test_runner_accepts_jobs_flag(self, capsys):
        from repro.experiments.runner import main
        rc = main(["table1", "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table1" in out

    def test_two_experiments_run_forked_and_print_in_order(self,
                                                           capsys):
        from repro.experiments.runner import main
        assert main(["table", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert 0 <= out.index("\ntable1\n") < out.index("\ntable2\n")
        assert "[table1: " in out and "[table2: " in out

    def test_cli_experiments_subcommand_delegates(self, capsys):
        from repro.cli import main
        rc = main(["experiments", "table1", "--jobs", "2"])
        assert rc == 0
        assert "table1" in capsys.readouterr().out
