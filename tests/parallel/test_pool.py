"""Experiment-level fan-out pool."""

import multiprocessing.connection
import os
import signal

import pytest

from repro.errors import DeadlockError, WorkerError
from repro.parallel import fanout, fork_available
from repro.parallel import pool as pool_mod
from repro.parallel.pool import fork_call


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


class TestRunnerJobs:
    def test_runner_accepts_jobs_flag(self, capsys):
        from repro.experiments.runner import main
        rc = main(["table1", "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table1" in out

    def test_cli_experiments_subcommand_delegates(self, capsys):
        from repro.cli import main
        rc = main(["experiments", "table1", "--jobs", "2"])
        assert rc == 0
        assert "table1" in capsys.readouterr().out
