"""Nothing outlives a distributed run and every worker's exit is on
record: each worker the event log saw spawned — the farm's too, all
direct children of the caller — is gone within the heartbeat timeout
and has exactly one ``worker_exit`` naming its partition, and the
parent holds exactly the file descriptors it held before (pipe ends,
data-plane socket pairs and process sentinels included), whether the
run succeeded, failed, or never got its children forked."""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import socket
import time
from multiprocessing.process import BaseProcess

import pytest

from repro.errors import HostDeadError, SocketSetupError, WorkerError
from repro.observability import EventLog, mint_corr_id, read_events
from repro.parallel import ProcessBackend, fork_available

from ..parallel.conftest import build_star_sim, farm_backend

HEARTBEAT_S = 5.0

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs fork")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    # a zombie has exited; it only awaits reaping by whoever adopted it
    return state != "Z"


def _fds() -> set:
    return set(os.listdir("/proc/self/fd"))


def _run_leaves_nothing(make_backend, faults, error, reason, tmp_path):
    sim = build_star_sim(2)
    sim.corr_id = mint_corr_id()
    backend = make_backend(heartbeat_timeout=HEARTBEAT_S, **faults)
    before = _fds()
    sim.events = EventLog(tmp_path / "ev.jsonl")
    if error is None:
        backend.run(sim, 300)
    else:
        with pytest.raises(error) as err:
            backend.run(sim, 300)
        # exactly that type: a hung or killed farm worker is not a
        # lost host
        assert type(err.value) is error
        assert err.value.reason == reason
    sim.events.close()
    assert _fds() == before

    events = list(read_events(tmp_path / "ev.jsonl", corr=sim.corr_id,
                              kinds=["worker_spawn", "worker_exit"]))
    spawned = {e.args["worker_pid"]: e.part for e in events
               if e.kind == "worker_spawn"}
    exits = [e for e in events if e.kind == "worker_exit"]
    assert sorted(spawned.values()) == sorted(sim.partitions)
    # one exit record per spawn, matched by pid, naming its partition
    assert sorted(e.args["worker_pid"] for e in exits) == sorted(spawned)
    assert all(e.part == spawned[e.args["worker_pid"]] for e in exits)
    for host in faults.get("host_faults", {}):
        codes = [e.args["exitcode"] for e in exits
                 if e.args.get("host") == host]
        assert codes and set(codes) == {-signal.SIGKILL}

    deadline = time.monotonic() + HEARTBEAT_S
    survivors = list(spawned)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = [pid for pid in survivors if _alive(pid)]
    assert survivors == []
    assert mp.active_children() == []


@pytest.mark.parametrize("make_backend, faults, error, reason", [
    (farm_backend, {"host_faults": {"h1": 5}}, HostDeadError, "died"),
    (farm_backend, {"worker_faults": {"fpga1": ("kill", 4)}},
     WorkerError, "died"),
    (farm_backend, {"worker_faults": {"fpga1": ("hang", 4)}},
     WorkerError, "heartbeat-timeout"),
    (ProcessBackend, {"worker_faults": {"fpga1": ("kill", 4)}},
     WorkerError, "died"),
], ids=["farm-host-kill", "farm-worker-kill", "farm-worker-hang",
        "process-worker-kill"])
def test_failed_run_leaves_no_process_or_socket_dir(
        make_backend, faults, error, reason, tmp_path):
    _run_leaves_nothing(make_backend, faults, error, reason, tmp_path)


@pytest.mark.parametrize("make_backend", [farm_backend, ProcessBackend],
                         ids=["farm", "process"])
def test_successful_run_leaves_no_process_or_fd(make_backend, tmp_path):
    _run_leaves_nothing(make_backend, {}, None, None, tmp_path)


def test_failed_spawn_reaps_started_children_and_closes_pairs(
        monkeypatch):
    """The second worker's ``Process.start`` raises after the pairs
    and pipes exist and the first worker runs: the error is typed, the
    first worker is reaped, and every fd is closed."""
    real_start = BaseProcess.start
    started = []

    def start(proc):
        if started:
            raise OSError("fork refused")
        real_start(proc)
        started.append(proc.pid)

    monkeypatch.setattr(BaseProcess, "start", start)
    sim = build_star_sim(2)
    before = _fds()
    with pytest.raises(WorkerError, match="spawn-failed") as err:
        ProcessBackend().run(sim, 300)
    assert err.value.partition == list(sim.partitions)[1]
    assert _fds() == before
    assert not _alive(started[0])
    assert mp.active_children() == []


def test_failed_socketpair_is_setup_error_and_closes_pairs(monkeypatch):
    """fd exhaustion at the second pair: the first pair is closed and
    the run fails typed before anything is forked."""
    real_socketpair = socket.socketpair
    made = []

    def socketpair():
        if made:
            raise OSError(24, "Too many open files")
        made.append(real_socketpair())
        return made[-1]

    monkeypatch.setattr(socket, "socketpair", socketpair)
    sim = build_star_sim(2)
    before = _fds()
    with pytest.raises(SocketSetupError, match="Too many open files"):
        ProcessBackend().run(sim, 300)
    assert _fds() == before
    assert len(made) == 1
    assert mp.active_children() == []
