"""Nothing outlives a failed distributed run: every process the event
log saw spawned — agents, and the workers *they* forked, which
``mp.active_children()`` cannot see — is gone within the heartbeat
timeout, and the unix-socket rendezvous directory is removed."""

from __future__ import annotations

import tempfile
import time

import pytest

from repro.errors import HostDeadError, WorkerError
from repro.observability import EventLog, mint_corr_id, read_events
from repro.parallel import (ProcessBackend, fork_available,
                            socket_available)

from ..parallel.conftest import build_star_sim, farm_backend

HEARTBEAT_S = 5.0

pytestmark = pytest.mark.skipif(
    not (fork_available() and socket_available("unix")),
    reason="needs fork + unix sockets")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    # a zombie has exited; it only awaits reaping by whoever adopted it
    return state != "Z"


@pytest.mark.parametrize("make_backend, faults, error, n_agents", [
    (farm_backend, {"host_faults": {"h1": 5}}, HostDeadError, 2),
    (farm_backend, {"worker_faults": {"fpga1": ("kill", 4)}},
     WorkerError, 2),
    (farm_backend, {"worker_faults": {"fpga1": ("hang", 4)}},
     WorkerError, 2),
    (ProcessBackend, {"worker_faults": {"fpga1": ("kill", 4)}},
     WorkerError, 0),
], ids=["farm-host-kill", "farm-worker-kill", "farm-worker-hang",
        "process-worker-kill"])
def test_failed_run_leaves_no_process_or_socket_dir(
        make_backend, faults, error, n_agents, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    sim = build_star_sim(2)
    sim.corr_id = mint_corr_id()
    sim.events = EventLog(tmp_path / "ev.jsonl")
    backend = make_backend(heartbeat_timeout=HEARTBEAT_S,
                           socket_family="unix", **faults)
    with pytest.raises(error):
        backend.run(sim, 300)
    sim.events.close()

    spawned = list(read_events(
        tmp_path / "ev.jsonl", corr=sim.corr_id,
        kinds=["worker_spawn", "host_deploy"]))
    workers = [e.args["worker_pid"] for e in spawned
               if "worker_pid" in e.args]
    agents = [e.args["agent_pid"] for e in spawned
              if "agent_pid" in e.args]
    assert len(workers) == len(sim.partitions)
    assert len(agents) == n_agents

    deadline = time.monotonic() + HEARTBEAT_S
    survivors = workers + agents
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = [pid for pid in survivors if _alive(pid)]
    assert survivors == []
    assert list(tmp_path.glob("repro-sock-*")) == []
