"""Every executed job runs in its own forked child, and a job leaves
nothing behind: whether it ran to done, was cancelled mid-run, failed
with a follower attached, or was running when the service stopped, the
parent holds exactly the file descriptors it held before and no child
is left alive or unreaped.  A child that dies fails only its own job
(and its followers), and the child never holds a service socket."""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.observability import read_events
from repro.parallel import fork_available
from repro.service import ServiceConfig, ServiceThread, SimulationService
from repro.telemetry import LiveStatus

from ..farm.test_leaks import _alive, _fds
from .test_service import wait_for

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs fork")


@pytest.fixture
def config(tmp_path):
    return ServiceConfig(workers=1, runs_dir=tmp_path / "runs",
                         live_dir=tmp_path / "live",
                         event_log=tmp_path / "ev.jsonl")


def child_pids(config, job=None) -> dict:
    """Job id -> the pid its ``executing`` event names."""
    return {e.args["job"]: e.args["child_pid"]
            for e in read_events(config.event_log, kinds=["executing"])
            if job is None or e.args["job"] == job.job_id}


def stepping(job) -> bool:
    status = LiveStatus.read(job.live_path or "")
    return status is not None and status["frontier_cycle"] > 0


def run_leaving_nothing(scenario, config):
    """Run ``scenario`` on a started service and check that nothing
    outlives it; returns the scenario's value and every job's child
    pid."""

    async def amain():
        service = SimulationService(config)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.shutdown()

    before = _fds()
    value = asyncio.run(amain())
    assert _fds() == before
    pids = child_pids(config)
    assert pids and not any(_alive(pid) for pid in pids.values())
    assert mp.active_children() == []
    return value, pids


def test_normal_job_leaves_nothing(make_config, config):
    async def scenario(service):
        job = await service.submit(make_config())
        await service.wait(job.job_id, timeout=60)
        return job

    job, pids = run_leaving_nothing(scenario, config)
    assert job.state == "done", job.error
    assert pids[job.job_id] != os.getpid()


def test_cancel_mid_run_leaves_nothing(make_config, config):
    async def scenario(service):
        job = await service.submit(make_config(cycles=500_000))
        await wait_for(lambda: stepping(job))
        await service.cancel(job.job_id)
        await service.wait(job.job_id, timeout=60)
        return job

    job, _ = run_leaving_nothing(scenario, config)
    assert job.state == "cancelled"
    assert 0 < job.result["target_cycles"] < 500_000


def test_failing_leader_with_follower_leaves_nothing(config):
    bad = {"kind": "experiment", "experiment": "fig99"}

    async def scenario(service):
        leader = await service.submit(dict(bad))
        follower = await service.submit(dict(bad))
        await service.drain()
        return leader, follower

    (leader, follower), _ = run_leaving_nothing(scenario, config)
    assert leader.state == follower.state == "failed"
    assert "unknown experiment" in leader.error
    assert leader.job_id in follower.error


def test_stop_while_a_job_runs_leaves_nothing(make_config, config):
    """``ServiceThread.stop()`` lets the running job finish, then the
    thread, its endpoint and the job child are all gone; while the
    child steps it holds no socket (not the listener, not a client
    connection, not the loop's self-pipe)."""
    before = _fds()
    thread = ServiceThread(config)
    try:
        client = thread.client()
        job_id = client.submit(make_config(cycles=150_000))["job_id"]
        job = thread.service.get(job_id)
        deadline = time.monotonic() + 60.0
        while not stepping(job):
            assert time.monotonic() < deadline, "the job never stepped"
            time.sleep(0.01)
        (pid,) = child_pids(config, job).values()
        links = [os.readlink(f"/proc/{pid}/fd/{fd}")
                 for fd in os.listdir(f"/proc/{pid}/fd")]
        # a child holding the accepted connection would have kept the
        # submit response open until the job ended
        assert _alive(pid), "the submit waited for the job"
    finally:
        thread.stop(timeout=120)
    assert not [link for link in links if link.startswith("socket:")]
    assert job.state == "done", job.error
    assert _fds() == before
    assert not _alive(pid)
    assert mp.active_children() == []


def test_killed_child_fails_only_its_job(make_config, config):
    """SIGKILL a running job's child: that job fails naming the signal,
    its follower fails under the failed-leader rule, and the next job
    runs to done."""

    async def scenario(service):
        leader = await service.submit(make_config(cycles=500_000))
        follower = await service.submit(make_config(cycles=500_000))
        await wait_for(lambda: stepping(leader))
        (pid,) = child_pids(config, leader).values()
        os.kill(pid, signal.SIGKILL)
        await service.wait(leader.job_id, timeout=60)
        after = await service.submit(make_config(cycles=100))
        await service.wait(after.job_id, timeout=60)
        return leader, follower, after

    (leader, follower, after), _ = run_leaving_nothing(scenario, config)
    assert leader.state == "failed"
    assert "SIGKILL" in leader.error
    assert follower.state == "failed"
    assert f"coalesced onto {leader.job_id} which failed" in follower.error
    assert after.state == "done", after.error
