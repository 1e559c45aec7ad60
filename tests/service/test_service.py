"""The asyncio simulation service: cache hits, coalescing, quotas,
priorities, cancellation, and bit-identity of cached results."""

import asyncio
import json
from pathlib import Path

import pytest

from repro.errors import QuotaExceededError
from repro.parallel import fork_available
from repro.service import (
    ServiceConfig,
    ServiceThread,
    SimulationService,
    TenantQuota,
    execute_config,
    normalize_config,
)
from repro.telemetry import LiveStatus, RunRegistry
from repro.telemetry.runs import run_record


def run_scenario(scenario, config):
    """Drive one async scenario on a started service."""

    async def amain():
        service = SimulationService(config)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.shutdown()

    return asyncio.run(amain())


async def wait_for(predicate, timeout=30.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while not predicate():
        assert asyncio.get_event_loop().time() < deadline, \
            "condition never became true"
        await asyncio.sleep(0.01)


@pytest.fixture
def service_config(tmp_path):
    return ServiceConfig(workers=1, runs_dir=tmp_path / "runs")


class TestCache:
    def test_hit_completes_at_submit_without_executing(
            self, make_config, service_config):
        async def scenario(service):
            cold = await service.submit(make_config(), tenant="alice")
            await service.wait(cold.job_id, timeout=60)
            hit = await service.submit(make_config(), tenant="bob")
            return cold, hit, service

        cold, hit, service = run_scenario(scenario, service_config)
        assert cold.state == "done"
        assert cold.source == "execution"
        assert hit.state == "done"
        assert hit.source == "cache"
        assert hit.run_id == cold.run_id
        # the hit never occupied a worker
        assert service.counters["executions"] == 1
        assert service.counters["cache_hits"] == 1
        assert service.execution_log == [cold.job_id]

    def test_distinct_configs_both_execute(self, make_config,
                                           service_config):
        async def scenario(service):
            a = await service.submit(make_config(cycles=40))
            b = await service.submit(make_config(cycles=41))
            await service.drain()
            return a, b, service

        a, b, service = run_scenario(scenario, service_config)
        assert a.state == b.state == "done"
        assert a.run_id != b.run_id
        assert service.counters["executions"] == 2

    def test_cached_record_bit_identical_to_fresh_run(
            self, make_config, service_config):
        """The acceptance check: what the cache serves equals what
        re-simulating would have produced, field for field."""

        async def scenario(service):
            job = await service.submit(make_config(cycles=80),
                                       name="pair")
            await service.wait(job.job_id, timeout=60)
            return job, service

        job, service = run_scenario(scenario, service_config)
        cached = service.registry.load(job.run_id)
        # identical code path: the service always wires a stop hook
        outcome = execute_config(job.config,
                                 should_stop=lambda: False)
        fresh = run_record(outcome.result, name="pair",
                           backend=outcome.backend,
                           config=job.config)
        # the cache serves the archived (JSON) form of the record
        fresh = json.loads(json.dumps(fresh))
        for key in ("target_cycles", "wall_ns", "rate_hz",
                    "tokens_transferred", "per_partition_cycles",
                    "detail", "fingerprint", "config"):
            assert cached[key] == fresh[key], key

    def test_sibling_fill_is_a_hit_after_a_warm_lookup(
            self, make_config, tmp_path):
        """Two services on one runs dir.  B has looked up (so it holds
        the registry index in memory) before A executes a config; B's
        submit of that config is still a cache hit on A's archive —
        the premise of the late cache check."""
        runs = tmp_path / "runs"
        served = []

        async def scenario():
            a = SimulationService(ServiceConfig(workers=1, runs_dir=runs))
            b = SimulationService(ServiceConfig(workers=1, runs_dir=runs))
            latest = b.registry.latest
            b.registry.latest = \
                lambda fp: served.append(latest(fp)) or served[-1]
            await a.start()
            await b.start()
            try:
                first = await a.submit(make_config(cycles=40))
                await a.wait(first.job_id, timeout=60)
                warm = await b.submit(make_config(cycles=40))
                cold = await a.submit(make_config(cycles=41))
                await a.wait(cold.job_id, timeout=60)
                hit = await b.submit(make_config(cycles=41))
                return a, b, warm, cold, hit
            finally:
                await a.shutdown()
                await b.shutdown()

        a, b, warm, cold, hit = asyncio.run(scenario())
        assert warm.source == "cache"
        assert cold.source == "execution"
        assert hit.state == "done"
        assert hit.source == "cache"
        assert hit.run_id == cold.run_id
        assert served[-1] == a.registry.load(cold.run_id)
        assert hit.result == cold.result
        assert b.counters["executions"] == 0


class TestSingleFlightService:
    def test_identical_inflight_configs_coalesce(self, make_config,
                                                 service_config):
        async def scenario(service):
            leader = await service.submit(make_config(cycles=5000))
            follower = await service.submit(make_config(cycles=5000))
            await service.drain()
            return leader, follower, service

        leader, follower, service = run_scenario(scenario,
                                                 service_config)
        assert leader.source == "execution"
        assert follower.source == "coalesced"
        assert follower.run_id == leader.run_id
        assert service.counters["executions"] == 1
        assert service.counters["coalesced"] == 1

    def test_cancelled_leader_promotes_follower(self, make_config,
                                                service_config):
        async def scenario(service):
            blocker = await service.submit(make_config(cycles=4000))
            await wait_for(lambda: blocker.state == "running")
            leader = await service.submit(make_config(cycles=90))
            follower = await service.submit(make_config(cycles=90))
            await service.cancel(leader.job_id)
            await service.drain()
            return leader, follower, service

        leader, follower, service = run_scenario(scenario,
                                                 service_config)
        assert leader.state == "cancelled"
        assert follower.state == "done"
        assert follower.source == "execution"
        assert service.counters["executions"] == 2

    def test_failed_leader_fails_followers(self, make_config,
                                           service_config):
        bad = {"kind": "simulate", "circuit_text": "not firrtl",
               "extract": ["right"], "cycles": 10}

        async def scenario(service):
            blocker = await service.submit(make_config(cycles=4000))
            await wait_for(lambda: blocker.state == "running")
            leader = await service.submit(dict(bad))
            follower = await service.submit(dict(bad))
            await service.drain()
            return leader, follower, service

        leader, follower, service = run_scenario(scenario,
                                                 service_config)
        assert leader.state == "failed"
        assert leader.error
        assert follower.state == "failed"
        assert leader.job_id in follower.error
        assert service.counters["failed"] == 2


class TestAdmissionService:
    def test_quota_rejection_never_creates_a_job(self, make_config,
                                                 tmp_path):
        config = ServiceConfig(
            workers=1, runs_dir=tmp_path / "runs",
            default_quota=TenantQuota(max_queued=1, max_active=1))

        async def scenario(service):
            first = await service.submit(make_config(cycles=40),
                                         tenant="greedy")
            with pytest.raises(QuotaExceededError) as err:
                await service.submit(make_config(cycles=41),
                                     tenant="greedy")
            # another tenant is unaffected
            other = await service.submit(make_config(cycles=42),
                                         tenant="patient")
            return first, err.value, other, service

        # the service is intentionally not started: jobs stay queued
        async def amain():
            service = SimulationService(config)
            return await scenario(service)

        first, err, other, service = asyncio.run(amain())
        assert err.kind == "queued"
        assert err.tenant == "greedy"
        assert service.counters["rejected"] == 1
        assert len(service.jobs) == 2
        assert first.state == other.state == "queued"

    def test_priority_orders_execution(self, make_config, tmp_path):
        config = ServiceConfig(workers=1,
                               runs_dir=tmp_path / "runs")

        async def scenario(service):
            blocker = await service.submit(make_config(cycles=4000))
            await wait_for(lambda: blocker.state == "running")
            low = await service.submit(make_config(cycles=50),
                                       priority=0)
            high = await service.submit(make_config(cycles=51),
                                        priority=5)
            await service.drain()
            return blocker, low, high, service

        blocker, low, high, service = run_scenario(scenario, config)
        assert service.execution_log == [blocker.job_id, high.job_id,
                                         low.job_id]


class TestCancellation:
    def test_cancel_queued_job(self, make_config, tmp_path):
        config = ServiceConfig(workers=1,
                               runs_dir=tmp_path / "runs")

        async def amain():
            service = SimulationService(config)  # not started
            job = await service.submit(make_config(cycles=40))
            await service.cancel(job.job_id)
            return job, service

        job, service = asyncio.run(amain())
        assert job.state == "cancelled"
        assert service.counters["cancelled"] == 1
        assert service.counters["executions"] == 0

    def test_cancel_mid_run_stops_within_a_pass(self, make_config,
                                                tmp_path):
        config = ServiceConfig(workers=1, runs_dir=tmp_path / "runs",
                               live_dir=tmp_path / "live")

        def stepping(job):
            # "running" is set before the executor thread has parsed,
            # compiled and built; the live-status file (what ``repro
            # watch --job`` reads) says when the step loop is under way
            status = LiveStatus.read(job.live_path or "")
            return status is not None and status["frontier_cycle"] > 0

        async def scenario(service):
            job = await service.submit(make_config(cycles=500_000))
            await wait_for(lambda: stepping(job))
            await service.cancel(job.job_id)
            await service.wait(job.job_id, timeout=60)
            return job, service

        job, service = run_scenario(scenario, config)
        assert job.state == "cancelled"
        assert job.result["partial"] is True
        assert 0 < job.result["target_cycles"] < 500_000
        # nothing partial reaches the cache
        assert RunRegistry(service.registry.root).index() == {}

    def test_cancel_is_idempotent_and_wait_times_out(
            self, make_config, service_config):
        async def scenario(service):
            job = await service.submit(make_config(cycles=500_000))
            with pytest.raises(asyncio.TimeoutError):
                await service.wait(job.job_id, timeout=0.05)
            await service.cancel(job.job_id)
            await service.cancel(job.job_id)
            await service.wait(job.job_id, timeout=60)
            return job

        job = run_scenario(scenario, service_config)
        assert job.state == "cancelled"


class TestJobKinds:
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_backend_job_runs_to_done(self, make_config,
                                              service_config):
        """The process backend takes no stop hook, so a live-service
        job on it cancels before start only — and otherwise runs, to
        the same detail as the in-process loop."""
        async def scenario(service):
            job = await service.submit(make_config(backend="process"))
            await service.wait(job.job_id, timeout=60)
            return job, service

        job, service = run_scenario(scenario, service_config)
        assert job.state == "done", job.error
        record = service.registry.load(job.run_id)
        assert record["backend"] == "process"
        inproc = execute_config(normalize_config(
            make_config(backend="inproc")))
        assert record["detail"] \
            == json.loads(json.dumps(inproc.result.detail))

    def test_unknown_experiment_fails_the_job(self, service_config):
        async def scenario(service):
            job = await service.submit({"kind": "experiment",
                                        "experiment": "fig99"})
            await service.wait(job.job_id, timeout=60)
            return job

        job = run_scenario(scenario, service_config)
        assert job.state == "failed"
        assert "unknown experiment" in job.error

    def test_stats_shape(self, make_config, service_config):
        async def scenario(service):
            job = await service.submit(make_config(cycles=40))
            await service.wait(job.job_id, timeout=60)
            return service.stats()

        stats = run_scenario(scenario, service_config)
        assert stats["jobs"]["total"] == 1
        assert stats["jobs"]["done"] == 1
        assert stats["counters"]["executions"] == 1
        assert stats["cache"]["fills"] == 1
        assert "admission" in stats


CORPUS = sorted(
    (Path(__file__).parent.parent / "fuzz" / "corpus").glob("*.json"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_mill_repro_runs_as_a_service_job(path, tmp_path):
    """A committed repro's config is a job as is: the service runs it
    to the result a direct ``execute_config`` gives, and a resubmit is
    a cache hit."""
    config = json.loads(path.read_text())["config"]
    thread = ServiceThread(ServiceConfig(workers=1,
                                         runs_dir=tmp_path / "runs"))
    try:
        client = thread.client()
        cold = client.wait(client.submit(config)["job_id"], timeout=120)
        hit = client.submit(config)
    finally:
        thread.stop()
    assert (cold["state"], cold["source"]) == ("done", "execution"), cold
    assert (hit["state"], hit["source"]) == ("done", "cache")
    assert hit["run_id"] == cold["run_id"]
    record = RunRegistry(tmp_path / "runs").load(cold["run_id"])
    direct = execute_config(normalize_config(config)).result
    keys = ("target_cycles", "tokens_transferred",
            "per_partition_cycles", "detail")
    assert {k: record[k] for k in keys} \
        == json.loads(json.dumps({k: getattr(direct, k) for k in keys}))
