"""The plan cache: a job child whose plan key the service has compiled
before inherits that design through the fork — no parse, no
FireRipper, no elaboration, no kernel printing — and still archives
the record a fresh execution would.  The ``executing`` event says which
(``plan``: ``hit`` or ``miss``)."""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_service import IDENTITY_KEYS
from repro.fireripper import PartitionedDesign
from repro.observability import read_events
from repro.parallel import fork_available
from repro.service import ServiceConfig, execute_config
from repro.service.executor import plan_key
from repro.telemetry import RunRegistry
from repro.telemetry.runs import run_record

from .test_job_child import run_leaving_nothing
from .test_service import run_scenario

pytestmark = pytest.mark.skipif(not fork_available(), reason="needs fork")


@pytest.fixture
def config(tmp_path):
    return ServiceConfig(workers=1, runs_dir=tmp_path / "runs",
                         event_log=tmp_path / "ev.jsonl")


def plans(config) -> dict:
    """Job id -> the ``plan`` its ``executing`` event names."""
    return {e.args["job"]: e.args["plan"]
            for e in read_events(config.event_log, kinds=["executing"])}


def submit_in_turn(configs):
    """A scenario submitting each config after the last one ended."""

    async def scenario(service):
        jobs = []
        for job_config in configs:
            job = await service.submit(job_config)
            await service.wait(job.job_id, timeout=120)
            jobs.append(job)
        return jobs

    return scenario


def test_cycles_and_backend_do_not_split_the_plan(make_config, config):
    """Configs that differ only in ``cycles``, then only in ``backend``,
    share one plan: the later two are hits, each archived record equals
    a direct ``execute_config`` field for field, and the ``process``
    hit forks its partition workers from the inherited design."""
    configs = [make_config(cycles=60, backend="inproc"),
               make_config(cycles=75, backend="inproc"),
               make_config(cycles=75, backend="process")]
    jobs = run_scenario(submit_in_turn(configs), config)
    assert len({plan_key(job.config) for job in jobs}) == 1
    assert [plans(config)[job.job_id] for job in jobs] \
        == ["miss", "hit", "hit"]
    for job in jobs:
        assert job.state == "done", job.error
        archived = RunRegistry(config.runs_dir).load(job.run_id)
        outcome = execute_config(job.config, should_stop=lambda: False)
        fresh = json.loads(json.dumps(
            run_record(outcome.result, config=job.config)))
        for key in IDENTITY_KEYS:
            assert archived[key] == fresh[key], (job.job_id, key)


def test_a_failing_compile_fills_no_plan(make_config, config):
    """The child of a plan whose compile raises ships no design, so the
    next job of that plan compiles (and fails) again."""
    configs = [make_config(cycles=60, extract=["nowhere"]),
               make_config(cycles=61, extract=["nowhere"])]
    jobs = run_scenario(submit_in_turn(configs), config)
    assert [job.state for job in jobs] == ["failed", "failed"]
    assert [plans(config)[job.job_id] for job in jobs] == ["miss", "miss"]


def test_a_design_that_does_not_pickle_fills_no_plan(
        make_config, config, monkeypatch):
    """A miss whose design will not pickle still succeeds; it ships no
    design, so the next job of that plan is a miss too."""

    def refuse(self, protocol):
        raise TypeError("cannot pickle this design")

    monkeypatch.setattr(PartitionedDesign, "__reduce_ex__", refuse)
    jobs = run_scenario(submit_in_turn(
        [make_config(cycles=60), make_config(cycles=61)]), config)
    assert [job.state for job in jobs] == ["done", "done"]
    assert [plans(config)[job.job_id] for job in jobs] == ["miss", "miss"]


def test_a_circuit_path_is_always_a_miss(circuit_text, make_config,
                                         config, tmp_path):
    """A file can change between jobs, so a ``circuit`` path config has
    no plan key and compiles every time."""
    path = tmp_path / "pair.fir"
    path.write_text(circuit_text)
    configs = []
    for cycles in (60, 61, 62):
        job_config = make_config(cycles=cycles, circuit=str(path))
        del job_config["circuit_text"]
        configs.append(job_config)
    jobs = run_scenario(submit_in_turn(configs), config)
    assert all(job.state == "done" for job in jobs), \
        [job.error for job in jobs]
    assert plan_key(jobs[0].config) is None
    assert set(plans(config).values()) == {"miss"}


def test_a_plan_hit_leaves_nothing(make_config, config):
    """A hit's child, like a miss's, leaves the parent holding the file
    descriptors it held before and no child alive or unreaped."""
    jobs, _ = run_leaving_nothing(
        submit_in_turn([make_config(cycles=60), make_config(cycles=90)]),
        config)
    assert [job.state for job in jobs] == ["done", "done"]
    assert [plans(config)[job.job_id] for job in jobs] == ["miss", "hit"]
