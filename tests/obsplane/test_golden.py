"""Golden outputs captured at the last commit that had the separate
service-metrics / event-log models (``golden/``), replayed through the
merged one: ``GET /metrics``, ``/stats``, one JSONL event line per
lifecycle kind, the ``repro tail`` lines, and a stitched job trace.

The capture drove the old API with exactly the inputs below (clocks
and pid pinned the same way, ``TZ=UTC``), so any byte that moves here
is a behaviour change in a surface operators script against.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.observability import (
    EVENT_KINDS,
    EventLog,
    TraceEvent,
    event_to_dict,
    lifecycle_event,
    read_events,
    stitch_job_trace,
)
from repro.observability.chrome_trace import to_chrome_trace
from repro.service import Job, ServiceConfig, SimulationService
from repro.service.scheduler import LATENCY_BUCKETS

GOLDEN = Path(__file__).parent / "golden"

COUNTS = [("submitted", "alice", 3), ("submitted", "bob", 1),
          ("cache_hits", "bob", 1), ("rejected", "alice", 1),
          ("executions", "alice", 2), ("completed", "alice", 2),
          ("completed", "bob", 1)]
OBSERVES = [("cache_lookup", "alice", 0.0004),
            ("cache_lookup", "alice", 0.0007),
            ("cache_lookup", "alice", 0.003),
            ("cache_lookup", "bob", 0.0002),
            ("queue_wait", "alice", 0.012),
            ("queue_wait", "alice", 0.3),
            ("execution", "alice", 0.05),
            ("execution", "alice", 1.7),
            ("execution", "alice", 75.0)]

ID = dict(corr="corr-0123456789ab", tenant="alice",
          fingerprint="75bf98c72840", job="job-000001")
RUN_ID = "alice-75bf98c72840-0000"
#: one event per lifecycle kind, with the fields its emit site sends
EVENTS = [
    ("submitted", dict(ID, priority=2)),
    ("cache_hit", dict(ID, run_id=RUN_ID)),
    ("coalesced", dict(ID)),
    ("rejected", dict(
        ID, error="tenant 'alice' over quota: queued 1 >= 1")),
    ("admitted", dict(ID)),
    ("queued", dict(ID, priority=2)),
    ("executing", dict(ID, queue_wait_s=0.000426)),
    ("done", dict(ID, source="execution", run_id=RUN_ID, error="")),
    ("failed", dict(ID, source="", run_id="",
                    error="ServiceError: boom")),
    ("cancelled", dict(ID, source="", run_id="", error="")),
    ("worker_spawn", dict(corr=ID["corr"], host="h0", backend="farm",
                          part="fpga0", worker_pid=777)),
    ("worker_exit", dict(corr=ID["corr"], part="base",
                         worker_pid=778, exitcode=-15)),
    ("host_deploy", dict(corr=ID["corr"], host="h0",
                         parts="base,fpga0", agent_pid=700)),
    ("host_death", dict(corr=ID["corr"], host="h1", reason="died")),
    ("host_replace", dict(corr=ID["corr"], hosts="h0,h2",
                          assignment={"base": "h0", "fpga0": "h2"})),
]

JOB = {"job_id": "job-000001", "tenant": "alice",
       "corr_id": ID["corr"], "submitted": 1699999999.5,
       "started": 1700000001.6, "finished": 1700000002.4,
       "cache_lookup_s": 0.002, "queue_wait_s": 2.1,
       "execution_s": 0.8}


def busy_service():
    """An unstarted service holding the capture's counts, latencies
    and two queued tenants."""
    service = SimulationService(ServiceConfig(
        workers=2, runs_dir="results/runs"))
    for name, tenant, n in COUNTS:
        service.metrics.counter(name, tenant).inc(n)
    for phase, tenant, seconds in OBSERVES:
        service.metrics.histogram(phase, tenant,
                                  LATENCY_BUCKETS).observe(seconds)
    for i, tenant in enumerate(("alice", "carol")):
        service.admission.requeue(Job(
            job_id=f"job-{i}", tenant=tenant, config={},
            fingerprint="f"))
    return service


class TestServiceSurfaces:
    def test_metrics_text(self):
        assert busy_service().metrics_text() \
            == (GOLDEN / "metrics.txt").read_text()

    def test_metrics_text_of_an_idle_service(self):
        idle = SimulationService(ServiceConfig(
            workers=1, runs_dir="results/runs"))
        assert idle.metrics_text() \
            == (GOLDEN / "metrics_idle.txt").read_text()

    def test_stats_json(self):
        assert json.dumps(busy_service().stats()) + "\n" \
            == (GOLDEN / "stats.json").read_text()


@pytest.fixture
def event_log(tmp_path, monkeypatch):
    """The 15 events written through the JSONL sink under pinned
    clocks and pid; yields the log path."""
    ticks = itertools.count(1_000_000, 1000)
    walls = itertools.count(0)
    monkeypatch.setattr(time, "monotonic_ns", lambda: next(ticks))
    monkeypatch.setattr(
        time, "time", lambda: 1700000000.0 + 0.25 * next(walls))
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    monkeypatch.setenv("TZ", "UTC")
    time.tzset()
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    for kind, fields in EVENTS:
        log.emit(lifecycle_event(kind, **fields))
    log.close()
    yield path
    monkeypatch.undo()
    time.tzset()


class TestEventLogSurfaces:
    def test_one_jsonl_line_per_kind(self, event_log):
        assert [kind for kind, _ in EVENTS] == list(EVENT_KINDS)
        written = event_log.read_text().splitlines()
        golden = (GOLDEN / "events.jsonl").read_text().splitlines()
        assert len(written) == len(golden)
        for new, old in zip(written, golden):
            assert json.loads(new) == json.loads(old)
            # ``part`` is the record's own field now and serialises
            # ahead of the args; every other line is byte-identical
            if '"part"' not in old:
                assert new == old

    @pytest.mark.parametrize("flags", [[], ["-f", "--timeout", "0"]],
                             ids=["read", "follow"])
    def test_tail_lines(self, event_log, flags, capsys):
        assert main(["tail", str(event_log), *flags]) == 0
        assert capsys.readouterr().out \
            == (GOLDEN / "tail.txt").read_text()

    def test_stitched_job_trace(self, event_log):
        spans = [TraceEvent("target_cycle", 100.0 + 40.0 * i, 30.0,
                            part=("base", "fpga0")[i % 2],
                            scope="unit", args={"cycle": i})
                 for i in range(4)]
        spans.append(TraceEvent(
            "token_rx", 130.0, part="fpga0",
            scope="base.out->fpga0.in",
            args={"link": "l0", "depth": 2}))
        run_record = {
            "obs": {"trace_events": [event_to_dict(e)
                                     for e in spans]},
            "farm": {"placements": [
                {"assignment": {"base": "h0", "fpga0": "h2"}}]}}
        events = stitch_job_trace(JOB, run_record,
                                  read_events(event_log))
        doc = to_chrome_trace(events, hash_track_ids=True)
        assert doc == json.loads(
            (GOLDEN / "job_trace.json").read_text())
