"""The service's observability surface, end to end over HTTP: corr
ids on job records, the event log, ``/metrics`` + ``/healthz``, the
archived ``obs`` extra, and the stitched per-job Perfetto trace."""

from __future__ import annotations

import gzip
import json

import pytest

from repro.observability import (
    export_job_trace,
    read_events,
    stitch_job_trace,
)
from repro.service import ServiceConfig, ServiceThread, TenantQuota
from repro.telemetry import RunRegistry


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(workers=1, runs_dir=tmp_path / "runs",
                           event_log=tmp_path / "ev.jsonl",
                           trace_events=128)
    thread = ServiceThread(config)
    yield thread
    thread.stop()


class TestServiceObservability:
    def test_corr_id_joins_every_artifact(self, service, make_config,
                                          tmp_path):
        """The acceptance path: one submit yields one corr id
        findable in the job record, the event log, the archived run
        record, and the stitched trace."""
        client = service.client()
        record = client.submit(make_config())
        record = client.wait(record["job_id"])
        assert record["state"] == "done"
        corr = record["corr_id"]
        assert corr.startswith("corr-")
        for phase in ("cache_lookup_s", "queue_wait_s",
                      "execution_s"):
            assert record[phase] is not None and record[phase] >= 0.0

        entries = list(read_events(tmp_path / "ev.jsonl", corr=corr))
        kinds = [e.kind for e in entries]
        assert kinds[:4] == ["submitted", "admitted", "queued",
                             "executing"]
        assert kinds[-1] == "done"

        run_record = RunRegistry(tmp_path / "runs").load(
            record["run_id"])
        obs = run_record["obs"]
        assert obs["corr_id"] == corr
        assert obs["trace_events"]

        events = stitch_job_trace(record, run_record, entries)
        assert any(e.part == "service" for e in events)
        assert any(e.part.startswith(record["job_id"] + "/")
                   for e in events)
        assert all(e.args.get("corr", corr) == corr
                   for e in events if e.part == "service")

    def test_cache_hit_counted_and_logged(self, service,
                                          make_config, tmp_path):
        client = service.client()
        first = client.wait(client.submit(make_config(),
                                          tenant="alice")["job_id"])
        second = client.wait(client.submit(make_config(),
                                           tenant="bob")["job_id"])
        assert second["source"] == "cache"
        assert second["corr_id"] != first["corr_id"]
        hits = list(read_events(tmp_path / "ev.jsonl",
                                kinds=["cache_hit"]))
        assert [e.args["corr"] for e in hits] == [second["corr_id"]]
        assert hits[0].args["run_id"] == first["run_id"]

    def test_metrics_endpoint(self, service, make_config):
        client = service.client()
        client.wait(client.submit(make_config(),
                                  tenant="alice")["job_id"])
        client.wait(client.submit(make_config(),
                                  tenant="bob")["job_id"])
        text = client.metrics()
        assert ('repro_service_jobs_submitted_total{tenant="alice"} 1'
                in text)
        assert ('repro_service_cache_hits_total{tenant="bob"} 1'
                in text)
        assert ('repro_service_latency_seconds_count'
                '{phase="execution",tenant="alice"} 1') in text
        assert "repro_service_workers 1" in text
        assert "repro_service_active_jobs 0" in text

    def test_healthz_and_stats_snapshot(self, service, make_config):
        client = service.client()
        health = client.health()
        assert health["ok"] is True
        client.wait(client.submit(make_config())["job_id"])
        metrics = client.stats()["metrics"]
        assert metrics["counters"]["submitted"] == {"default": 1}
        assert "execution" in metrics["latency"]
        assert metrics["gauges"]["workers"] == 1

    def test_rejection_logged_with_corr(self, tmp_path, make_config):
        from repro.errors import ServiceError
        config = ServiceConfig(
            workers=1, runs_dir=tmp_path / "runs",
            event_log=tmp_path / "ev.jsonl",
            default_quota=TenantQuota(max_queued=0, max_active=1))
        thread = ServiceThread(config)
        try:
            client = thread.client()
            with pytest.raises(ServiceError):
                client.submit(make_config())
        finally:
            thread.stop()
        rejected = list(read_events(tmp_path / "ev.jsonl",
                                    kinds=["rejected"]))
        assert len(rejected) == 1
        assert rejected[0].args["corr"].startswith("corr-")
        submitted = list(read_events(tmp_path / "ev.jsonl",
                                     kinds=["submitted"]))
        assert [e.args["corr"] for e in submitted] \
            == [rejected[0].args["corr"]]

    def test_export_job_trace_file(self, service, make_config,
                                   tmp_path):
        client = service.client()
        record = client.wait(client.submit(make_config())["job_id"])
        run_record = RunRegistry(tmp_path / "runs").load(
            record["run_id"])
        entries = list(read_events(tmp_path / "ev.jsonl",
                                   corr=record["corr_id"]))
        out = tmp_path / "job.json"
        written, count = export_job_trace(out, record, run_record,
                                          entries)
        assert count > 0
        doc = json.loads(written.read_text())
        names = {r["args"]["name"] for r in doc["traceEvents"]
                 if r.get("ph") == "M"
                 and r.get("name") == "process_name"}
        assert "service" in names
        assert any(n.startswith(record["job_id"] + "/")
                   for n in names)

    def test_export_job_trace_gzip(self, service, make_config,
                                   tmp_path):
        client = service.client()
        record = client.wait(client.submit(make_config())["job_id"])
        written, _ = export_job_trace(tmp_path / "job.json", record,
                                      None, (), compress=True)
        assert written.suffix == ".gz"
        json.loads(gzip.decompress(written.read_bytes()))
