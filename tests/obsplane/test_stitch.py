"""Trace stitching units: the three sources, timeline anchoring,
track renaming, and hash-namespaced track ids."""

from __future__ import annotations

import pytest

from repro.observability.chrome_trace import iter_chrome_records
from repro.observability.stitch import (
    fabric_events,
    partition_events,
    service_spans,
    stitch_job_trace,
)
from repro.observability.tracer import (
    TraceEvent,
    dict_to_event,
    event_to_dict,
)

JOB = {
    "job_id": "job-7", "tenant": "alice", "corr_id": "corr-abc",
    "submitted": 100.0, "started": 100.5, "finished": 101.0,
    "cache_lookup_s": 0.002, "queue_wait_s": 0.4,
    "execution_s": 0.5,
}


class TestEventDicts:
    def test_roundtrip(self):
        event = TraceEvent(kind="pass", ts_ns=5.0, dur_ns=2.0,
                           part="base", scope="sim",
                           args={"cycle": 3})
        assert dict_to_event(event_to_dict(event)) == event

    def test_flat_form_omits_unset_fields(self):
        """One serialisation for log lines and archives: record
        fields only when set, args flattened beside them."""
        event = TraceEvent(kind="queued", ts_ns=7,
                           args={"corr": "c", "wall": 1.5})
        assert event_to_dict(event) == {
            "kind": "queued", "ts_ns": 7, "corr": "c", "wall": 1.5}
        assert dict_to_event(event_to_dict(event)) == event

    def test_dict_to_event_defaults(self):
        event = dict_to_event({})
        assert event.kind == "?" and event.part == ""
        assert event.ts_ns == 0.0


class TestServiceSpans:
    def test_three_phases_on_service_track(self):
        spans = service_spans(JOB)
        assert {s.kind for s in spans} \
            == {"cache_lookup", "queue_wait", "execution"}
        assert {s.part for s in spans} == {"service"}
        execution = next(s for s in spans if s.kind == "execution")
        # anchored at submit: execution starts 0.5 s in
        assert execution.ts_ns == pytest.approx(0.5e9)
        assert execution.dur_ns == pytest.approx(0.5e9)
        assert execution.args["corr"] == "corr-abc"

    def test_without_submit_time_no_spans(self):
        assert service_spans({"job_id": "j"}) == []

    def test_missing_phases_skipped(self):
        spans = service_spans({"job_id": "j", "submitted": 1.0,
                               "queue_wait_s": 0.1})
        assert [s.kind for s in spans] == ["queue_wait"]


class TestFabricEvents:
    def test_track_routing(self):
        entries = [dict_to_event(entry) for entry in (
            {"kind": "host_deploy", "wall": 100.6, "host": "h0",
             "corr": "corr-abc"},
            {"kind": "worker_spawn", "wall": 100.7, "part": "base",
             "corr": "corr-abc"},
            {"kind": "queued", "wall": 100.1, "corr": "corr-abc"},
        )]
        events = fabric_events(JOB, entries)
        by_kind = {e.kind: e for e in events}
        assert by_kind["host_deploy"].part == "host:h0"
        assert by_kind["worker_spawn"].part == "job-7/workers"
        assert by_kind["worker_spawn"].scope == "base"
        assert by_kind["queued"].part == "service"
        # wall stamps land on the µs-from-submit timeline
        assert by_kind["queued"].ts_ns == pytest.approx(0.1e9)

    def test_entries_without_wall_skipped(self):
        assert fabric_events(JOB, [TraceEvent("queued", 0)]) == []


class TestPartitionEvents:
    def _run_record(self):
        payloads = [event_to_dict(TraceEvent(
            kind="pass", ts_ns=float(i) * 1e6, dur_ns=1e5,
            part="base" if i % 2 == 0 else "fpga0", scope="sim"))
            for i in range(4)]
        return {"obs": {"trace_events": payloads},
                "farm": {"placements": [
                    {"assignment": {"base": "h9", "fpga0": "h9"}},
                    {"assignment": {"base": "h0", "fpga0": "h1"}}]}}

    def test_renamed_and_shifted(self):
        events = partition_events(JOB, self._run_record())
        # last placement wins for the host component of the track
        assert {e.part for e in events} \
            == {"job-7/h0/base", "job-7/h1/fpga0"}
        # first span lands at the execution start on the job timeline
        assert min(e.ts_ns for e in events) == pytest.approx(0.5e9)

    def test_without_placement_host_is_local(self):
        record = self._run_record()
        del record["farm"]
        events = partition_events(JOB, record)
        assert {e.part for e in events} \
            == {"job-7/local/base", "job-7/local/fpga0"}

    def test_no_run_record(self):
        assert partition_events(JOB, None) == []


class TestStitchAndHashing:
    def test_stitched_stream_is_time_ordered(self):
        entries = [TraceEvent("queued", 0, args={
            "wall": 100.1, "corr": "corr-abc"})]
        events = stitch_job_trace(JOB, None, entries)
        stamps = [e.ts_ns for e in events]
        assert stamps == sorted(stamps)

    def test_hashed_track_ids_keep_jobs_distinct(self):
        """Two jobs with a same-named partition must land on
        different pids — the property first-use counters violate when
        two exported streams are concatenated."""

        def pid_of(job_id):
            events = [TraceEvent(kind="pass", ts_ns=0.0, dur_ns=1.0,
                                 part=f"{job_id}/local/base",
                                 scope="sim")]
            records = list(iter_chrome_records(events,
                                               hash_track_ids=True))
            meta = next(r for r in records
                        if r.get("ph") == "M"
                        and r["name"] == "process_name")
            return meta["pid"]

        assert pid_of("job-1") != pid_of("job-2")
        # and the mapping is deterministic across exports
        assert pid_of("job-1") == pid_of("job-1")

    def test_counter_ids_without_hashing_collide(self):
        """Documents why hashing exists: counters restart per export,
        so the same first track of two exports shares pid 1."""

        def pid_of(part):
            events = [TraceEvent(kind="pass", ts_ns=0.0, dur_ns=1.0,
                                 part=part, scope="sim")]
            meta = next(r for r in iter_chrome_records(events)
                        if r.get("ph") == "M"
                        and r["name"] == "process_name")
            return meta["pid"]

        assert pid_of("job-1/base") == pid_of("job-2/base")
