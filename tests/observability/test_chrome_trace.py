"""Chrome trace-event export: valid, loadable JSON from a traced run."""

import gzip
import json

from repro.fireripper import EXACT, FireRipper, PartitionGroup, PartitionSpec
from repro.observability import (
    RecordingTracer,
    TraceEvent,
    iter_chrome_records,
    stream_chrome_trace,
    to_chrome_trace,
)
from repro.platform import QSFP_AURORA
from repro.targets import make_comb_pair_circuit


def _traced_run(cycles=20):
    spec = PartitionSpec(mode=EXACT, groups=[
        PartitionGroup.make("fpga1", ["right"])])
    design = FireRipper(spec).compile(make_comb_pair_circuit())
    tracer = RecordingTracer()
    design.build_simulation(QSFP_AURORA, tracer=tracer).run(cycles)
    return tracer


class TestFormat:
    def test_envelope_and_required_fields(self):
        trace = to_chrome_trace(_traced_run().events)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["traceEvents"]
        for record in trace["traceEvents"]:
            assert {"ph", "name", "pid", "tid"} <= set(record)
            if record["ph"] != "M":
                assert "ts" in record
            if record["ph"] == "X":
                assert record["dur"] > 0

    def test_process_and_thread_metadata(self):
        trace = to_chrome_trace(_traced_run().events)
        meta = [r for r in trace["traceEvents"] if r["ph"] == "M"]
        process_names = {r["args"]["name"] for r in meta
                         if r["name"] == "process_name"}
        assert {"base", "fpga1"} <= process_names
        # every non-metadata event points at a registered pid
        pids = {r["pid"] for r in meta if r["name"] == "process_name"}
        for record in trace["traceEvents"]:
            if record["ph"] != "M":
                assert record["pid"] in pids

    def test_token_rx_emits_depth_counter(self):
        trace = to_chrome_trace(_traced_run().events)
        counters = [r for r in trace["traceEvents"] if r["ph"] == "C"]
        assert counters
        for record in counters:
            assert record["name"].startswith("in-flight ")
            assert record["args"]["tokens"] >= 1

    def test_spans_become_complete_events(self):
        tracer = _traced_run()
        trace = to_chrome_trace(tracer.events)
        spans = [r for r in trace["traceEvents"] if r["ph"] == "X"]
        expect = sum(1 for e in tracer.events if e.dur_ns > 0)
        assert len(spans) == expect

    def test_timestamps_converted_to_us(self):
        event = TraceEvent("token_tx", ts_ns=2500.0, dur_ns=1000.0,
                           part="p", scope="c")
        record = [r for r in to_chrome_trace([event])["traceEvents"]
                  if r["ph"] != "M"][0]
        assert record["ts"] == 2.5
        assert record["dur"] == 1.0


class TestExport:
    def test_acceptance_two_partition_run_exports_valid_json(self, tmp_path):
        """Acceptance criterion: a traced 2-partition exact run exports
        a loadable Chrome trace JSON."""
        tracer = _traced_run(cycles=30)
        path = stream_chrome_trace(tracer.events,
                                   tmp_path / "trace.json")
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ns"
        kinds = {r["name"] for r in loaded["traceEvents"]}
        assert {"token_tx", "token_rx", "target_cycle",
                "channel_fire"} <= kinds

    def test_creates_parent_directories(self, tmp_path):
        path = stream_chrome_trace([], tmp_path / "deep" / "t.json")
        assert path.exists()
        assert json.loads(path.read_text())["traceEvents"] == []


class TestStreaming:
    def test_streamed_output_matches_batch_export(self, tmp_path):
        """The generator path writes byte-for-byte the same document
        structure ``to_chrome_trace`` builds in memory."""
        events = _traced_run(cycles=30).events
        path = stream_chrome_trace(events, tmp_path / "t.json")
        assert path.suffix == ".json"
        assert json.loads(path.read_text()) == to_chrome_trace(events)

    def test_iter_yields_metadata_before_first_use(self):
        events = _traced_run().events
        seen_pids = set()
        for record in iter_chrome_records(events):
            if record["ph"] == "M" and record["name"] == "process_name":
                seen_pids.add(record["pid"])
            elif record["ph"] != "M":
                assert record["pid"] in seen_pids

    def test_gzip_appends_suffix_and_roundtrips(self, tmp_path):
        events = _traced_run(cycles=30).events
        path = stream_chrome_trace(events, tmp_path / "t.json",
                                   compress=True)
        assert path.name == "t.json.gz"
        with gzip.open(path, "rt") as fh:
            loaded = json.load(fh)
        assert loaded == to_chrome_trace(events)

    def test_gzip_suffix_not_doubled(self, tmp_path):
        path = stream_chrome_trace([], tmp_path / "t.json.gz",
                                   compress=True)
        assert path.name == "t.json.gz"
        with gzip.open(path, "rt") as fh:
            assert json.load(fh)["traceEvents"] == []

    def test_empty_stream_is_valid_json(self, tmp_path):
        path = stream_chrome_trace([], tmp_path / "empty.json")
        loaded = json.loads(path.read_text())
        assert loaded == {"traceEvents": [], "displayTimeUnit": "ns"}
