"""Cycle-keyed sampling, live status, and the Telemetry session."""

import json

import pytest

from repro.errors import SimulationError
from repro.fireripper import EXACT, FireRipper, PartitionGroup, PartitionSpec
from repro.parallel import fork_available
from repro.platform import QSFP_AURORA
from repro.targets import make_comb_pair_circuit
from repro.telemetry import (
    NULL_TELEMETRY,
    SAMPLE_FIELDS,
    LiveStatus,
    MetricsRegistry,
    Sampler,
    Telemetry,
)


def _run(telemetry, cycles=120, backend="auto"):
    spec = PartitionSpec(mode=EXACT, groups=[
        PartitionGroup.make("fpga1", ["right"])])
    design = FireRipper(spec).compile(make_comb_pair_circuit())
    sim = design.build_simulation(QSFP_AURORA, telemetry=telemetry)
    return sim.run(cycles, backend=backend)


class TestSampler:
    def test_rejects_bad_interval(self):
        with pytest.raises(SimulationError, match=r"\(got 0\)"):
            Sampler(MetricsRegistry(), interval=0)

    def test_samples_every_interval_per_partition(self):
        telemetry = Telemetry(sample_every=25)
        _run(telemetry, cycles=100)
        series = telemetry.sampler.series
        assert set(series) == {"base", "fpga1"}
        for points in series.values():
            cycles = [c for c, _ in points]
            # one sample per 25-cycle threshold crossing, in order
            assert cycles == sorted(cycles)
            assert all(c >= 25 for c in cycles)
            assert len(cycles) == 4

    def test_sample_carries_every_field(self):
        telemetry = Telemetry(sample_every=50)
        _run(telemetry, cycles=60)
        for points in telemetry.sampler.series.values():
            for _, values in points:
                assert set(values) == set(SAMPLE_FIELDS)

    def test_fmr_components_partition_busy_time(self):
        """The sampled span components sum to the sampled busy cursor —
        the same exactness contract the FMR breakdown keeps."""
        telemetry = Telemetry(sample_every=40)
        _run(telemetry, cycles=90)
        for points in telemetry.sampler.series.values():
            for _, values in points:
                parts = (values["compute_ns"] + values["serdes_ns"]
                         + values["link_wait_ns"]
                         + values["credit_stall_ns"]
                         + values["sync_ns"])
                assert parts == pytest.approx(values["busy_ns"])

    def test_state_dict_round_trip(self):
        telemetry = Telemetry(sample_every=30)
        _run(telemetry, cycles=70)
        state = json.loads(json.dumps(telemetry.state_dict()))
        restored = Telemetry(sample_every=30)
        restored.load_state_dict(state)
        assert restored.state_dict() == telemetry.state_dict()
        assert restored.sampler.registry is restored.registry

    def test_detail_is_deterministic_json(self):
        t1, t2 = Telemetry(sample_every=25), Telemetry(sample_every=25)
        _run(t1, cycles=80)
        _run(t2, cycles=80)
        assert json.dumps(t1.detail(), sort_keys=True) \
            == json.dumps(t2.detail(), sort_keys=True)


class TestTelemetrySession:
    def test_result_detail_has_telemetry_payload(self):
        telemetry = Telemetry(sample_every=20)
        result = _run(telemetry, cycles=60)
        payload = result.detail["telemetry"]
        assert payload["sample_every"] == 20
        assert set(payload["series"]) == {"base", "fpga1"}
        assert payload["metrics"]["counters"]["tokens_tx|base"] > 0
        assert payload["metrics"]["counters"]["tokens_rx|fpga1"] > 0

    def test_disabled_session_records_nothing(self):
        result = _run(None, cycles=40)
        assert "telemetry" not in result.detail
        assert NULL_TELEMETRY.enabled is False

    def test_merge_worker_takes_only_owned_partition(self):
        donor = Telemetry(sample_every=20)
        _run(donor, cycles=60)
        parent = Telemetry(sample_every=20)
        parent.merge_worker("fpga1", donor.state_dict())
        assert set(parent.sampler.series) == {"fpga1"}
        assert parent.registry.partitions() == ["fpga1"]
        assert parent.sampler.series["fpga1"] \
            == donor.sampler.series["fpga1"]


class TestAnnotations:
    def test_annotations_merge_into_live_payload(self, tmp_path):
        path = tmp_path / "live.json"
        telemetry = Telemetry(sample_every=50, live_path=path,
                              annotations={"job": "job-000042",
                                           "tenant": "alice"})
        _run(telemetry, cycles=60)
        payload = LiveStatus.read(path)
        assert payload["job"] == "job-000042"
        assert payload["tenant"] == "alice"
        assert payload["status"] == "done"

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_annotations_reach_every_process_backend_payload(
            self, tmp_path, monkeypatch):
        """The coordinator builds its mid-run payloads through the same
        builder, so ``repro watch --job`` keeps the job's identity on a
        process run too."""
        payloads = []
        monkeypatch.setattr(
            LiveStatus, "update",
            lambda self, payload, force=False: payloads.append(payload))
        telemetry = Telemetry(sample_every=50,
                              live_path=tmp_path / "live.json",
                              annotations={"job": "j"})
        _run(telemetry, cycles=300, backend="process")
        assert [p["status"] for p in payloads][-1] == "done"
        assert "running" in [p["status"] for p in payloads]
        assert all(p["job"] == "j" and p["backend"] == "process"
                   for p in payloads)

    def test_annotations_never_override_harness_fields(self):
        telemetry = Telemetry(sample_every=50,
                              annotations={"status": "spoofed",
                                           "extra": "kept"})
        spec = PartitionSpec(mode=EXACT, groups=[
            PartitionGroup.make("fpga1", ["right"])])
        design = FireRipper(spec).compile(make_comb_pair_circuit())
        sim = design.build_simulation(QSFP_AURORA,
                                      telemetry=telemetry)
        sim.run(60)
        payload = telemetry.live_payload(sim, status="running")
        assert payload["status"] == "running"
        assert payload["extra"] == "kept"


class TestLiveStatus:
    def test_writes_and_reads_json(self, tmp_path):
        path = tmp_path / "live" / "status.json"
        live = LiveStatus(path, min_interval_s=0.0)
        live.update({"status": "running", "frontier_cycle": 7})
        payload = LiveStatus.read(path)
        assert payload["status"] == "running"
        assert payload["frontier_cycle"] == 7
        assert "updated" in payload

    def test_throttles_unforced_writes(self, tmp_path):
        path = tmp_path / "status.json"
        live = LiveStatus(path, min_interval_s=3600.0)
        live.update({"n": 1})
        live.update({"n": 2})  # throttled away
        assert LiveStatus.read(path)["n"] == 1
        live.update({"n": 3}, force=True)
        assert LiveStatus.read(path)["n"] == 3

    def test_read_missing_or_torn_file_is_none(self, tmp_path):
        assert LiveStatus.read(tmp_path / "nope.json") is None
        bad = tmp_path / "torn.json"
        bad.write_text('{"status": "run')
        assert LiveStatus.read(bad) is None

    def test_live_run_ends_with_done_status(self, tmp_path):
        path = tmp_path / "status.json"
        telemetry = Telemetry(sample_every=20, live_path=path)
        _run(telemetry, cycles=60)
        payload = LiveStatus.read(path)
        assert payload["status"] == "done"
        assert payload["frontier_cycle"] >= 60
        assert payload["target_cycles"] == 60
        assert set(payload["partitions"]) == {"base", "fpga1"}
