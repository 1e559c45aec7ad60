"""The run supervisor: checkpoints, heartbeats, rollback/resume."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.reliability import (
    FaultSpec,
    InjectedCrash,
    RunSupervisor,
    harden_links,
    inject_faults,
)


class TestHappyPath:
    def test_plain_run_checkpoints_and_completes(self, build_pair):
        report = RunSupervisor(build_pair, checkpoint_every=40).run(120)
        assert report.result.target_cycles == 120
        assert report.rollbacks == 0
        # one checkpoint at cycle 0 plus one per completed segment
        assert report.checkpoints == 4
        assert report.event_kinds() == ["checkpoint"] * 4 + ["complete"]

    def test_matches_unsupervised_run(self, build_pair):
        plain = build_pair()
        expected = plain.run(120)
        report = RunSupervisor(build_pair, checkpoint_every=40).run(120)
        assert report.result == expected
        assert report.output_log == plain.output_log

    def test_heartbeats_record_per_partition_progress(self, build_pair):
        report = RunSupervisor(build_pair, checkpoint_every=50).run(100)
        assert [hb["base"] for hb in report.heartbeats] == [0, 50, 100]
        assert all(set(hb) == {"base", "fpga1"}
                   for hb in report.heartbeats)

    def test_on_disk_checkpoints(self, build_pair, tmp_path):
        RunSupervisor(build_pair, checkpoint_every=50,
                      checkpoint_dir=tmp_path).run(100)
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert names == ["checkpoint-0.json", "checkpoint-100.json",
                         "checkpoint-50.json"]

    def test_on_disk_checkpoint_is_the_rollback_snapshot(
            self, build_pair, tmp_path, monkeypatch):
        """One capture per checkpoint: the file is written from the
        state already captured for rollback, not from a second pass
        over the simulation."""
        from repro.reliability import (checkpoint, load_checkpoint,
                                       supervisor)
        captured = []

        def counting_capture(sim):
            captured.append(capture_state(sim))
            return captured[-1]

        capture_state = supervisor.capture_state
        for module in (supervisor, checkpoint):
            monkeypatch.setattr(module, "capture_state",
                                counting_capture)
        report = RunSupervisor(build_pair, checkpoint_every=50,
                               checkpoint_dir=tmp_path).run(100)
        assert len(captured) == report.checkpoints == 3
        assert load_checkpoint(tmp_path / "checkpoint-100.json") \
            == captured[-1]

    def test_invalid_interval_rejected(self, build_pair):
        with pytest.raises(SimulationError):
            RunSupervisor(build_pair, checkpoint_every=0)


class TestCrashRecovery:
    def test_crash_rolls_back_and_result_is_unchanged(self, build_pair):
        plain = build_pair()
        expected = plain.run(120)
        report = RunSupervisor(build_pair, checkpoint_every=40,
                               crash_at_cycles=[75]).run(120)
        assert report.rollbacks == 1
        kinds = report.event_kinds()
        assert "crash" in kinds and "rollback" in kinds
        assert kinds.index("crash") < kinds.index("rollback")
        assert report.result == expected
        assert report.output_log == plain.output_log

    def test_multiple_crashes_recovered(self, build_pair):
        expected = build_pair().run(160)
        report = RunSupervisor(build_pair, checkpoint_every=40,
                               crash_at_cycles=[50, 90, 130]).run(160)
        assert report.rollbacks == 3
        assert report.result == expected

    def test_crash_during_faulty_reliable_run(self, build_fame5):
        spec = FaultSpec(seed=5, drop_rate=0.02, corrupt_rate=0.02)

        def build():
            sim = build_fame5()
            harden_links(sim, spec)
            return sim

        baseline = RunSupervisor(build, checkpoint_every=40).run(120)
        crashed = RunSupervisor(build, checkpoint_every=40,
                                crash_at_cycles=[75, 110]).run(120)
        assert crashed.result == baseline.result
        assert crashed.output_log == baseline.output_log
        assert crashed.rollbacks == 2

    def test_injected_crash_carries_cycle(self):
        exc = InjectedCrash(42)
        assert exc.cycle == 42
        assert "42" in str(exc)


class TestSupervisorTracing:
    def test_checkpoints_and_heartbeats_emit_events(self, build_pair):
        from repro.observability import RecordingTracer

        tracer = RecordingTracer()
        RunSupervisor(build_pair, checkpoint_every=40,
                      tracer=tracer).run(120)
        counts = tracer.counts()
        assert counts["checkpoint"] == counts["heartbeat"]
        assert counts["checkpoint"] >= 4  # initial + one per segment
        for event in tracer.events:
            assert event.scope == "supervisor"
            assert "cycle" in event.args

    def test_crash_and_rollback_emit_events(self, build_pair):
        from repro.observability import RecordingTracer

        tracer = RecordingTracer()
        RunSupervisor(build_pair, checkpoint_every=40,
                      crash_at_cycles=[75], tracer=tracer).run(120)
        crashes = tracer.of_kind("crash")
        rollbacks = tracer.of_kind("rollback")
        assert len(crashes) == 1 and len(rollbacks) == 1
        assert "injected crash" in crashes[0].args["error"]
        assert rollbacks[0].args["after"] == "crash"

    def test_untraced_supervisor_emits_nothing(self, build_pair):
        report = RunSupervisor(build_pair, checkpoint_every=40).run(80)
        assert report.checkpoints >= 2  # ran fine with the null tracer


class TestStallEscalation:
    def test_persistent_deadlock_gives_up_after_max_rollbacks(
            self, build_pair):
        def build():
            sim = build_pair()
            # heavy unrecovered drops: the run deterministically
            # deadlocks, so every rollback replays into the same stall
            inject_faults(sim, FaultSpec(seed=2, drop_rate=0.3))
            return sim

        supervisor = RunSupervisor(build, checkpoint_every=40,
                                   max_rollbacks=2)
        with pytest.raises(DeadlockError):
            supervisor.run(200)
