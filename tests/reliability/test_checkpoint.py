"""Checkpoint/restore of partitioned runs."""

import json

import pytest

from repro.errors import CheckpointError
from repro.fireripper import (FAST, FireRipper, NoCPartitionSpec,
                              PartitionSpec)
from repro.platform import QSFP_AURORA
from repro.reliability import (
    CHECKPOINT_VERSION,
    FaultSpec,
    capture_state,
    harden_links,
    load_checkpoint,
    restore_checkpoint,
    restore_state,
    save_checkpoint,
)
from repro.targets.soc import make_ring_noc_soc


def _json_roundtrip(state):
    """What an on-disk checkpoint goes through (tuples become lists,
    int keys become strings...)."""
    return json.loads(json.dumps(state))


class TestMidFlightRestore:
    def test_restored_run_matches_uninterrupted(self, build_pair):
        uninterrupted = build_pair()
        expected = uninterrupted.run(120)

        first = build_pair()
        first.run(47)
        state = _json_roundtrip(capture_state(first))

        resumed = build_pair()  # a fresh "process"
        restore_state(resumed, state)
        result = resumed.run(120)

        assert result == expected  # cycles, rate, tokens, per-part, fmr
        assert resumed.output_log == uninterrupted.output_log

    def test_restore_is_bit_exact_state(self, build_pair):
        sim = build_pair()
        sim.run(31)
        state = _json_roundtrip(capture_state(sim))
        clone = build_pair()
        restore_state(clone, state)
        assert capture_state(clone) == capture_state(sim)

    def test_fame5_restore_is_functionally_exact(self, build_fame5):
        """FAME-5 partitions share one busy_until cursor across threads,
        so the timing overlay depends on the stop/resume schedule — but
        the functional state (cycles, tokens, outputs) is exact."""
        uninterrupted = build_fame5()
        expected = uninterrupted.run(100)

        first = build_fame5()
        first.run(41)
        state = _json_roundtrip(capture_state(first))
        resumed = build_fame5()
        restore_state(resumed, state)
        result = resumed.run(100)

        assert result.target_cycles == expected.target_cycles
        assert result.tokens_transferred == expected.tokens_transferred
        assert result.per_partition_cycles == \
            expected.per_partition_cycles
        assert resumed.output_log == uninterrupted.output_log
        # timing is schedule-dependent but stays within one percent
        assert result.rate_hz == pytest.approx(expected.rate_hz,
                                               rel=0.01)

    def test_reliable_faulty_run_survives_checkpoint(self, build_pair):
        spec = FaultSpec(seed=11, drop_rate=0.03, corrupt_rate=0.02)

        def build():
            sim = build_pair()
            harden_links(sim, spec)
            return sim

        uninterrupted = build()
        expected = uninterrupted.run(120)

        first = build()
        first.run(59)
        state = _json_roundtrip(capture_state(first))
        resumed = build()
        restore_state(resumed, state)
        result = resumed.run(120)

        assert result == expected
        assert resumed.output_log == uninterrupted.output_log


class TestOnDiskFormat:
    def test_save_load_restore(self, build_pair, tmp_path):
        sim = build_pair()
        sim.run(40)
        path = save_checkpoint(sim, tmp_path / "run" / "ckpt.json")
        assert path.exists()

        fresh = build_pair()
        restore_checkpoint(fresh, path)
        assert fresh.run(90) == build_pair().run(90)

    def test_version_mismatch_rejected(self, build_pair):
        sim = build_pair()
        state = capture_state(sim)
        state["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            restore_state(build_pair(), state)

    def test_format_mismatch_rejected(self, build_pair, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{truncated")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(path)

    def test_topology_mismatch_rejected(self, build_pair, build_fame5):
        pair = build_pair()
        pair.run(10)
        state = capture_state(pair)
        with pytest.raises(CheckpointError, match="topology"):
            restore_state(build_fame5(), state)

    def test_split_fired_flags_of_a_dep_free_host_rejected(self):
        """A dep-free host fires all its outputs together; a capture
        with only some of them fired is no state a run leaves, and the
        fused kernels it runs on cannot model it."""
        spec = PartitionSpec(mode=FAST,
                             noc=NoCPartitionSpec.make([[0], [1]]))
        design = FireRipper(spec).compile(
            make_ring_noc_soc(2, messages_per_tile=2))
        sim = design.build_simulation(QSFP_AURORA)
        sim.run(10)
        state = _json_roundtrip(capture_state(sim))
        fired = state["partitions"]["noc0"]["host"]["fired"]
        assert len(fired) > 1 and len(set(fired.values())) == 1
        fired[next(iter(fired))] = not next(iter(fired.values()))
        with pytest.raises(CheckpointError, match="noc0"):
            restore_state(design.build_simulation(QSFP_AURORA), state)

    def test_missing_link_layer_rejected(self, build_pair):
        hardened = build_pair()
        harden_links(hardened)
        hardened.run(10)
        state = capture_state(hardened)
        bare = build_pair()
        with pytest.raises(CheckpointError, match="reliable link layer"):
            restore_state(bare, state)
