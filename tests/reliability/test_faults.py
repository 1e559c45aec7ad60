"""Deterministic fault injection and its unprotected failure modes."""

import pytest

from repro.errors import DeadlockError
from repro.libdn import ChannelSpec, codec_for
from repro.platform import QSFP_AURORA, SwitchedEthernetTransport
from repro.reliability import (
    FaultInjector,
    FaultSpec,
    FaultyTransport,
    corrupt_word,
    inject_faults,
    word_crc,
)

#: tokens cross the hook path as (packed word, source codec)
CODEC = codec_for(ChannelSpec.make("c", [("a", 8), ("b", 1)]))
TOKEN = (CODEC.encode({"a": 5, "b": 0}), CODEC)


class TestSchedule:
    def test_same_seed_same_outcomes(self):
        spec = FaultSpec(seed=4, drop_rate=0.2, corrupt_rate=0.2,
                         spike_rate=0.2)
        a = FaultInjector(spec)
        b = FaultInjector(spec)
        outs_a = [a.outcome("l", seq, 0, 0.0, *TOKEN)
                  for seq in range(50)]
        outs_b = [b.outcome("l", seq, 0, 0.0, *TOKEN)
                  for seq in range(50)]
        assert outs_a == outs_b
        assert any(not o.clean for o in outs_a)

    def test_different_seed_differs(self):
        kinds = []
        for seed in (1, 2):
            inj = FaultInjector(FaultSpec(seed=seed, drop_rate=0.3,
                                          corrupt_rate=0.3))
            kinds.append([inj.outcome("l", s, 0, 0.0, *TOKEN).dropped
                          for s in range(60)])
        assert kinds[0] != kinds[1]

    def test_links_see_independent_streams(self):
        inj = FaultInjector(FaultSpec(seed=9, drop_rate=0.5))
        a = [inj.outcome("linkA", s, 0, 0.0, *TOKEN).dropped
             for s in range(60)]
        b = [inj.outcome("linkB", s, 0, 0.0, *TOKEN).dropped
             for s in range(60)]
        assert a != b

    def test_retries_get_fresh_rolls(self):
        inj = FaultInjector(FaultSpec(seed=3, drop_rate=0.99))
        outcomes = [inj.outcome("l", 0, attempt, 0.0, *TOKEN)
                    for attempt in range(200)]
        assert any(o.clean for o in outcomes)  # eventually goes through

    def test_flap_window_blocks_attempts(self):
        inj = FaultInjector(FaultSpec(flaps=((1000.0, 500.0),)))
        down = inj.outcome("l", 0, 0, 1200.0, *TOKEN)
        assert down.link_down_until == 1500.0
        assert inj.outcome("l", 0, 0, 999.0, *TOKEN).clean
        assert inj.outcome("l", 0, 0, 1500.0, *TOKEN).clean

    def test_zero_rates_always_clean(self):
        inj = FaultInjector(FaultSpec(seed=1))
        assert all(inj.outcome("l", s, 0, 0.0, *TOKEN).clean
                   for s in range(100))


class TestCrc:
    def test_single_bit_corruption_detected(self):
        codec = codec_for(ChannelSpec.make("c", [("x", 3), ("y", 27)]))
        word = codec.encode({"x": 7, "y": 123456789})
        for port in ("x", "y"):
            assert word_crc(corrupt_word(word, codec, port, 0), codec) \
                != word_crc(word, codec)

    def test_crc_covers_the_wire_bytes(self):
        """Fixed-width framing: leading zero bytes are on the wire, so
        the same value under a wider layout frames differently."""
        wide = codec_for(ChannelSpec.make("w", [("a", 8), ("b", 24)]))
        assert word_crc(5, CODEC) != word_crc(5, wide)

    def test_corrupt_token_flips_one_bit(self):
        def flipped(token, port, bit=0):
            return CODEC.decode(
                corrupt_word(CODEC.encode(token), CODEC, port, bit))

        assert flipped({"a": 0b100, "b": 0}, "a") == {"a": 0b101, "b": 0}
        assert flipped({"a": 0b101, "b": 0}, "a") == {"a": 0b100, "b": 0}
        # the flip lands at the port's codec offset...
        assert flipped({"a": 0, "b": 0}, "b") == {"a": 0, "b": 1}
        assert flipped({"a": 0xFF, "b": 1}, "b") == {"a": 0xFF, "b": 0}
        assert flipped({"a": 0, "b": 0}, "a", bit=7) == {"a": 0x80, "b": 0}
        # ...and a 1-bit port has no bit 1: the flip stays inside it
        assert flipped({"a": 0, "b": 0}, "b", bit=1) == {"a": 0, "b": 0}

    def test_corrupt_outcome_names_a_source_port(self):
        """Same ``sorted`` port list and RNG draws as the dict plane:
        the schedule is a function of the codec's port names, never of
        the payload."""
        inj = FaultInjector(FaultSpec(seed=5, corrupt_rate=1.0))
        outs = [inj.outcome("l", seq, 0, 0.0, *TOKEN) for seq in range(40)]
        assert {o.corrupt_port for o in outs} == {"a", "b"}
        other = CODEC.encode({"a": 200, "b": 1})
        assert outs == [inj.outcome("l", seq, 0, 0.0, other, CODEC)
                        for seq in range(40)]


class TestFaultyTransport:
    def test_delegates_timing_to_base(self):
        wrapped = FaultyTransport(QSFP_AURORA,
                                  FaultInjector(FaultSpec()))
        assert wrapped.wire_ns(128) == QSFP_AURORA.wire_ns(128)
        assert wrapped.serdes_cycles(128) == \
            QSFP_AURORA.serdes_cycles(128)
        assert wrapped.latency_ns == QSFP_AURORA.latency_ns
        assert wrapped.apply_rate_cap(5.0) == 5.0
        assert getattr(wrapped, "switch", None) is None
        assert wrapped.name == "faulty(qsfp_aurora)"

    def test_forwards_switch_attribute(self):
        base = SwitchedEthernetTransport(
            name="eth", latency_ns=1000.0, bandwidth_gbps=100.0,
            per_token_overhead_ns=100.0, flit_bits=256)
        wrapped = FaultyTransport(base, FaultInjector(FaultSpec()))
        assert wrapped.switch is None  # present, delegated


class TestUnprotectedFailureModes:
    def test_drops_without_recovery_deadlock(self, build_pair):
        sim = build_pair()
        inject_faults(sim, FaultSpec(seed=2, drop_rate=0.2))
        with pytest.raises(DeadlockError):
            sim.run(200)
        assert sim.dropped_tokens > 0

    def test_corruption_without_recovery_wrongs_results(self,
                                                        build_pair):
        clean = build_pair()
        clean.run(120)
        sim = build_pair()
        inject_faults(sim, FaultSpec(seed=2, corrupt_rate=0.1))
        sim.run(120)
        assert sim.output_log != clean.output_log
