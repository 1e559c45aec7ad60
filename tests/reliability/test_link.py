"""The reliable link layer: recovery guarantees and timing cost."""

import pytest

from repro.errors import LinkGiveUpError
from repro.parallel.coordinator import fork_available
from repro.reliability import (
    FaultSpec,
    ReliableLinkConfig,
    ReliableLinkLayer,
    harden_links,
)

#: the acceptance scenario: drops + corruption + one link flap
MIXED_FAULTS = FaultSpec(seed=3, drop_rate=0.03, corrupt_rate=0.02,
                         spike_rate=0.02, flaps=((40_000.0, 60_000.0),))


class TestRecovery:
    def test_faulty_run_bit_identical_but_slower(self, build_pair):
        clean = build_pair()
        harden_links(clean)
        clean_result = clean.run(200)

        faulty = build_pair()
        harden_links(faulty, MIXED_FAULTS)
        faulty_result = faulty.run(200)

        assert faulty.output_log == clean.output_log
        assert faulty_result.target_cycles == clean_result.target_cycles
        assert faulty_result.tokens_transferred == \
            clean_result.tokens_transferred
        assert faulty_result.rate_hz < clean_result.rate_hz

    def test_every_fault_class_recovered_and_counted(self, build_pair):
        sim = build_pair()
        harden_links(sim, MIXED_FAULTS)
        result = sim.run(200)
        stats = result.detail["reliability"]
        totals = {key: sum(s[key] for s in stats.values())
                  for key in ("retries", "drops_recovered",
                              "crc_rejects", "flap_stalls", "spikes")}
        assert totals["drops_recovered"] > 0
        assert totals["crc_rejects"] > 0
        assert totals["flap_stalls"] > 0
        assert totals["spikes"] > 0
        assert totals["retries"] >= (totals["drops_recovered"]
                                     + totals["crc_rejects"]
                                     + totals["flap_stalls"])
        assert sim.dropped_tokens == 0  # nothing lost end-to-end

    def test_reliability_is_not_free(self, build_pair):
        bare = build_pair()
        bare_result = bare.run(120)
        hardened = build_pair()
        harden_links(hardened)
        hardened_result = hardened.run(120)
        # same results, but the ack/CRC framing costs a little rate
        assert hardened.output_log == bare.output_log
        assert hardened_result.rate_hz < bare_result.rate_hz
        assert hardened_result.rate_hz > 0.9 * bare_result.rate_hz

    def test_deeper_faults_cost_more(self, build_pair):
        rates = []
        for drop in (0.0, 0.05, 0.25):
            sim = build_pair()
            harden_links(sim, FaultSpec(seed=1, drop_rate=drop))
            rates.append(sim.run(150).rate_hz)
        assert rates[0] > rates[1] > rates[2]

    @pytest.mark.parametrize("backend", ["inproc", pytest.param(
        "process", marks=pytest.mark.skipif(
            not fork_available(), reason="needs os.fork"))])
    def test_retry_budget_exhaustion_raises(self, build_pair, backend):
        """Typed, with its fields, from a worker process too."""
        sim = build_pair()
        harden_links(sim, FaultSpec(seed=1, drop_rate=1.0),
                     ReliableLinkConfig(max_retries=4))
        with pytest.raises(LinkGiveUpError) as err:
            sim.run(50, backend=backend)
        assert err.value.attempts == 5
        assert "undeliverable" in str(err.value)


class TestLayerState:
    def test_sequence_numbers_track_deliveries(self, build_pair):
        sim = build_pair()
        harden_links(sim, MIXED_FAULTS)
        sim.run(80)
        for link in sim.links:
            layer = link.reliability
            assert layer.tx_seq == layer.rx_seq == \
                layer.stats["delivered"]
            assert layer.tx_seq == link.tokens

    def test_state_dict_roundtrip(self):
        layer = ReliableLinkLayer()
        layer.tx_seq = layer.rx_seq = 17
        layer.stats["retries"] = 5
        clone = ReliableLinkLayer()
        clone.load_state_dict(layer.state_dict())
        assert clone.tx_seq == 17
        assert clone.rx_seq == 17
        assert clone.stats == layer.stats

    def test_backoff_grows_and_caps(self):
        layer = ReliableLinkLayer(ReliableLinkConfig(
            timeout_ns=100.0, backoff=2.0, max_backoff_ns=350.0))
        waits = [layer._retry_wait_ns(a) for a in range(4)]
        assert waits == [100.0, 200.0, 350.0, 350.0]
