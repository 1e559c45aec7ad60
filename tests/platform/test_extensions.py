"""Sec. VIII extensions: switched Ethernet, hybrid planner, VCD dump."""

import io

import pytest

from repro.errors import SimulationError
from repro.firrtl import make_circuit
from repro.fireripper import FAST, FireRipper, NoCPartitionSpec, PartitionSpec
from repro.harness import ConstantSource
from repro.harness.partitioned import Partition, PartitionedSimulation
from repro.libdn import LIBDNHost
from repro.platform import (
    Campaign,
    ETHERNET_100G,
    QSFP_AURORA,
    SwitchFabric,
    format_plan,
    make_switched_links,
    plan_hybrid,
)
from repro.rtl import Simulator, VCDWriter, dump_vcd
from repro.targets.soc import make_ring_noc_soc


def _ethernet_sim(design, **kwargs):
    """``design`` with every link on one shared switch fabric (also the
    switched build of ``tests/harness/test_stepjit.py``)."""
    links, fabric = make_switched_links(design.plan.links)
    partitions = []
    sources = {}
    for name, circuit in design.partitions.items():
        chans = design.plan.channels[name]
        host = LIBDNHost(Simulator(circuit), chans.in_specs,
                         chans.out_specs, name=name)
        partitions.append(Partition(name, host, 30.0))
        for chan_name in chans.external_in:
            spec = next(s for s in chans.in_specs
                        if s.name == chan_name)
            sources[(name, chan_name)] = ConstantSource(
                {p: 0 for p in spec.port_names})
    return PartitionedSimulation(partitions, links, sources=sources,
                                 seed_boundary=True, **kwargs), fabric


class TestSwitchedEthernet:
    @pytest.fixture(scope="class")
    def design(self):
        circuit = make_ring_noc_soc(4, messages_per_tile=3)
        spec = PartitionSpec(mode=FAST,
                             noc=NoCPartitionSpec.make([[0, 1], [2, 3]]))
        return FireRipper(spec).compile(circuit)

    def test_functionally_correct(self, design):
        sim, _ = _ethernet_sim(design)
        sim.record_outputs = True

        def stop(s):
            log = s.output_log.get(("base", "io_out"), [])
            return bool(log) and log[-1]["done"] == 1

        sim.run(20_000, stop=stop)
        log = sim.output_log[("base", "io_out")]
        assert log[-1]["result"] == 4 * sum(range(1, 4))

    def test_slower_than_direct_qsfp(self, design):
        eth_sim, fabric = _ethernet_sim(design)
        eth = eth_sim.run(300)
        qsfp = design.build_simulation(QSFP_AURORA).run(300)
        assert eth.rate_hz < qsfp.rate_hz
        assert fabric.tokens > 0

    def test_switch_backplane_serializes(self):
        fabric = SwitchFabric()
        t1 = fabric.traverse(0.0, 1024)
        t2 = fabric.traverse(0.0, 1024)
        assert t2 > t1

    def test_with_switch_preserves_link_constants(self):
        fabric = SwitchFabric()
        attached = ETHERNET_100G.with_switch(fabric)
        assert attached.latency_ns == ETHERNET_100G.latency_ns
        assert attached.switch is fabric


class TestHybridPlanner:
    def test_cloud_wins_small_campaigns(self):
        rec, _ = plan_hybrid(Campaign(2, dev_hours=40,
                                      bench_sim_hours=200))
        assert rec.name == "pure cloud"

    def test_onprem_wins_sustained_load(self):
        rec, _ = plan_hybrid(Campaign(2, dev_hours=500,
                                      bench_sim_hours=60_000,
                                      bench_parallelism=2))
        assert rec.name == "pure on-prem"

    def test_hybrid_wins_dev_heavy_bursty(self):
        rec, _ = plan_hybrid(Campaign(2, dev_hours=4_000,
                                      bench_sim_hours=3_000,
                                      bench_parallelism=8))
        assert rec.name.startswith("hybrid")

    def test_onprem_is_faster_per_sim(self):
        _, strategies = plan_hybrid(Campaign(2, 100, 100))
        by_name = {s.name: s for s in strategies}
        assert by_name["pure on-prem"].bench_rate_mhz \
            > by_name["pure cloud"].bench_rate_mhz

    def test_format(self):
        text = format_plan(Campaign(2, 100, 1000))
        assert "usable LUT advantage" in text
        assert "->" in text


class TestVCD:
    def test_dump_structure(self, counter_circuit):
        sim = Simulator(counter_circuit)
        text = dump_vcd(sim, 5, inputs={"en": 1})
        assert "$enddefinitions $end" in text
        assert "$var wire 8" in text      # count/r are 8-bit
        assert "#0" in text and "#4" in text

    def test_only_changes_emitted(self, counter_circuit):
        sim = Simulator(counter_circuit)
        text = dump_vcd(sim, 4, inputs={"en": 0})
        # with the counter disabled, values appear once and never again
        body = text.split("$enddefinitions $end")[1]
        assert body.count("b0 ") <= len(sim.elab.widths)

    def test_selected_signals_only(self, counter_circuit):
        sim = Simulator(counter_circuit)
        buffer = io.StringIO()
        writer = VCDWriter(sim, buffer, signals=["count"])
        writer.run(3, inputs={"en": 1})
        text = buffer.getvalue()
        assert "count" in text and " en " not in text

    def test_unknown_signal_rejected(self, counter_circuit):
        sim = Simulator(counter_circuit)
        with pytest.raises(SimulationError):
            VCDWriter(sim, io.StringIO(), signals=["ghost"])

    def test_values_match_simulation(self, counter_circuit):
        sim = Simulator(counter_circuit)
        text = dump_vcd(sim, 6, inputs={"en": 1})
        # the counter's value at timestep 5 must appear as b101
        assert "b101 " in text
