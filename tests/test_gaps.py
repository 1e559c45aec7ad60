"""Coverage for smaller public surfaces: FMR metrics, NIC counters,
derived core parameters, the one-outstanding memory and sweep
utilities."""

import pytest

from repro.firrtl import make_circuit
from repro.fireripper import EXACT, FAST, FireRipper, PartitionGroup, PartitionSpec
from repro.platform import QSFP_AURORA
from repro.rtl import Simulator
from repro.targets import make_comb_pair_circuit
from repro.targets.accel import make_simple_memory
from repro.uarch.nic import LatencyCounter, NICModel
from repro.uarch.params import GC40_BOOM, LARGE_BOOM


class TestFMRMetric:
    def test_partitioned_fmr_reported(self):
        spec = PartitionSpec(mode=EXACT, groups=[
            PartitionGroup.make("g", ["right"])])
        design = FireRipper(spec).compile(make_comb_pair_circuit())
        result = design.build_simulation(QSFP_AURORA).run(40)
        fmr = result.detail["fmr"]
        assert set(fmr) == {"base", "g"}
        # partitioned FMR is far above the monolithic ~1: the token
        # exchange dominates (the paper's whole motivation for fast-mode)
        assert all(v > 5 for v in fmr.values())

    def test_fast_mode_lowers_fmr(self):
        def fmr_for(mode):
            spec = PartitionSpec(mode=mode, groups=[
                PartitionGroup.make("g", ["right"])])
            design = FireRipper(spec).compile(make_comb_pair_circuit())
            result = design.build_simulation(QSFP_AURORA).run(40)
            return max(result.detail["fmr"].values())

        assert fmr_for(FAST) < fmr_for(EXACT)


class TestNICModel:
    def test_latency_counter(self):
        c = LatencyCounter()
        assert c.average_ns == 0.0
        c.record(10.0)
        c.record(30.0)
        assert c.average_ns == 20.0

    def test_queue_capacity(self):
        nic = NICModel(2, descriptors_per_core=3)
        for slot in range(3):
            nic.post_rx(0, slot)
        assert nic.rx_queue_full(0)
        assert not nic.rx_queue_full(1)
        assert nic.pop_rx(0) == 0  # FIFO

    def test_dma_engines_independent(self):
        nic = NICModel(1)
        t_rx = nic.issue_rx_write(0.0)
        t_tx = nic.issue_tx_read(0.0)
        assert t_rx == t_tx == 0.0  # separate cursors
        assert nic.issue_rx_write(0.0) > 0.0  # same engine serializes


class TestCoreParamsDerived:
    def test_widths_track_issue_width(self):
        assert GC40_BOOM.fetch_width == 6
        assert GC40_BOOM.commit_width == 6
        assert LARGE_BOOM.mem_ports == 1
        assert GC40_BOOM.mem_ports == 3

    def test_mispredict_penalty_grows_with_width(self):
        assert GC40_BOOM.mispredict_penalty \
            > LARGE_BOOM.mispredict_penalty

    def test_area_monotone_with_config(self):
        assert GC40_BOOM.area_mm2() > LARGE_BOOM.area_mm2()
        assert GC40_BOOM.fpga_luts() > LARGE_BOOM.fpga_luts()


class TestSimpleMemory:
    def test_single_outstanding_latency(self):
        sim = Simulator(make_circuit(make_simple_memory(latency=3), []))
        sim.poke("resp_ready", 1)
        sim.poke("req_valid", 1)
        sim.poke("req_bits", 2)
        responses = []
        for cycle in range(12):
            sim.eval()
            if cycle > 0:
                sim.poke("req_valid", 0)
            if sim.peek("resp_valid"):
                responses.append((cycle, sim.peek("resp_bits")))
            sim.tick()
        assert responses
        first_cycle, value = responses[0]
        assert value == 3 * 2 + 1
        assert first_cycle >= 3

    def test_blocks_second_request_until_drained(self):
        sim = Simulator(make_circuit(make_simple_memory(latency=2), []))
        sim.poke("resp_ready", 0)  # never drain
        sim.poke("req_valid", 1)
        sim.poke("req_bits", 0)
        accepted = 0
        for _ in range(10):
            sim.eval()
            accepted += sim.peek("req_ready") and sim.peek("req_valid")
            sim.tick()
        assert accepted == 1


class TestSweepUtilities:
    def test_sweep_point_units(self):
        from repro.experiments.sweeps import SweepPoint

        p = SweepPoint(EXACT, 128, 30.0, "qsfp", 1.5e6, 1.4e6)
        assert p.measured_mhz == pytest.approx(1.5)

    def test_fast_over_exact_requires_both_points(self):
        from repro.experiments.sweeps import (
            fast_over_exact_speedup,
            sweep_grid,
        )

        points = sweep_grid(QSFP_AURORA, widths=(128,),
                            freqs_mhz=(30.0,), cycles=40)
        ratio = fast_over_exact_speedup(points, 128, 30.0)
        assert ratio > 1.0
