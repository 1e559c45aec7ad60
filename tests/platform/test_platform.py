"""FPGA profiles, resource estimation, transport models."""

import pytest

from repro.errors import ResourceError
from repro.firrtl import ModuleBuilder, build_circuit, make_circuit
from repro.platform import (
    AWS_VU9P,
    HOST_PCIE,
    PCIE_P2P,
    QSFP_AURORA,
    XILINX_U250,
    FPGAResources,
    estimate_circuit_resources,
    estimate_core_area_mm2,
)
from repro.platform.estimate import core_area_to_luts
from repro.targets.tinycore import make_tiny_core
from repro.targets.programs import boot_program
from repro.uarch.params import GC40_BOOM, LARGE_BOOM


class TestProfiles:
    def test_u250_has_more_usable_luts_than_vu9p(self):
        ratio = XILINX_U250.usable.luts / AWS_VU9P.usable.luts
        assert 1.4 < ratio < 1.6  # paper: "50% more LUTs"

    def test_fit_ok(self):
        util = XILINX_U250.check_fit(FPGAResources(luts=100_000))
        assert util["luts"] < 0.1

    def test_overflow_rejected(self):
        with pytest.raises(ResourceError):
            XILINX_U250.check_fit(FPGAResources(luts=3e6))

    def test_congestion_threshold(self):
        luts = XILINX_U250.usable.luts * 0.8
        with pytest.raises(ResourceError, match="congestion"):
            XILINX_U250.check_fit(FPGAResources(luts=luts))

    def test_resource_arithmetic(self):
        a = FPGAResources(luts=10, ffs=20)
        b = FPGAResources(luts=5, bram36=2)
        total = a + b
        assert total.luts == 15 and total.ffs == 20 and total.bram36 == 2
        assert total.scale(2).luts == 30


class TestCircuitEstimation:
    def test_register_costs_ffs(self, counter_circuit):
        res = estimate_circuit_resources(counter_circuit)
        assert res.ffs == 8
        assert res.luts > 0

    def test_small_memory_is_lutram(self):
        b = ModuleBuilder("M")
        addr = b.input("a", 3)
        out = b.output("o", 8)
        m = b.mem("m", 8, 8)
        rd = b.mem_read(m, "r", addr)
        b.connect(out, rd)
        res = estimate_circuit_resources(build_circuit(b))
        assert res.bram36 == 0
        assert res.luts >= 1

    def test_large_memory_uses_bram(self):
        b = ModuleBuilder("M")
        addr = b.input("a", 12)
        out = b.output("o", 32)
        m = b.mem("m", 4096, 32)
        rd = b.mem_read(m, "r", addr)
        b.connect(out, rd)
        res = estimate_circuit_resources(build_circuit(b))
        assert res.bram36 >= 4

    def test_fame5_shares_combinational(self):
        core = make_tiny_core(boot_program(5))
        b = ModuleBuilder("Quad")
        done = b.output("done", 1)
        cores = [b.inst(f"c{i}", core) for i in range(4)]
        acc = cores[0]["done"].read()
        for c in cores[1:]:
            acc = acc & c["done"].read()
        b.connect(done, acc)
        for c in cores:
            b.connect(c["in_valid"], 0)
            b.connect(c["in_bits"], 0)
            b.connect(c["out_ready"], 0)
        circuit = make_circuit(b.build(), [core])
        plain = estimate_circuit_resources(circuit)
        threaded = estimate_circuit_resources(
            circuit, fame5_threads={core.name: 4})
        assert threaded.luts < plain.luts * 0.5  # comb shared
        assert threaded.ffs == plain.ffs         # state replicated


class TestCoreAreaModel:
    def test_anchors_near_paper(self):
        large = LARGE_BOOM.area_mm2()
        gc40 = GC40_BOOM.area_mm2()
        assert abs(large - 0.79) / 0.79 < 0.05
        assert abs(gc40 - 1.56) / 1.56 < 0.05

    def test_monotonic_in_issue_width(self):
        small = estimate_core_area_mm2(2, 64, 80, 80, 16, 16, 16, 32, 32)
        big = estimate_core_area_mm2(8, 64, 80, 80, 16, 16, 16, 32, 32)
        assert big > small

    def test_gc40_exceeds_congestion_on_u250(self):
        luts = core_area_to_luts(GC40_BOOM.area_mm2())
        with pytest.raises(ResourceError):
            XILINX_U250.check_fit(FPGAResources(luts=luts))


class TestTransports:
    def test_latency_ordering(self):
        assert QSFP_AURORA.wire_ns(500) < PCIE_P2P.wire_ns(500) \
            < HOST_PCIE.wire_ns(500)

    def test_serdes_scales_with_width(self):
        assert QSFP_AURORA.serdes_cycles(128) == 1
        assert QSFP_AURORA.serdes_cycles(1280) == 10

    def test_rate_cap(self):
        assert HOST_PCIE.apply_rate_cap(1e6) == 26_400.0
        assert QSFP_AURORA.apply_rate_cap(1e6) == 1e6
