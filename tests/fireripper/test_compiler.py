"""End-to-end FireRipper compiles and co-simulations."""

import copy

import pytest

from repro.errors import CompileError, SelectionError
from repro.fireripper import (
    EXACT,
    FAST,
    FireRipper,
    NoCPartitionSpec,
    PartitionGroup,
    PartitionSpec,
    auto_partition,
)
from repro.harness import MonolithicSimulation
from repro.platform import HOST_PCIE, QSFP_AURORA, XILINX_U250
from repro.targets import make_comb_pair_circuit
from repro.targets.soc import (
    make_ring_noc_soc,
    make_rocket_like_soc,
    make_star_soc,
)


def _compile(circuit, mode=EXACT, paths=("right",)):
    spec = PartitionSpec(mode=mode, groups=[
        PartitionGroup.make("fpga1", list(paths))])
    return FireRipper(spec).compile(circuit)


def _first_done_cycle(sim, max_cycles=60_000):
    def stop(s):
        log = s.output_log.get(("base", "io_out"), [])
        return bool(log) and log[-1]["done"] == 1

    sim.run(max_cycles, stop=stop)
    log = sim.output_log[("base", "io_out")]
    return next(i for i, t in enumerate(log) if t["done"]), log[-1]


class TestSpecValidation:
    def test_mode_checked(self):
        with pytest.raises(SelectionError):
            PartitionSpec(mode="turbo",
                          groups=[PartitionGroup.make("g", ["x"])])

    def test_groups_xor_noc(self):
        with pytest.raises(SelectionError):
            PartitionSpec(mode=EXACT)
        with pytest.raises(SelectionError):
            PartitionSpec(mode=EXACT,
                          groups=[PartitionGroup.make("g", ["x"])],
                          noc=NoCPartitionSpec.make([[0]]))

    def test_num_fpgas(self):
        spec = PartitionSpec(mode=EXACT, groups=[
            PartitionGroup.make("a", ["x"]),
            PartitionGroup.make("b", ["y"])])
        assert spec.num_fpgas == 3


class TestExactEquivalence:
    def test_comb_pair_trace_matches(self):
        circuit = make_comb_pair_circuit()
        mono = MonolithicSimulation(circuit)
        trace = [mono.sim.step({}) for _ in range(6)]

        design = _compile(circuit, EXACT)
        sim = design.build_simulation(QSFP_AURORA, record_outputs=True)
        sim.run(6)
        log = sim.output_log[("base", "io_out")]
        assert [t["x_obs"] for t in log] == [t["x_obs"] for t in trace]
        assert [t["y_obs"] for t in log] == [t["y_obs"] for t in trace]

    def test_rocket_soc_cycle_exact(self):
        circuit = make_rocket_like_soc(10, 4)
        mono = MonolithicSimulation(circuit)
        ref = mono.run_until("done", 1).target_cycles

        design = _compile(make_rocket_like_soc(10, 4), EXACT,
                          paths=("rockettile",))
        sim = design.build_simulation(QSFP_AURORA, record_outputs=True)
        done_cycle, last = _first_done_cycle(sim)
        assert done_cycle == ref
        assert last["result"] == sum(range(1, 5))


class TestFastMode:
    def test_rocket_soc_results_correct_cycles_approximate(self):
        circuit = make_rocket_like_soc(10, 4)
        mono = MonolithicSimulation(circuit)
        ref = mono.run_until("done", 1).target_cycles

        design = _compile(make_rocket_like_soc(10, 4), FAST,
                          paths=("rockettile",))
        sim = design.build_simulation(QSFP_AURORA, record_outputs=True)
        done_cycle, last = _first_done_cycle(sim)
        assert last["result"] == sum(range(1, 5))  # values exact
        assert done_cycle != ref                   # cycles approximate
        assert abs(done_cycle - ref) / ref < 0.10  # but close

    def test_fast_faster_than_exact(self):
        circuit = make_comb_pair_circuit()
        exact = _compile(circuit, EXACT).build_simulation(QSFP_AURORA)
        fast = _compile(circuit, FAST).build_simulation(QSFP_AURORA)
        r_exact = exact.run(60).rate_hz
        r_fast = fast.run(60).rate_hz
        # both directions of this boundary carry combinational
        # logic, so exact pays two full sequential crossings;
        # the paper's ~2x is the lower edge of this ratio
        assert 1.4 < r_fast / r_exact < 3.3

    def test_missing_rv_bundle_spec_rejected(self):
        spec = PartitionSpec(mode=FAST,
                             groups=[PartitionGroup.make("g", ["right"])],
                             rv_bundles=["no_such_bundle"])
        with pytest.raises(CompileError):
            FireRipper(spec).compile(make_comb_pair_circuit())


class TestNoCMode:
    def test_selection_and_equivalence(self):
        circuit = make_ring_noc_soc(4, messages_per_tile=3)
        mono = MonolithicSimulation(circuit)
        ref = mono.run_until("done", 1).target_cycles

        spec = PartitionSpec(mode=EXACT,
                             noc=NoCPartitionSpec.make([[0, 1], [2, 3]]))
        design = FireRipper(spec).compile(
            make_ring_noc_soc(4, messages_per_tile=3))
        members = design.extracted.group_members
        assert sorted(members["noc0"]) == [
            "conv0", "conv1", "router0", "router1", "tile0", "tile1"]
        sim = design.build_simulation(QSFP_AURORA, record_outputs=True)
        done_cycle, last = _first_done_cycle(sim)
        assert done_cycle == ref
        assert last["result"] == 4 * sum(range(1, 4))

    def test_members_are_listed_in_index_order(self):
        """Digit runs sort as numbers: noc1 of the 24-tile ring lists
        router6 ... router11, not router10, router11, router6, ..., so
        repeated groups print one kernel template."""
        spec = PartitionSpec(mode=FAST, noc=NoCPartitionSpec.make(
            [list(range(i * 6, i * 6 + 6)) for i in range(4)]))
        design = FireRipper(spec).compile(
            make_ring_noc_soc(24, messages_per_tile=2))
        wrapper = design.partitions["noc1"].top_module
        assert [i.name for i in wrapper.instances()
                if i.name.startswith("router")] \
            == [f"router{i}" for i in range(6, 12)]

    def test_bad_router_index(self):
        spec = PartitionSpec(mode=EXACT,
                             noc=NoCPartitionSpec.make([[99]]))
        with pytest.raises(SelectionError):
            FireRipper(spec).compile(make_ring_noc_soc(2))


class TestTransportsAndReport:
    def test_host_pcie_rate_capped(self):
        design = _compile(make_comb_pair_circuit(), FAST)
        sim = design.build_simulation(HOST_PCIE)
        result = sim.run(30)
        assert result.rate_hz <= 26_400.0

    def test_per_pair_transport_map(self):
        design = _compile(make_comb_pair_circuit(), EXACT)
        sim = design.build_simulation({("base", "fpga1"): QSFP_AURORA})
        assert sim.run(10).target_cycles == 10

    def test_missing_transport_in_map(self):
        design = _compile(make_comb_pair_circuit(), EXACT)
        with pytest.raises(CompileError):
            design.build_simulation({("base", "elsewhere"): QSFP_AURORA})

    def test_report_contents(self):
        design = _compile(make_comb_pair_circuit(), EXACT)
        report = design.report(XILINX_U250, QSFP_AURORA, 30.0)
        assert report.interface_widths[("base", "fpga1")] == 64
        assert report.expected_rate_hz is not None
        text = report.to_text()
        assert "interface base <-> fpga1: 64 bits" in text
        assert "expected rate" in text


class TestNoDeepCopy:
    def test_text_to_first_cycle_never_deep_copies(self, monkeypatch):
        """The compile path clones by sharing the frozen expression
        trees; a ``copy.deepcopy`` of the design creeping back in is
        an exact count (zero calls), not a timing, so gate it here."""
        def refuse(*args, **kwargs):
            raise AssertionError("copy.deepcopy on the compile path")

        monkeypatch.setattr(copy, "deepcopy", refuse)
        for mode in (FAST, EXACT):
            spec = PartitionSpec(mode=mode, noc=NoCPartitionSpec.make(
                [[0, 1, 2, 3], [4, 5, 6, 7]]))
            design = FireRipper(spec).compile(make_ring_noc_soc(8))
            result = design.build_simulation(QSFP_AURORA).run(1)
            assert result.target_cycles == 1
        found = auto_partition(make_star_soc(3), n_fpgas=3, mode=FAST)
        assert found.spec.num_fpgas == 3
