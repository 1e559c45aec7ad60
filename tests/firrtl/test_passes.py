"""Analysis passes: check, comb deps, module DAG, connectivity."""

import pytest

from repro.errors import IRError
from repro.firrtl import ModuleBuilder, make_circuit, mux
from repro.firrtl.ast import (
    Connect,
    DefInstance,
    DefMemory,
    InstPort,
    InstTarget,
    LocalTarget,
    Lit,
    MemWritePort,
    Port,
    Ref,
)
from repro.firrtl.circuit import Circuit, Module
from repro.firrtl.passes import (
    check_circuit,
    circuit_comb_deps,
    instance_adjacency,
    module_topo_order,
)
from repro.firrtl.passes.connectivity import PARENT, connected_closure
from repro.firrtl.passes.moduledag import instance_counts
from repro.targets.soc import make_ring_noc_soc


class TestCheck:
    def test_valid_circuit_passes(self, adder_pair_circuit):
        check_circuit(adder_pair_circuit)

    def test_undriven_output(self):
        m = Module("T", [Port("o", "output", 1)], [])
        with pytest.raises(IRError, match="never driven"):
            check_circuit(Circuit("T", [m]))

    def test_double_drive(self):
        m = Module("T", [Port("o", "output", 1)],
                   [Connect(LocalTarget("o"), Lit(0, 1)),
                    Connect(LocalTarget("o"), Lit(1, 1))])
        with pytest.raises(IRError, match="driven twice"):
            check_circuit(Circuit("T", [m]))

    def test_unknown_reference(self):
        m = Module("T", [Port("o", "output", 1)],
                   [Connect(LocalTarget("o"), Ref("ghost", 1))])
        with pytest.raises(IRError, match="undeclared"):
            check_circuit(Circuit("T", [m]))

    def test_width_mismatch_reference(self):
        m = Module("T", [Port("a", "input", 4), Port("o", "output", 4)],
                   [Connect(LocalTarget("o"), Ref("a", 8))])
        with pytest.raises(IRError, match="width"):
            check_circuit(Circuit("T", [m]))

    def test_missing_instance_module(self):
        m = Module("T", [Port("o", "output", 1)],
                   [DefInstance("x", "Ghost"),
                    Connect(LocalTarget("o"), Lit(0, 1))])
        with pytest.raises(IRError):
            check_circuit(Circuit("T", [m]))

    def test_undriven_instance_input(self):
        """The interpreter would read ``c.a`` as 0 and the kernel tier
        would reload it every cycle: refused like an undriven output."""
        child = Module("Child", [Port("a", "input", 4),
                                 Port("y", "output", 4)],
                       [Connect(LocalTarget("y"), Ref("a", 4))])

        def top(*stmts):
            return Module("T", [Port("o", "output", 4)], [
                DefInstance("c", "Child"),
                Connect(LocalTarget("o"), InstPort("c", "y", 4)), *stmts])

        check_circuit(Circuit("T", [top(Connect(
            InstTarget("c", "a"), Lit(3, 4))), child]))
        with pytest.raises(
                IRError,
                match="T: input 'a' of instance 'c' is never driven"):
            check_circuit(Circuit("T", [top(), child]))

    def test_write_data_wider_than_its_memory(self):
        """Nothing masks a write, so the word would be stored whole and
        every read port would mis-declare it."""
        def module(data_width):
            return Module(
                "T", [Port("d", "input", data_width),
                      Port("o", "output", 1)],
                [DefMemory("m", 4, 8),
                 MemWritePort("m", Lit(1, 2), Ref("d", data_width),
                              Lit(1, 1)),
                 Connect(LocalTarget("o"), Lit(0, 1))])

        check_circuit(Circuit("T", [module(8)]))
        check_circuit(Circuit("T", [module(3)]))
        with pytest.raises(
                IRError,
                match=r"write port m\[.*\] stores 9-bit data into a "
                      r"8-bit memory"):
            check_circuit(Circuit("T", [module(9)]))


class TestCombDeps:
    def test_simple_comb(self, adder_pair_circuit):
        deps = circuit_comb_deps(adder_pair_circuit)
        assert deps["AddOne"]["y"] == frozenset({"a"})
        assert deps["Top"]["z"] == frozenset({"x"})

    def test_register_breaks_path(self, counter_circuit):
        deps = circuit_comb_deps(counter_circuit)
        assert deps["Counter"]["count"] == frozenset()

    def test_memory_read_is_comb(self):
        b = ModuleBuilder("M")
        addr = b.input("addr", 4)
        out = b.output("o", 8)
        m = b.mem("m", 16, 8)
        rd = b.mem_read(m, "rd", addr)
        b.connect(out, rd)
        deps = circuit_comb_deps(make_circuit(b.build(), []))
        assert deps["M"]["o"] == frozenset({"addr"})

    def test_mixed_deps_through_hierarchy(self):
        # child: y = a + b where a comes from parent reg, b from input
        cb = ModuleBuilder("Child")
        a = cb.input("a", 8)
        c = cb.input("c", 8)
        y = cb.output("y", 8)
        cb.connect(y, a + c)
        child = cb.build()

        b = ModuleBuilder("Parent")
        pin = b.input("pin", 8)
        pout = b.output("pout", 8)
        r = b.reg("r", 8)
        i = b.inst("i", child)
        b.connect(i["a"], r)  # registered path
        b.connect(i["c"], pin)  # comb path
        b.connect(pout, i["y"])
        b.connect(r, r + 1)
        deps = circuit_comb_deps(make_circuit(b.build(), [child]))
        assert deps["Parent"]["pout"] == frozenset({"pin"})


class TestModuleDAG:
    def test_children_first(self, adder_pair_circuit):
        order = module_topo_order(adder_pair_circuit)
        assert order.index("AddOne") < order.index("Top")

    def test_recursion_detected(self):
        m = Module("Loop", [Port("o", "output", 1)],
                   [DefInstance("self", "Loop"),
                    Connect(LocalTarget("o"), Lit(0, 1))])
        with pytest.raises(IRError, match="recursive"):
            module_topo_order(Circuit("Loop", [m]))

    def test_instance_counts(self, adder_pair_circuit):
        counts = instance_counts(adder_pair_circuit)
        assert counts["AddOne"] == 2
        assert counts["Top"] == 1


class TestConnectivity:
    def test_adjacency_in_ring_soc(self):
        c = make_ring_noc_soc(2, messages_per_tile=2)
        adj = instance_adjacency(c.top_module)
        # converter i is wired to router i and tile i
        assert "router0" in adj["conv0"]
        assert "tile0" in adj["conv0"]
        # tiles only touch their converter
        assert adj["tile0"] == frozenset({"conv0"})
        # ring neighbors
        assert "router1" in adj["router0"]

    def test_closure_collects_tile_and_converter(self):
        c = make_ring_noc_soc(2, messages_per_tile=2)
        routers = {"router0", "router1", "router2"}
        selected = connected_closure(
            c.top_module, {"router0"}, routers - {"router0"})
        assert selected == {"router0", "conv0", "tile0"}

    def test_closure_respects_blockers(self):
        c = make_ring_noc_soc(3, messages_per_tile=2)
        routers = {f"router{i}" for i in range(4)}
        selected = connected_closure(
            c.top_module, {"router0", "router1"},
            routers - {"router0", "router1"})
        assert "tile2" not in selected
        assert {"conv0", "conv1", "tile0", "tile1"} <= selected
