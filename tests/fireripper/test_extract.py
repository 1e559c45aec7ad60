"""Extraction transform: uniquify, reparent, grouping, removal."""

import copy

import pytest

from repro.errors import SelectionError
from repro.firrtl import ModuleBuilder, make_circuit, print_circuit
from repro.firrtl.ast import Connect, INPUT, Lit, LocalTarget, Port
from repro.firrtl.circuit import Circuit, Module
from repro.firrtl.passes import check_circuit
from repro.fireripper import (
    FAST,
    FireRipper,
    NoCPartitionSpec,
    PartitionGroup,
    PartitionSpec,
)
from repro.fireripper.extract import (
    ExtractedDesign,
    extract_partitions,
    remove_modules,
)
from repro.fuzz.generator import (
    ALL_SHAPES,
    GeneratorKnobs,
    generate_scenario,
    scenario_config,
)
from repro.rtl import Simulator
from repro.service.executor import load_circuit, partition_spec
from repro.targets import make_comb_pair_circuit
from repro.targets.soc import make_ring_noc_soc


def _deep_circuit():
    """Top -> Wrapper -> Leaf, with the same Leaf also directly in Top
    (forces uniquification when extracting the nested one)."""
    lb = ModuleBuilder("Leaf")
    a = lb.input("a", 8)
    y = lb.output("y", 8)
    r = lb.reg("acc", 8)
    lb.connect(r, r + a)
    lb.connect(y, r)
    leaf = lb.build()

    wb = ModuleBuilder("Wrap")
    wa = wb.input("a", 8)
    wy = wb.output("y", 8)
    wi = wb.inst("inner", leaf)
    wb.connect(wi["a"], wa + 1)
    wb.connect(wy, wi["y"])
    wrap = wb.build()

    tb = ModuleBuilder("Deep")
    x = tb.input("x", 8)
    out1 = tb.output("o1", 8)
    out2 = tb.output("o2", 8)
    w = tb.inst("w", wrap)
    d = tb.inst("direct", leaf)
    tb.connect(w["a"], x)
    tb.connect(d["a"], x)
    tb.connect(out1, w["y"])
    tb.connect(out2, d["y"])
    return make_circuit(tb.build(), [wrap, leaf])


def _twin_circuit():
    """Top -> two instances of one Wrap, each holding a Leaf."""
    deep = _deep_circuit()
    tb = ModuleBuilder("Twin")
    x = tb.input("x", 8)
    for i in range(2):
        w = tb.inst(f"w{i}", deep.module("Wrap"))
        tb.connect(w["a"], x)
        tb.connect(tb.output(f"o{i}", 8), w["y"])
    return make_circuit(tb.build(), [deep.module("Wrap"),
                                     deep.module("Leaf")])


class TestValidation:
    def test_unknown_path(self):
        c = make_comb_pair_circuit()
        with pytest.raises(SelectionError):
            extract_partitions(c, {"g": ["ghost"]})

    def test_ancestor_conflict(self):
        c = _deep_circuit()
        with pytest.raises(SelectionError, match="ancestor"):
            extract_partitions(c, {"g": ["w", "w.inner"]})

    def test_duplicate_path(self):
        c = make_comb_pair_circuit()
        with pytest.raises(SelectionError):
            extract_partitions(c, {"g1": ["right"], "g2": ["right"]})

    def test_empty_group(self):
        c = make_comb_pair_circuit()
        with pytest.raises(SelectionError):
            extract_partitions(c, {"g": []})

    def test_base_name_collision(self):
        c = make_comb_pair_circuit()
        with pytest.raises(SelectionError):
            extract_partitions(c, {"base": ["right"]})


class TestTopLevelExtraction:
    def test_partitions_well_formed(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g": ["right"]})
        for part in design.partitions.values():
            check_circuit(part)

    def test_original_untouched(self):
        c = make_comb_pair_circuit()
        before = len(c.top_module.stmts)
        extract_partitions(c, {"g": ["right"]})
        assert len(c.top_module.stmts) == before

    def test_nets_have_matching_ports(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g": ["right"]})
        for net in design.nets:
            src_top = design.partitions[net.src].top_module
            dst_top = design.partitions[net.dst].top_module
            assert not src_top.port(net.name).is_input
            assert dst_top.port(net.name).is_input
            assert src_top.port(net.name).width == net.width

    def test_boundary_is_four_nets(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g": ["right"]})
        assert len(design.nets) == 4
        directions = {(n.src, n.dst) for n in design.nets}
        assert directions == {("base", "g"), ("g", "base")}


class TestDeepExtraction:
    def test_nested_instance_reparents(self):
        c = _deep_circuit()
        design = extract_partitions(c, {"g": ["w.inner"]})
        for part in design.partitions.values():
            check_circuit(part)
        # the extracted partition top holds the leaf
        g = design.partitions["g"]
        assert any(i.module == "Leaf" or i.module.startswith("Leaf")
                   for i in g.top_module.instances())

    def test_uniquify_leaves_sibling_leaf_alone(self):
        c = _deep_circuit()
        design = extract_partitions(c, {"g": ["w.inner"]})
        base = design.partitions["base"]
        # the direct Leaf instance must survive in the base
        assert any(i.module == "Leaf"
                   for i in base.top_module.instances())

    def test_extraction_preserves_behavior(self):
        """Base + extracted recombined (via direct token plumbing)
        behave like the original: check via a manual co-execution."""
        c = _deep_circuit()
        mono = Simulator(c)
        design = extract_partitions(c, {"g": ["w.inner"]})
        base = Simulator(design.partitions["base"])
        ext = Simulator(design.partitions["g"])

        in_nets = [n for n in design.nets if n.dst == "g"]
        out_nets = [n for n in design.nets if n.src == "g"]
        for cycle in range(6):
            expected = mono.step({"x": cycle + 1})
            # settle the combinational boundary (loop-free: two passes)
            base.poke("x", cycle + 1)
            for _ in range(3):
                base.eval()
                for n in in_nets:
                    ext.poke(n.name, base.peek(n.name))
                ext.eval()
                for n in out_nets:
                    base.poke(n.name, ext.peek(n.name))
            base.eval()
            got = {"o1": base.peek("o1"), "o2": base.peek("o2")}
            assert got == expected
            base.tick()
            ext.tick()


class TestMultiGroup:
    def test_two_groups_cross_nets(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g1": ["left"], "g2": ["right"]})
        assert set(design.partitions) == {"base", "g1", "g2"}
        pairs = {(n.src, n.dst) for n in design.nets}
        # left and right talk to each other directly
        assert ("g1", "g2") in pairs and ("g2", "g1") in pairs
        for part in design.partitions.values():
            check_circuit(part)

    def test_base_keeps_observation_logic(self):
        c = make_comb_pair_circuit()
        design = extract_partitions(c, {"g1": ["left"], "g2": ["right"]})
        base_top = design.partitions["base"].top_module
        assert base_top.has_port("x_obs")
        assert base_top.has_port("y_obs")


class TestRemoval:
    def test_remove_returns_base_with_punched_ports(self):
        c = make_comb_pair_circuit()
        removed = remove_modules(c, ["right"])
        check_circuit(removed)
        assert "CombRight" not in removed.modules
        # the punched boundary is now top-level I/O
        port_names = {p.name for p in removed.top_module.ports}
        assert any("right" in n for n in port_names)


def _texts(design):
    return {name: print_circuit(part)
            for name, part in design.partitions.items()}


class TestOwnership:
    """Partitions share frozen expression trees with the input and with
    each other, and nothing that can be mutated."""

    def _compile(self):
        circuit = _deep_circuit()
        spec = PartitionSpec(mode=FAST, groups=[
            PartitionGroup.make("g", ["w"])])
        return circuit, FireRipper(spec).compile(circuit)

    def test_compile_leaves_the_input_untouched(self):
        circuit = _deep_circuit()
        before = print_circuit(circuit)
        extract_partitions(circuit, {"g": ["w.inner"]})
        assert print_circuit(circuit) == before
        circuit, _ = self._compile()
        assert print_circuit(circuit) == before

    def test_uniquify_counts_follow_the_clones(self):
        """The first path through the shared Wrap clones it; that
        leaves the original instantiated once, so the second path
        must not clone again."""
        circuit = _twin_circuit()
        before = print_circuit(circuit)
        design = extract_partitions(
            circuit, {"g": ["w0.inner"], "h": ["w1.inner"]})
        assert print_circuit(circuit) == before
        base = design.partitions["base"]
        assert set(base.modules) == {"Twin", "Wrap", "Wrap_uniq"}
        assert [i.module for i in base.top_module.instances()] \
            == ["Wrap_uniq", "Wrap"]
        for part in design.partitions.values():
            check_circuit(part)

    def test_mutating_one_partition_moves_nothing_else(self):
        circuit, design = self._compile()
        # Leaf is reachable from both tops: the extracted Wrap
        # instantiates it and the base keeps the direct instance
        assert all("Leaf" in part.modules
                   for part in design.partitions.values())
        before_input = print_circuit(circuit)
        before = _texts(design)
        for victim in design.partitions:
            _, fresh = self._compile()
            part = fresh.partitions[victim]
            leaf = part.module("Leaf")
            leaf.ports.append(Port("extra", INPUT, 3))
            leaf.stmts.append(Connect(LocalTarget("acc"), Lit(0, 8)))
            leaf.ports[0].width = 5
            leaf.name = "Renamed"
            for module in part.modules.values():
                for inst in module.instances():
                    inst.module = "Retargeted"
            assert print_circuit(part) != before[victim]
            after = _texts(fresh)
            assert all(after[name] == before[name]
                       for name in before if name != victim)
        assert print_circuit(circuit) == before_input


def _reference_compile(monkeypatch, spec, circuit):
    """The same compile with every clone a ``copy.deepcopy``, as it was
    before clones shared their expression trees."""
    with monkeypatch.context() as patch:
        patch.setattr(Module, "clone", copy.deepcopy)
        patch.setattr(Circuit, "clone", copy.deepcopy)
        return FireRipper(spec).compile(circuit)


def _mill_cases():
    for shape in ALL_SHAPES:
        config = scenario_config(generate_scenario(
            14, 0, GeneratorKnobs(shapes=(shape,))))
        yield pytest.param(
            lambda c=config: (partition_spec(c), load_circuit(c)),
            id=shape)
    for mode in ("fast", "exact"):
        yield pytest.param(
            lambda m=mode: (
                PartitionSpec(mode=m, noc=NoCPartitionSpec.make(
                    [[0, 1, 2, 3], [4, 5, 6, 7]])),
                make_ring_noc_soc(8)), id=f"ring8-{mode}")


class TestSharingMatchesDeepCopy:
    @pytest.mark.parametrize("make", _mill_cases())
    def test_partitions_equal_the_deepcopy_reference(self, monkeypatch,
                                                     make):
        spec, circuit = make()
        got = FireRipper(spec).compile(circuit).extracted
        want = _reference_compile(monkeypatch, *make()).extracted
        assert _texts(got) == _texts(want)
        assert got.nets == want.nets
        assert got.group_members == want.group_members
        assert got.base_name == want.base_name
