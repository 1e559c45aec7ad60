"""Boundary planning: roles, chain check, channels, widths."""

import pytest

from repro.errors import CombChainError
from repro.firrtl import ModuleBuilder, make_circuit
from repro.fireripper import EXACT, FAST
from repro.fireripper.boundary import SINK, SOURCE, plan_boundaries
from repro.fireripper.extract import extract_partitions
from repro.fireripper.report import build_report
from repro.targets import make_comb_pair_circuit


def _plan(mode):
    design = extract_partitions(make_comb_pair_circuit(), {"g": ["right"]})
    return design, plan_boundaries(design, mode)


class TestRoles:
    def test_comb_pair_roles(self):
        _, plan = _plan(EXACT)
        roles = {n.name: (n.src_role, n.dst_role) for n in plan.nets}
        # right.q is comb-dependent on right.c -> sink out of g; it lands
        # in base logic feeding left.e (register-only) -> source in
        assert roles["right_q"] == (SINK, SOURCE)
        assert roles["right_ya"] == (SOURCE, SINK)
        assert roles["right_c"] == (SOURCE, SINK)
        assert roles["right_f"] == (SINK, SOURCE)

    def test_interface_width(self):
        design, plan = _plan(EXACT)
        report = build_report(design, plan)
        assert report.interface_widths == {("base", "g"): 64}  # 4 x 16
        assert plan.total_boundary_width() == 64


class TestExactChannels:
    def test_channel_split_by_role_pairs(self):
        _, plan = _plan(EXACT)
        g = plan.channels["g"]
        out_names = {s.name for s in g.out_specs}
        in_names = {s.name for s in g.in_specs}
        assert out_names == {"to_base.sink_source", "to_base.source_sink"}
        assert in_names == {"from_base.sink_source",
                            "from_base.source_sink"}

    def test_sink_out_depends_on_sink_in(self):
        _, plan = _plan(EXACT)
        g = plan.channels["g"]
        by_name = {s.name: s for s in g.out_specs}
        # the sink-out channel (comb-dependent) needs the sink-in channel
        sink_out = by_name["to_base.sink_source"]
        assert sink_out.deps == frozenset({"from_base.source_sink"})
        source_out = by_name["to_base.source_sink"]
        assert source_out.deps == frozenset()

    def test_links_pair_matching_channels(self):
        _, plan = _plan(EXACT)
        for link in plan.links:
            assert link.src[0] != link.dst[0]
            assert link.width > 0


class TestFastChannels:
    def test_single_channel_per_direction(self):
        _, plan = _plan(FAST)
        g = plan.channels["g"]
        assert [s.name for s in g.out_specs] == ["to_base"]
        assert [s.name for s in g.in_specs] == ["from_base"]
        assert g.out_specs[0].width == 32

    def test_external_io_channel_on_base(self):
        _, plan = _plan(FAST)
        base = plan.channels["base"]
        assert base.external_out == ["io_out"]
        io_out = next(s for s in base.out_specs if s.name == "io_out")
        assert dict(io_out.ports) == {"x_obs": 16, "y_obs": 16}


class TestChainLengthCheck:
    def _long_chain_circuit(self):
        """The paper's illegal case: an output combinationally dependent
        on an input which is itself driven by another partition's
        combinationally dependent output (chain length > 2)."""
        def comb_module(name, op):
            mb = ModuleBuilder(name)
            i = mb.input("i", 8)
            o = mb.output("o", 8)
            mb.connect(o, op(i))
            return mb.build()

        mod_a = comb_module("ModA", lambda i: i + 1)
        mod_c = comb_module("ModC", lambda i: i ^ 3)

        tb = ModuleBuilder("ChainTop")
        tout = tb.output("tout", 8)
        r = tb.reg("r", 8)
        a = tb.inst("a", mod_a)
        c = tb.inst("c", mod_c)
        tb.connect(c["i"], r)           # registered seed into the chain
        tb.connect(a["i"], c["o"])      # comb crossing c -> a
        tb.connect(tout, a["o"])        # comb crossing a -> base
        tb.connect(r, r + 1)
        return make_circuit(tb.build(), [mod_a, mod_c])

    def test_sink_to_sink_rejected_in_exact(self):
        circuit = self._long_chain_circuit()
        design = extract_partitions(circuit, {"g1": ["a"], "g2": ["c"]})
        with pytest.raises(CombChainError) as err:
            plan_boundaries(design, EXACT)
        # the diagnostic names an alternating port chain of length 4
        assert len(err.value.chain) == 4
        assert any("g1" in p for p in err.value.chain)
        assert any("g2" in p for p in err.value.chain)

    def test_same_boundary_allowed_in_fast(self):
        circuit = self._long_chain_circuit()
        design = extract_partitions(circuit, {"g1": ["a"], "g2": ["c"]})
        plan = plan_boundaries(design, FAST)  # no exception
        assert plan.mode == FAST

    def test_single_crossing_chain_accepted_in_exact(self):
        # the comb-pair boundary has combinational logic but the chain
        # terminates in registers after one crossing: legal
        design = extract_partitions(make_comb_pair_circuit(),
                                    {"g": ["right"]})
        plan = plan_boundaries(design, EXACT)
        assert plan.mode == EXACT
