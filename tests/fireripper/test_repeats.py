"""Repeated partitions: FireRipper finds them, the kernel printer derives
their kernels from the first instance's print, and a run on derived
kernels is the run each partition's own print gives.

On the process backend every worker prints only its own partitions, so
a repeat prints its own kernels there; the run must not tell the two
apart.
"""

import pickle
from dataclasses import replace

import pytest

from repro.errors import IRError
from repro.fireripper import FAST, FireRipper, NoCPartitionSpec, PartitionSpec
from repro.fireripper import compiler
from repro.fireripper.repeats import find_repeats, renaming
from repro.firrtl.ast import (
    INPUT,
    Connect,
    DefMemory,
    DefNode,
    DefRegister,
    Lit,
    LocalTarget,
    Port,
    PrimOp,
)
from repro.firrtl.passes import check
from repro.fuzz import functional_digest, generate_scenario, scenario_config
from repro.platform import QSFP_AURORA
from repro.reliability.checkpoint import save_checkpoint
from repro.rtl.elaborate import _Flattener, elaborate, rename
from repro.service.executor import compile_design, normalize_config
from repro.targets.soc import make_ring_noc_soc


def _ring_design(tiles, groups):
    spec = PartitionSpec(mode=FAST, noc=NoCPartitionSpec.make(groups))
    return FireRipper(spec).compile(
        make_ring_noc_soc(tiles, messages_per_tile=2))


def _ring8():
    return _ring_design(8, [[0, 1, 2, 3], [4, 5, 6, 7]])


def test_ring_groups_are_renamings_of_the_first():
    """Names map by position and by what drives them, not by
    spelling: noc0's credit output to the base is noc1's credit output
    to noc0, named after their consumers."""
    design = _ring24()
    assert sorted(design.repeats) == ["noc1", "noc2", "noc3"]
    assert {r[0] for r in design.repeats.values()} == {"noc0"}
    sigma = design.repeats["noc1"][1]
    assert sigma["router0"] == "router6" and sigma["tile5"] == "tile11"
    assert sigma["router0_ring_in_valid"] == "router6_ring_in_valid"
    assert sigma["router0_ring_credit_out"] == "router5_ring_credit_in"
    assert len(set(sigma.values())) == len(sigma) == 24
    assert design.elaboration("noc2").repeat_of == (
        design.elaboration("noc0"), *design.repeats["noc2"][1:])
    assert design.elaboration("base").repeat_of is None


def _edited(design, name, module, edit):
    """Partition ``name`` with one statement of ``module`` through
    ``edit`` (the first it changes)."""
    part = design.partitions[name].clone()
    mod = part.modules[module]
    for i, s in enumerate(mod.stmts):
        new = edit(s)
        if new is not None:
            mod.stmts[i] = new
            return part
    raise AssertionError(f"nothing to edit in {module}")


def test_what_a_renaming_may_change():
    """A comparison's literal operand and a memory's init may differ;
    anything the kernel printer reads may not."""
    design = _ring8()
    noc0 = design.partitions["noc0"]

    def compare(s):
        if isinstance(s, DefNode) and s.name == "for_me":
            op = s.expr
            return replace(s, expr=replace(op, args=(op.args[0], Lit(
                (op.args[1].value + 3) % 16, op.args[1].width))))

    def program(s):
        if isinstance(s, DefMemory) and s.init:
            return replace(s, init=tuple(v ^ 1 for v in s.init))

    def init(s):
        if isinstance(s, DefRegister):
            return replace(s, init=(s.init + 1) % (1 << s.width))

    def bump(e):
        """``e`` with each literal operand of an ``add`` flipped."""
        if not isinstance(e, PrimOp):
            return e
        return replace(e, args=tuple(
            Lit(a.value ^ 1, a.width) if e.op == "add"
            and isinstance(a, Lit) else bump(a) for a in e.args))

    def operand(s):
        if isinstance(s, Connect) and bump(s.expr) != s.expr:
            return replace(s, expr=bump(s.expr))

    for edit, module, same in ((compare, "Router5_n9", True),
                               (program, "CoreTile5_Core", True),
                               (init, "CoreTile5_Core", False),
                               (operand, "CoreTile5_OutQ", False)):
        edited = _edited(design, "noc1", module, edit)
        assert (renaming(noc0, edited) is not None) == same, edit.__name__
    assert find_repeats({"a": noc0, "b": design.partitions["base"]}) == {}


def test_derived_kernels_run_as_their_own_prints():
    """The ring on whatever backend the suite runs (a worker prints its
    own partitions) against the same design with every partition
    printing its own kernels in process: the same run."""
    design = _ring8()
    own = replace(design, repeats={}, elaborations={})
    digests = []
    for d, backend in ((design, "auto"), (own, "inproc")):
        sim = d.build_simulation(QSFP_AURORA, record_outputs=True)
        digests.append(functional_digest(sim, sim.run(300,
                                                      backend=backend)))
    assert digests[0] == digests[1]
    assert digests[0]["outputs"]


def _ring24():
    return _ring_design(24, [list(range(i * 6, i * 6 + 6))
                             for i in range(4)])


def test_a_repeat_is_never_flattened_on_the_jit(monkeypatch):
    """With the JIT on, a repeat's header is its first's renamed and
    its kernels are derived: only ``base`` and ``noc0`` are flattened,
    through ``run(1)`` and a longer run."""
    design = _ring24()
    names = {id(part): name for name, part in design.partitions.items()}
    flattened = []
    init = _Flattener.__init__
    monkeypatch.setattr(_Flattener, "__init__",
                        lambda self, circuit: flattened.append(
                            names[id(circuit)]) or init(self, circuit))
    sim = design.build_simulation(QSFP_AURORA)
    sim.run(1, backend="inproc")
    sim.run(200, backend="inproc")
    assert sorted(flattened) == ["base", "noc0"]
    assert sim.last_jit_report and all(
        verdict.startswith("compiled")
        for verdict in sim.last_jit_report.values())


def test_a_derived_header_is_its_own_elaboration():
    """Every repeat of the seed-7 mill designs: the header renamed from
    its first instance is the one its own ``elaborate()`` gives, dict
    order included (a reset's env and a checkpoint follow it), and so
    is the netlist it makes when read."""
    checked = 0
    for i in range(200):
        design = compile_design(normalize_config(
            scenario_config(generate_scenario(7, i))))
        for name in design.repeats:
            mine, own = design.elaboration(name), elaborate(
                design.partitions[name])
            for field in ("inputs", "outputs", "widths", "mems"):
                assert list(getattr(mine, field).items()) \
                    == list(getattr(own, field).items()), (i, name, field)
            assert [(r.name, r.width, r.init) for r in mine.regs.values()] \
                == [(r.name, r.width, r.init) for r in own.regs.values()]
            assert (mine.assigns, mine.writes, list(mine.regs.values())) \
                == (own.assigns, own.writes, list(own.regs.values()))
            checked += 1
    assert checked > 20


def test_a_repeat_keeps_its_own_programs():
    """Memory images are a repeat's own, though every other part of
    its header is its first instance's renamed."""
    design = _ring8()
    edited = _edited(design, "noc1", "CoreTile5_Core", lambda s: replace(
        s, init=tuple(v ^ 1 for v in s.init))
        if isinstance(s, DefMemory) and s.init else None)
    first = design.elaboration("noc0")
    mine = rename(first, edited, *renaming(design.partitions["noc0"],
                                           edited))
    own = elaborate(edited)
    assert list(mine.mems.items()) == list(own.mems.items())
    assert [m.init for m in mine.mems.values()] != [
        m.init for m in first.mems.values()]


def test_an_unmaterialised_design_pickles_and_runs():
    """A design whose repeats hold only their headers pickles; the
    copy run on the interpreter, which reads every repeat's netlist,
    gives the digest the original gives on the JIT."""
    design = _ring8()
    for name in design.partitions:
        design.elaboration(name)
    copy = pickle.loads(pickle.dumps(design, pickle.HIGHEST_PROTOCOL))
    digests = []
    for d, jit in ((design, True), (copy, False)):
        sim = d.build_simulation(QSFP_AURORA, record_outputs=True)
        sim.stepjit = jit
        digests.append(functional_digest(sim, sim.run(300,
                                                      backend="inproc")))
    assert digests[0] == digests[1]


def test_a_checkpoint_is_the_one_an_eager_design_writes(tmp_path):
    """The 24-tile ring checkpointed on renamed headers and on every
    partition's own elaboration: the same bytes."""
    design = _ring24()
    written = []
    for i, d in enumerate((design, replace(design, repeats={},
                                           elaborations={}))):
        sim = d.build_simulation(QSFP_AURORA)
        sim.run(120, backend="inproc")
        written.append(save_checkpoint(sim, tmp_path / f"{i}.json")
                       .read_bytes())
    assert written[0] == written[1]


def test_in_process_the_repeat_is_derived():
    design = _ring8()
    design.build_simulation(QSFP_AURORA).run(5, backend="inproc")
    stats = [fn._stepjit_stats
             for name in ("noc0", "noc1")
             for fns in design.elaboration(name).kernels.values()
             for fn in fns if fn is not None]
    assert [st.get("derived") for st in stats] == [
        None, None, "fire:noc0", "cyc:noc0"]


@pytest.fixture
def checks(monkeypatch):
    """The modules ``check_module`` is called on, in order."""
    seen = []
    check_module = check.check_module
    monkeypatch.setattr(check, "check_module", lambda m, c=None: (
        seen.append(m.name) or check_module(m, c)))
    return seen


def test_only_what_extraction_built_is_checked_again(checks):
    circuit = make_ring_noc_soc(8, messages_per_tile=2)
    FireRipper(PartitionSpec(mode=FAST, noc=NoCPartitionSpec.make(
        [[0, 1, 2, 3], [4, 5, 6, 7]]))).compile(circuit)
    assert sorted(checks[:len(circuit.modules)]) == sorted(circuit.modules)
    assert sorted(checks[len(circuit.modules):]) == [
        circuit.top, "Wrapper_noc0", "Wrapper_noc1"]


@pytest.mark.parametrize("breakage", ["statement", "child port"])
def test_a_broken_edit_is_still_refused(monkeypatch, checks, breakage):
    """An edited module is checked again, and so is the parent of a
    module whose ports changed, though its own statements did not: a
    child input nobody drives is refused in the parent."""
    extract = compiler.extract_partitions

    def broken(*args, **kwargs):
        design = extract(*args, **kwargs)
        part = design.partitions["noc1"]
        if breakage == "statement":
            part.modules["Router5_n9"].stmts.append(
                Connect(LocalTarget("ghost"), Lit(0, 1)))
        else:
            part.modules["CoreTile5_Core"].ports.append(
                Port("extra", INPUT, 1))
        return design

    monkeypatch.setattr(compiler, "extract_partitions", broken)
    match = "undeclared 'ghost'" if breakage == "statement" \
        else "CoreTile5: input 'extra' of instance 'core' is never driven"
    with pytest.raises(IRError, match=match):
        _ring8()
