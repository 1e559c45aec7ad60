"""Fused RTL kernels against the interpreter.

The kernel generator optimises the cone as a netlist before printing it
(alias folding, single-fanout inlining, range-based mask elision,
one-pass commit + quiescence flag); ``Simulator(compiled=False)`` and
``eval_expr`` share none of that code, so they are the reference: a
hypothesis property over random flat netlists that use every primitive
op, plus pins on the structure of the printed source.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IRError
from repro.firrtl.ast import Lit, PRIM_OPS, PrimOp, Ref
from repro.firrtl.parser import _WIDTH_RULES
from repro.rtl import Simulator, elaborate
from repro.rtl.elaborate import (
    Elaboration,
    FlatAssign,
    FlatMem,
    FlatMemRead,
    FlatMemWrite,
    FlatReg,
)
from repro.rtl.eval import eval_expr, mask
from repro.rtl.kernel import compile_kernel, unit_kernels
from repro.targets.programs import (
    ADDR_OUT_PUSH,
    ADDR_OUT_READY,
    assemble,
    sink_program,
)
from repro.targets.soc import make_ring_noc_soc

INPUTS = {"i0": 8, "i1": 5, "i2": 1, "i3": 12}
#: register -> (width, init); narrower than most next-states
REGS = {"r0": (8, 200), "r1": (3, 0), "r2": (1, 1), "r3": (16, 0)}
#: memory -> (depth, width); ``m1`` has a depth no address range fits
MEMS = {"m0": (4, 8), "m1": (5, 4), "m2": (4, 4)}


@st.composite
def netlists(draw):
    """A flat netlist in topological order by construction: every node
    reads only the signals declared before it."""
    signals = [Ref(n, w) for n, w in INPUTS.items()] \
        + [Ref(n, w) for n, (w, _) in REGS.items()]
    assigns = []

    def operand(max_width=24):
        # (the cap keeps chained ``mul``/``shl``/``cat`` widths finite)
        pool = [s for s in signals if s.width <= max_width]
        if not pool or draw(st.integers(0, 4)) == 0:
            width = draw(st.integers(1, min(max_width, 9)))
            return Lit(draw(st.integers(0, mask(width))), width)
        return draw(st.sampled_from(pool))

    def primop(op):
        params = ()
        if op in ("dshl", "dshr"):
            # a 3-bit amount keeps the shifted ints small
            args = (operand(), operand(3))
        elif op == "mux":
            args = (operand(1), operand(), operand())
        else:
            args = tuple(operand() for _ in range(PRIM_OPS[op]))
        width = args[0].width
        if op == "bits":
            # the top edge of the operand more often than not
            hi = width - 1 if draw(st.booleans()) \
                else draw(st.integers(0, width - 1))
            params = (hi, draw(st.integers(0, hi)))
        elif op in ("shl", "shr"):
            # ``shr`` past the operand's width: the 1-bit result
            params = (draw(st.integers(0, width + 1)),)
        elif op == "pad":
            params = (draw(st.integers(1, width + 4)),)
        return PrimOp(op, args, _WIDTH_RULES[op](
            [a.width for a in args], list(params)), params)

    def node(expr_or_read):
        name = f"n{len(assigns)}"
        if isinstance(expr_or_read, tuple):
            mem, addr = expr_or_read
            depth, width = MEMS[mem]
            assigns.append(FlatMemRead(name, mem, addr, depth, width))
            signals.append(Ref(name, width))
        else:
            assigns.append(FlatAssign(name, expr_or_read))
            signals.append(Ref(name, expr_or_read.width))

    # every op at least once, then a random tail; reads in between
    ops = sorted(PRIM_OPS) + draw(st.lists(
        st.sampled_from(sorted(PRIM_OPS)), max_size=12))
    for op in draw(st.permutations(ops)):
        if draw(st.integers(0, 5)) == 0:
            node((draw(st.sampled_from(sorted(MEMS))), operand()))
        node(primop(op))
    for mem in MEMS:
        node((mem, operand()))

    regs = {n: FlatReg(n, w, init, operand())
            for n, (w, init) in REGS.items()}
    writes = []
    for mem, (depth, width) in MEMS.items():
        for _ in range(draw(st.integers(1, 2))):
            # data fits the memory, as ``check_module`` guarantees
            writes.append(FlatMemWrite(mem, depth, operand(),
                                       operand(width), operand(1)))
    outs = draw(st.lists(st.sampled_from(signals[len(INPUTS):]),
                         min_size=1, max_size=4, unique=True))
    # output ports are aliases of what they export, as elaboration
    # leaves them
    outputs = {}
    for i, sig in enumerate(outs):
        assigns.append(FlatAssign(f"o{i}", sig))
        outputs[f"o{i}"] = sig.width
    mems = {n: FlatMem(n, d, w, tuple(draw(st.lists(
        st.integers(0, mask(w)), max_size=d))))
        for n, (d, w) in MEMS.items()}
    widths = {s.name: s.width for s in signals}
    widths.update(outputs)
    return Elaboration("Rand", dict(INPUTS), outputs, assigns, regs,
                       mems, writes, widths)


def _pack_lists(elab):
    """Two channels over the outputs, laid out back to back."""
    fields, offset = [], 0
    for port, width in elab.outputs.items():
        fields.append((port, offset, mask(width)))
        offset += width
    return [fields[:1], fields[1:]]


def _pack(env, fields):
    word = 0
    for port, offset, _ in fields:
        word |= env[port] << offset
    return word


def _tick_is_fixed_point(ref):
    """The quiescence flag as the interpreter defines it: every
    register's next value is its current one and every enabled write
    re-writes the stored word (``ref`` is settled, not yet ticked)."""
    env, elab = ref.env, ref.elab
    for reg in elab.regs.values():
        if eval_expr(reg.next, env) & mask(reg.width) != env[reg.name]:
            return False
    for w in elab.writes:
        if eval_expr(w.en, env):
            addr = eval_expr(w.addr, env) % w.depth
            if ref.mem_state[w.mem][addr] != eval_expr(w.data, env):
                return False
    return True


def _state(sim_or_pair):
    env, mems = sim_or_pair
    return {r: env[r] for r in REGS}, mems


def _run_against_interpreter(elab, stimulus):
    pack_lists = _pack_lists(elab)
    fire, _, cyc = unit_kernels(elab, pack_lists, "rand")
    ref = Simulator(elab, compiled=False)
    start = Simulator(elab)
    env, mems = start.env, start.mem_state
    for values in stimulus:
        for port, value in zip(INPUTS, values):
            ref.poke(port, value)
            env[port] = ref.env[port]
        ref.eval()
        words = tuple(_pack(ref.env, f) for f in pack_lists)
        assert fire(env, mems) == words
        quiescent = _tick_is_fixed_point(ref)
        ref.tick()
        assert cyc(env, mems) == words + (quiescent,)
        assert _state((env, mems)) == _state((ref.env, ref.mem_state))


_STIMULUS = st.lists(
    st.tuples(*(st.integers(0, mask(w)) for w in INPUTS.values())),
    min_size=1, max_size=6)


@given(elab=netlists(), stimulus=_STIMULUS)
@settings(max_examples=120, deadline=None)
def test_kernels_match_the_interpreter(elab, stimulus):
    _run_against_interpreter(elab, stimulus)


@given(elab=netlists(), values=_STIMULUS.map(lambda s: s[0]))
@settings(max_examples=40, deadline=None)
def test_quiescence_flag_under_held_inputs(elab, values):
    """Constant inputs drive most netlists into a fixed point, so the
    flag is compared on both of its values."""
    _run_against_interpreter(elab, [values] * 12)


def test_over_wide_write_chain_is_a_typed_error():
    """The PR 18 defect, directed: a 9-bit sum written into the 4-bit
    ``m2``, read back and written on into the well-declared ``m0``,
    reached ``r0`` unmasked (256 where the interpreter holds 0).  The
    kernel believes the widths ``check_module`` proved, so the chain is
    refused by name instead of compiled."""
    i = Ref("i", 8)
    elab = Elaboration(
        "Chain", {"i": 8}, {"o": 8},
        [FlatAssign("n0", PrimOp("add", (i, i), 9)),
         FlatMemRead("rd2", "m2", Lit(0, 1), 4, 4),
         FlatMemRead("rd0", "m0", Lit(0, 1), 4, 8),
         FlatAssign("o", Ref("r0", 8))],
        {"r0": FlatReg("r0", 8, 0, Ref("rd0", 8))},
        {"m2": FlatMem("m2", 4, 4), "m0": FlatMem("m0", 4, 8)},
        [FlatMemWrite("m2", 4, Lit(0, 1), Ref("n0", 9), Lit(1, 1)),
         FlatMemWrite("m0", 4, Lit(0, 1), Ref("rd2", 4), Lit(1, 1))],
        {"i": 8, "o": 8, "n0": 9, "rd2": 4, "rd0": 8, "r0": 8})
    with pytest.raises(IRError, match=r"9-bit data.*4-bit memory 'm2'"):
        unit_kernels(elab, [[("o", 0, 255)]], "chain")


def test_over_wide_write_port_is_refused_at_compile_kernel():
    """At the kernel's door, not at the first wrong cycle: even the
    fire kernel, which commits nothing, refuses the elaboration."""
    elab = Elaboration(
        "Wide", {"i": 8}, {"o": 4},
        [FlatMemRead("rd", "m", Lit(0, 1), 2, 4),
         FlatAssign("o", Ref("rd", 4))],
        {}, {"m": FlatMem("m", 2, 4)},
        [FlatMemWrite("m", 2, Lit(0, 1), Ref("i", 8), Lit(1, 1))],
        {"i": 8, "o": 4, "rd": 4})
    with pytest.raises(IRError, match=r"8-bit data.*4-bit memory 'm'"):
        compile_kernel(elab, [[("o", 0, 15)]], False, "fire:wide")


# -- the printed source ----------------------------------------------------


def _streaming_ring(tiles=4):
    """The ledger's never-quiescent recipe: every tile pushes an
    ever-increasing value whenever its queue has room."""
    stream = assemble([
        ("LI", "r3", 1),
        "loop:",
        ("LD", "r4", "r0", ADDR_OUT_READY),
        ("BEQ", "r4", "r0", "loop"),
        ("ST", "r3", "r0", ADDR_OUT_PUSH),
        ("ADDI", "r3", "r3", 5),
        ("JMP", "loop"),
    ])
    return elaborate(make_ring_noc_soc(tiles, [stream] * tiles,
                                       sink_program(4)))


def test_ring_kernel_structure():
    elab = _streaming_ring()
    fields = [(port, i, 1) for i, port in enumerate(elab.outputs)]
    cyc = compile_kernel(elab, [fields], True, "cyc:ring")
    src = cyc._stepjit_source
    assert src.startswith("def _k(env, mems")
    # alias propagation: nothing is copied from one local to another
    assert not re.search(r"^\s+[vn]\d+ = \w+$", src, re.M)
    # every memory is bound once, in the prologue
    binds = re.findall(r"mems\[('[^']+')\]", src)
    assert binds and len(binds) == len(set(binds))
    # every address range fits its power-of-two depth
    assert "%" not in src
    stats = cyc._stepjit_stats
    assert stats["aliases"] and stats["inlined"] and stats["masks_elided"]
    assert stats["statements"] == len(src.splitlines()) - 1


def test_non_fitting_address_keeps_its_modulo():
    elab = Elaboration(
        "M", {"a": 3}, {"o": 4},
        [FlatMemRead("rd", "m", Ref("a", 3), 5, 4),
         FlatAssign("o", Ref("rd", 4))],
        {}, {"m": FlatMem("m", 5, 4, (1, 2, 3, 4, 5))}, [],
        {"a": 3, "o": 4, "rd": 4})
    fire = compile_kernel(elab, [[("o", 0, 15)]], False, "fire:m")
    assert "% 5" in fire._stepjit_source
    env = {"a": 7, "o": 0, "rd": 0}
    assert fire(env, {"m": [1, 2, 3, 4, 5]}) == 3


def test_long_single_fanout_chain_compiles():
    """300 muxes, each read once by the next: inlined whole, the chain
    would nest past CPython's parenthesis limit."""
    depth = 300
    assigns = [FlatAssign("n0", Ref("x", 8))]
    for i in range(1, depth + 1):
        sel = PrimOp("eq", (Ref("s", 9), Lit(i, 9)), 1)
        assigns.append(FlatAssign(f"n{i}", PrimOp(
            "mux", (sel, Lit(i % 256, 8), Ref(f"n{i - 1}", 8)), 8)))
    assigns.append(FlatAssign("o", Ref(f"n{depth}", 8)))
    elab = Elaboration("Chain", {"x": 8, "s": 9}, {"o": 8}, assigns,
                       {}, {}, [], {})
    fire = compile_kernel(elab, [[("o", 0, 255)]], False, "fire:chain")
    assert fire._stepjit_stats["inlined"] > depth // 2
    for s, want in ((0, 77), (1, 1), (150, 150), (300, 300 % 256)):
        assert fire({"x": 77, "s": s}, {}) == want
