"""Fused RTL kernels against the interpreter.

The kernel generator optimises the cone as a netlist before printing it
(alias folding, single-fanout inlining, range-based mask elision,
one-pass commit + quiescence flag); ``Simulator(compiled=False)`` and
``eval_expr`` share none of that code, so they are the reference: a
hypothesis property over random flat netlists that use every primitive
op, plus pins on the structure of the printed source.  Kernels that print
one template share one compile (``TEMPLATES``); a renamed copy is run
against the interpreter through the shared code, and a repeat's print
derived from its first instance's is checked against its own print.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IRError
from repro.firrtl.ast import Lit, PRIM_OPS, PrimOp, Ref
from repro.firrtl.parser import _WIDTH_RULES
from repro.fireripper import FAST, FireRipper, NoCPartitionSpec, PartitionSpec
from repro.fireripper.repeats import find_repeats
from repro.firrtl.circuit import Circuit
from repro.firrtl.parser import parse_circuit
from repro.rtl import Simulator, elaborate, kernel
from repro.rtl.elaborate import (
    Elaboration,
    FlatAssign,
    FlatMem,
    FlatMemRead,
    FlatMemWrite,
    FlatReg,
    rename,
)
from repro.rtl.eval import _COMPARISONS, eval_expr, mask
from repro.rtl.kernel import (
    TEMPLATES,
    compile_kernel,
    compile_kernels,
    kernel_source,
    print_kernel,
    share_kernels,
    unit_kernels,
    word_order,
)
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


def _state(sim_or_pair, rename=str):
    env, mems = sim_or_pair
    return {r: env[rename(r)] for r in REGS}, mems


def _step_both(ref, fire, frame, env, mems, pack_lists, values,
               rename=str):
    """One cycle of ``values`` on the interpreter and through one
    resume of the kernel ``frame``; both must agree afterwards.  The
    kernels yield the words in :func:`word_order`."""
    for port, value in zip(INPUTS, values):
        ref.poke(rename(port), value)
        env[rename(port)] = ref.env[rename(port)]
    ref.eval()
    words = tuple(_pack(ref.env, pack_lists[j])
                  for j in word_order(pack_lists))
    assert fire(env, mems) == words
    quiescent = _tick_is_fixed_point(ref)
    ref.tick()
    assert frame() == words + (quiescent,)
    assert _state((env, mems), rename) \
        == _state((ref.env, ref.mem_state), rename)


def _run_against_interpreter(elab, stimulus, tag="rand", rename=str):
    """The whole stimulus through ONE primed frame: register state
    lives in its locals from the first resume to the last.  Returns
    the kernels."""
    pack_lists = _pack_lists(elab)
    kernels = fire, _, cyc = unit_kernels(elab, pack_lists, tag)
    ref = Simulator(elab, compiled=False)
    start = Simulator(elab)
    env, mems = start.env, start.mem_state
    frame = cyc(env, mems).__next__
    for values in stimulus:
        _step_both(ref, fire, frame, env, mems, pack_lists, values, rename)
    return kernels


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


@given(elab=netlists(), stimulus=_STIMULUS, pokes=st.lists(
    st.tuples(*(st.integers(0, mask(w)) for w, _ in REGS.values())),
    min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_a_reprime_reads_registers_written_from_outside(
        elab, stimulus, pokes):
    """The env is authoritative, but a frame reads each register once,
    on its first resume: a register written from outside between two
    resumes is seen by a re-primed frame, as the interpreter sees it."""
    pack_lists = _pack_lists(elab)
    fire, _, cyc = unit_kernels(elab, pack_lists, "rand")
    ref = Simulator(elab, compiled=False)
    start = Simulator(elab)
    env, mems = start.env, start.mem_state
    for values in pokes:
        frame = cyc(env, mems).__next__
        for cycle in stimulus:
            _step_both(ref, fire, frame, env, mems, pack_lists, cycle)
        for (reg, (width, _)), value in zip(REGS.items(), values):
            ref.env[reg] = env[reg] = value & mask(width)
    frame = cyc(env, mems).__next__
    _step_both(ref, fire, frame, env, mems, pack_lists, stimulus[0])


def _renamed(elab, rename, shift):
    """``elab`` with every name through ``rename`` and every comparison
    literal beside a non-literal moved by ``shift`` (a comparison's
    range is one bit whatever its operands, so no mask moves)."""
    def expr(e):
        if isinstance(e, Ref):
            return Ref(rename(e.name), e.width)
        if not isinstance(e, PrimOp):
            return e
        args = tuple(expr(a) for a in e.args)
        if e.op in _COMPARISONS and sum(isinstance(a, Lit)
                                        for a in args) == 1:
            args = tuple(Lit((a.value + shift) & mask(a.width), a.width)
                         if isinstance(a, Lit) else a for a in args)
        return PrimOp(e.op, args, e.width, e.params)

    def flat(item, **exprs):
        names = {f: rename(getattr(item, f)) for f in ("name", "mem")
                 if hasattr(item, f)}
        return dataclasses.replace(item, **names, **{
            f: expr(getattr(item, f)) for f in exprs})

    return Elaboration(
        "Copy", {rename(n): w for n, w in elab.inputs.items()},
        {rename(n): w for n, w in elab.outputs.items()},
        [flat(a, **({"expr": 1} if isinstance(a, FlatAssign)
                    else {"addr": 1})) for a in elab.assigns],
        {rename(n): flat(r, next=1) for n, r in elab.regs.items()},
        {rename(n): flat(m) for n, m in elab.mems.items()},
        [flat(w, addr=1, data=1, en=1) for w in elab.writes],
        {rename(n): w for n, w in elab.widths.items()})


def _copy_name(name):
    return f"tile7.{name}"


@given(elab=netlists(), stimulus=_STIMULUS, shift=st.integers(1, 255))
@settings(max_examples=40, deadline=None)
def test_a_renamed_copy_runs_on_the_shared_template(elab, stimulus, shift):
    """The FAME-5 case: a copy that differs only in names and compare
    literals, printed with the original, shares its template, and the
    kernels made from it by swapping constants still equal the
    interpreter on the copy."""
    copy = _renamed(elab, _copy_name, shift)
    first, _ = share_kernels([(elab, _pack_lists(elab), "rand"),
                              (copy, _pack_lists(copy), "copy")])
    shared = _run_against_interpreter(copy, stimulus, "copy", _copy_name)
    for mine, theirs in zip(first, shared):
        if mine is None:
            continue
        assert theirs is not mine
        assert theirs._stepjit_template is mine._stepjit_template
        assert theirs._stepjit_shared == mine._stepjit_stats["kernel"]
        names = {n: v for n, v in mine._stepjit_slots.items()
                 if isinstance(v, str)}
        assert {n: v for n, v in theirs._stepjit_slots.items()
                if isinstance(v, str)} \
            == {n: _copy_name(v) for n, v in names.items()}
        assert "tile7." not in theirs._stepjit_template


def _printed_together(monkeypatch, requests):
    """``share_kernels(requests)``, returning the tags it printed and
    each kernel's ``(template, slots, stats)`` as it reached the
    compile."""
    printed, made = [], {}
    print_kernel = kernel.print_kernel
    monkeypatch.setattr(kernel, "print_kernel", lambda *a, **k: (
        printed.append(a[3]) or print_kernel(*a, **k)))
    compile_kernels = kernel.compile_kernels
    monkeypatch.setattr(kernel, "compile_kernels", lambda prints: (
        made.update((p[2]["kernel"], p) for p in prints)
        or compile_kernels(prints)))
    share_kernels(requests)
    monkeypatch.undo()
    return printed, made


def _with_repeats(partitions):
    """Each partition's elaboration, a repeat's renamed from its first
    instance's as FireRipper builds it."""
    elabs = {}
    repeats = find_repeats(partitions)
    for name, part in partitions.items():
        repeat = repeats.get(name)
        elabs[name] = elaborate(part) if repeat is None else rename(
            elabs[repeat[0]], part, *repeat[1:])
    return elabs


def _renamed_packs(elab, pack_lists):
    """``pack_lists`` of ``elab``'s first instance, through σ."""
    sigma = elab.repeat_of[1]

    def rename(name):
        head, dot, rest = name.partition(".")
        return sigma.get(head, head) + dot + rest

    return [[(rename(p), o, m) for p, o, m in f] for f in pack_lists]


def test_a_repeat_derives_the_print_of_its_own(monkeypatch):
    """A repeat printed after its first instance is not printed: its
    ``(template, slots, stats)`` is derived from the first's, router
    compare literals and all, and is what a print of its own netlist
    gives (its tag aside)."""
    circuit = make_ring_noc_soc(24, messages_per_tile=2)
    design = FireRipper(PartitionSpec(mode=FAST, noc=NoCPartitionSpec.make(
        [list(range(i * 6, i * 6 + 6)) for i in range(4)]))).compile(circuit)
    elabs = _with_repeats(design.partitions)
    first = elabs["noc0"]
    packs = _pack_lists(first)
    for name in ("noc1", "noc2", "noc3"):
        copy = elabs[name]
        assert copy.repeat_of[0] is first and copy.repeat_of[2]
        first.kernels = None
        printed, made = _printed_together(monkeypatch, [
            (first, packs, "noc0"),
            (copy, _renamed_packs(copy, packs), name)])
        assert printed == ["fire:noc0", "cyc:noc0"]
        for kind, do_tick in (("fire", False), ("cyc", True)):
            template, slots, stats = made[f"{kind}:{name}"]
            assert stats.pop("derived") == f"{kind}:noc0"
            assert (template, slots, stats) == print_kernel(
                copy, _renamed_packs(copy, packs), do_tick, f"{kind}:{name}")


#: ``A`` and ``B`` each compare their input against one literal per
#: instance; one parse, so equal lines share their statement and tree
_COMPARES = """circuit A :
  module A :
    input x : UInt<4>
    output o0 : UInt<1>
    output o1 : UInt<1>
    inst u0 of M3
    inst u1 of {a}
    u0.x <= x
    u1.x <= x
    o0 <= u0.hit
    o1 <= u1.hit

  module B :
    input y : UInt<4>
    output p0 : UInt<1>
    output p1 : UInt<1>
    inst v0 of M5
    inst v1 of {b}
    v0.x <= y
    v1.x <= y
    p0 <= v0.hit
    p1 <= v1.hit
""" + "".join(f"""
  module {name} :
    input x : UInt<4>
    output hit : UInt<1>
    hit <= eq(x, UInt<4>({value}))
""" for name, value in (("M3", 3), ("M5", 5), ("M6", 6), ("N3", 3),
                        ("K7", 7)))


def test_a_repeat_that_differs_in_what_is_printed_prints_its_own(
        monkeypatch):
    """``M3`` and ``N3`` share the literal object of ``eq(x, 3)``,
    which becomes 5 under ``u0``.  Where it becomes 6 under ``u1``, or
    stays 3 in the module both circuits share, it has no one image:
    the repeat prints its own, and its kernel compares against its own
    literals.  Where ``u1`` holds another literal, the repeat derives."""
    for a, b, derived in (("N3", "M6", False), ("N3", "N3", False),
                          ("K7", "K7", True)):
        modules = parse_circuit(_COMPARES.format(a=a, b=b)).modules
        elabs = _with_repeats({top: Circuit(top, [modules[n] for n in (
            top, *mods)]) for top, mods in (("A", {"M3", a}),
                                            ("B", {"M5", b}))})
        first, copy = elabs["A"], elabs["B"]
        packs = [[("o0", 0, 1), ("o1", 1, 1)]]
        mine = _renamed_packs(copy, packs)
        printed, _ = _printed_together(monkeypatch, [
            (first, packs, "a"), (copy, mine, "b")])
        assert printed == ["fire:a", "cyc:a"] + (
            [] if derived else ["fire:b", "cyc:b"]), (a, b)
        fire = unit_kernels(copy, mine, "b")[0]
        sim = Simulator(copy, compiled=False)
        for y in range(16):
            sim.poke("y", y)
            sim.eval()
            assert fire(sim.env, sim.mem_state) \
                == sim.peek("p0") | sim.peek("p1") << 1


def _masked_slice(value):
    """``o = bits(and(x, value), 3, 0)``: the slice's mask is elided
    exactly when ``value`` fits in four bits."""
    x = Ref("x", 8)
    return Elaboration(
        "Slice", {"x": 8}, {"o": 4},
        [FlatAssign("o", PrimOp("bits", (PrimOp(
            "and", (x, Lit(value, 8)), 8),), 4, (3, 0)))],
        {}, {}, [], {"x": 8, "o": 4})


def test_a_literal_that_flips_a_mask_does_not_share():
    """The template is printed after the ranges are decided, so a
    literal whose range changes what is printed changes the template
    too, and the kernels stay apart."""
    fields = [[("o", 0, 15)]]
    fits, shares, wide = compile_kernels([
        print_kernel(_masked_slice(v), fields, False, f"fire:{v}")
        for v in (15, 9, 16)])
    assert shares._stepjit_template is fits._stepjit_template
    assert wide._stepjit_template != fits._stepjit_template
    assert "& 15" in wide._stepjit_template \
        and "& 15" not in fits._stepjit_template
    for x in (0, 7, 200, 255):
        env = {"x": x, "o": 0}
        assert (fits(env, {}), shares(env, {}), wide(env, {})) \
            == (x & 15, x & 9, x & 16 & 15)


def test_a_folded_placeholder_compiles_its_own_source():
    """The guard: ``y * k`` where ``y`` is an alias of the literal 5
    prints ``(5 * '@1')``, which CPython folds into a string, so the
    placeholder is not in the template's ``co_consts``; each kernel
    then compiles its own source, and computes its own product."""
    def elab(k):
        return Elaboration(
            "Fold", {}, {"o": 16},
            [FlatAssign("y", Lit(5, 8)),
             FlatAssign("o", PrimOp("mul", (Ref("y", 8), Lit(k, 8)), 16))],
            {}, {}, [], {"y": 8, "o": 16})

    three, four = compile_kernels([print_kernel(
        elab(k), [[("o", 0, 65535)]], False, f"fire:{k}") for k in (3, 4)])
    assert "(5 * '@1')" in three._stepjit_template
    assert three._stepjit_template is four._stepjit_template
    assert TEMPLATES[three._stepjit_template][2] is None
    assert 15 in three.__code__.co_consts and 20 in four.__code__.co_consts
    assert (three({}, {}), four({}, {})) == (15, 20)


def test_a_stale_frame_misses_an_outside_write():
    """Why the harness re-primes: a frame keeps the register it read
    on its first resume, whatever the env says later."""
    r = Ref("r", 8)
    elab = Elaboration(
        "Count", {}, {"o": 8}, [FlatAssign("o", r)],
        {"r": FlatReg("r", 8, 0, PrimOp("add", (r, Lit(1, 8)), 9))},
        {}, [], {"o": 8, "r": 8})
    env, mems = {"o": 0, "r": 0}, {}
    cyc = compile_kernel(elab, [[("o", 0, 255)]], True, "cyc:count")
    frame = cyc(env, mems).__next__
    assert frame() == (0, False) and env["r"] == 1
    env["r"] = 40
    assert frame() == (1, False) and env["r"] == 2
    env["r"] = 40
    assert cyc(env, mems).__next__() == (40, False) and env["r"] == 41


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
    src = kernel_source(cyc)
    assert src.startswith("def _k(env, mems")
    prime, loop = src.split("    while True:\n")
    assert loop.splitlines()[-1].startswith("        yield ")
    # every register is read once per frame, before the loop, and
    # nothing else is
    regs = dict(re.findall(r"^    (v\d+) = env\['([^']+)'\]$", prime, re.M))
    assert regs and set(regs.values()) <= set(elab.regs)
    reads = re.findall(r"= env\['([^']+)'\]$", loop, re.M)
    assert not set(reads) & set(elab.regs)
    # alias propagation: no local is a copy of a bare name, bar a next
    # value naming another register's local, copied before the commits
    # move that local
    copies = re.findall(r"^\s+([vn]\d+) = (\w+)$", src, re.M)
    assert all(dst[0] == "n" and name in regs for dst, name in copies)
    # every memory is bound once per frame, before the loop
    binds = re.findall(r"mems\[('[^']+')\]", src)
    assert binds and len(binds) == len(set(binds))
    assert "mems[" not in loop
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
    assert "% 5" in kernel_source(fire)
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
