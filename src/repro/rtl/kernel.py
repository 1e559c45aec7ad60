"""Fused RTL kernels: the generic ``_comb``/``_tick`` pair, specialised.

The engine's generic ``_comb`` settles *every* combinational signal and
writes each one back into the env dict; its ``_tick`` then re-reads the
settled values out of the env, one dict lookup per reference.  A caller
that only observes three projections of that work — packed output
words, the register/memory next-state, and the env entries that hold
registers and top inputs — gets a kernel that computes exactly those
(:func:`compile_kernel`; the compiled step plane runs every dep-free
LI-BDN unit on them):

* the live cone is computed per kernel (dead assigns are dropped),
* every intermediate stays a Python local end-to-end — the env is read
  once per referenced register/input and written only for register
  commits,
* the tick next-state expressions read the comb *locals* directly
  instead of round-tripping through the env,
* the packed output words are built from locals and returned.

The cone is then optimised as a netlist *before* it is printed — one
generator, no verbatim printer kept beside it; ``eval_expr`` and
``Simulator(compiled=False)`` are the reference it is tested against.
Each pass and the one sentence that makes it sound:

* **alias and literal propagation** — an assign whose printed driver
  is a bare name or literal prints nothing and its readers name the
  source: a local is never reassigned, so the two names always held
  the same value.
* **single-fanout inlining** — a node referenced exactly once
  (occurrences counted over the kept assigns, register-next,
  write-port and pack expressions) is printed at its use site, in that
  site's position (so an unselected mux arm costs nothing and a
  comparison under a selector prints bare): every node is a pure
  function of locals and of memories that do not change before the
  commit, and a read of a *written* memory is never inlined, so moving
  an evaluation later — or skipping it — cannot change a value.
  ``_INLINE_DEPTH`` bounds the nesting so a long mux chain stays
  inside CPython's 200-level parenthesis limit.
* **memories bound once** — ``m3 = mems['tile0.core.regfile']`` in the
  prologue: ``mems`` maps names to lists that are mutated in place for
  the length of a call.  ``% depth`` is dropped when the address's
  range cannot reach ``depth``.
* **value-range printing** — :func:`~repro.rtl.eval.compile_expr`
  returns ``(code, bits)``; leaf bounds come from the storage sites
  that actually mask (a register commit and its checked init, ``poke``
  and the token-field unpack for a top input, the masked memory image)
  and never from a declared wire width.  The declared widths the
  kernel does believe are the ones ``check_module`` proved for every
  parsed design — a write port's data fits its memory, so a read port
  yields at most the memory's width — re-checked at the kernel's own
  door: :func:`compile_kernel` refuses a hand-built ``Elaboration``
  that breaks the rule (:class:`~repro.errors.IRError`) instead of
  computing a wrong cycle.  A mask whose operand provably fits is not
  printed, the register-commit mask included.
* **one-pass commit + quiescence** — ``_q = True``, then per register
  ``if n != v: env[k] = n; _q = False`` and per write port the same
  shape under its enable: a store that would not change the stored
  word is skipped, so the final state is the unconditional commit's,
  and ``_q`` is False exactly when some register or some enabled write
  differs from what is stored — a write is compared after the ports
  before it committed, but the first differing port still sees the
  untouched memory, so the flag equals the all-at-once comparison.

Consequence (documented contract): kernels do *not* write
combinational intermediates back into the RTL env, so signal peeks
between passes may observe stale comb values on kernel-tier units.
Registers, memories, inputs, output tokens, timing spans and every
checkpointable harness structure stay bit-identical — a restored
checkpoint re-settles from registers and inputs on the next pass.
Use ``REPRO_STEPJIT=0`` (or ``--no-jit``) for signal-level debugging.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..errors import IRError
from ..firrtl.ast import Expr, PrimOp, Ref
from .elaborate import Elaboration, FlatAssign
from .eval import CODEGEN_HELPERS, Printed, compile_expr, mask

#: expression-tree levels a node may reach and still be printed at its
#: use site; one level prints at most two nested parentheses
_INLINE_DEPTH = 48

#: ``(port, offset, mask)`` per port of one packed word
PackFields = List[Tuple[str, int, int]]


def pack_expr(ref: Callable[[str], str], fields) -> str:
    """A packed word built from ``ref(port)`` per port, as source."""
    return " | ".join(f"{ref(port)} << {offset}" if offset else ref(port)
                      for port, offset, _mask in fields) or "0"


def expr_scanner() -> Callable[[Expr], Tuple[Tuple[str, ...], int]]:
    """A memoised ``expr -> (referenced names, tree height)``; names
    repeat once per occurrence.  The kernels of one elaboration share
    one scanner, so each expression is walked once."""
    memo: Dict[int, Tuple[Tuple[str, ...], int]] = {}

    def walk(expr: Expr, names: List[str]) -> int:
        if isinstance(expr, Ref):
            names.append(expr.name)
        elif isinstance(expr, PrimOp):
            return 1 + max(walk(a, names) for a in expr.args)
        return 0

    def scan(expr: Expr) -> Tuple[Tuple[str, ...], int]:
        found = memo.get(id(expr))
        if found is None:
            names: List[str] = []
            height = walk(expr, names)
            found = memo[id(expr)] = (tuple(names), height)
        return found

    return scan


def compile_kernel(elab: Elaboration, pack_lists: List[PackFields],
                   do_tick: bool, tag: str, scan=None):
    """Generate one specialised kernel ``_k(env, mems)`` for ``elab``.

    ``pack_lists`` is a list of pack-field lists (one per output
    channel, in fire order); the kernel returns the packed words in
    that order.  ``do_tick`` fuses the register/memory commit into the
    same settle and appends a quiescence flag to the return value:
    True when the tick was a fixed point (every register next-value
    equals its current value and every enabled memory write re-writes
    the stored word) — the caller may then skip the next settle
    entirely if the inputs repeat, because pure logic over equal state
    and equal inputs reproduces the same words and the same fixed
    point.  ``scan`` is an :func:`expr_scanner` to share.

    The function carries its source as ``_stepjit_source`` and the
    generator's counters as ``_stepjit_stats``."""
    for mw in elab.writes:
        if mw.data.width > elab.mems[mw.mem].width:
            raise IRError(
                f"{elab.top}: write port stores {mw.data.width}-bit data "
                f"into the {elab.mems[mw.mem].width}-bit memory {mw.mem!r}")
    scan = scan or expr_scanner()
    tick_regs = [r for r in elab.regs.values()
                 if r.next is not None] if do_tick else []
    writes = elab.writes if do_tick else []
    #: the expressions the kernel evaluates outside the comb cone
    roots = [r.next for r in tick_regs] + [
        e for mw in writes for e in (mw.en, mw.addr, mw.data)]
    ports = [port for fields in pack_lists for port, _o, _m in fields]

    # live cone, walked against the topological order
    live = set(ports)
    for expr in roots:
        live.update(scan(expr)[0])
    kept = []
    for a in reversed(elab.assigns):
        if a.name in live:
            kept.append(a)
            live.update(scan(_driver(a))[0])
    kept.reverse()

    # occurrences per name over everything that will be printed
    uses: Dict[str, int] = {}
    for names in [scan(_driver(a))[0] for a in kept] \
            + [scan(e)[0] for e in roots] + [ports]:
        for name in names:
            uses[name] = uses.get(name, 0) + 1

    written = {mw.mem for mw in elab.writes}
    stats = {"kernel": tag, "cone": len(kept), "aliases": 0,
             "inlined": 0, "masks_elided": 0}
    ids: Dict[object, str] = {}
    prologue: List[str] = []
    body: List[str] = []
    #: name -> what its readers print: a local and its range, or the
    #: source an alias folded into
    printed: Dict[str, Printed] = {}
    #: single-fanout nodes waiting for their use site, and their depth
    pending: Dict[str, object] = {}
    depth: Dict[str, int] = {}

    def local(key, source: str) -> str:
        """The local bound to ``source`` in the prologue (once)."""
        name = ids.get(key)
        if name is None:
            name = ids[key] = f"v{len(ids)}"
            prologue.append(f"    {name} = {source}")
        return name

    def name_of(name: str, truth: bool = False) -> Printed:
        node = pending.pop(name, None)
        if node is not None:
            found = print_node(node, truth)
            stats["aliases" if found[0].isalnum() else "inlined"] += 1
            return found
        known = printed.get(name)
        if known is None:
            # state the caller owns: loaded once, bounded by the site
            # that stores it (undriven names are anyone's to write)
            reg = elab.regs.get(name)
            bits = elab.inputs.get(name) if reg is None \
                else max(reg.width, reg.init.bit_length())
            known = printed[name] = (local(name, f"env[{name!r}]"), bits)
        return known

    def index(addr: Expr, depth: int) -> str:
        """``addr`` as a subscript of a ``depth``-word memory: wrapped
        only if its range can reach ``depth``."""
        code, bits = compile_expr(addr, name_of, False, stats)
        if bits is not None and (1 << bits) <= depth:
            stats["masks_elided"] += 1
            return code
        return f"{code} % {depth}"

    def bound(mem: str) -> str:
        return local(("mem", mem), f"mems[{mem!r}]")

    def print_node(a, truth: bool) -> Printed:
        if isinstance(a, FlatAssign):
            return compile_expr(a.expr, name_of, truth, stats)
        return (f"{bound(a.mem)}[{index(a.addr, a.depth)}]",
                elab.mems[a.mem].width)

    for a in kept:
        names, height = scan(_driver(a))
        reach = height + max((depth.get(n, 0) for n in names), default=0)
        if uses.get(a.name) == 1 and reach <= _INLINE_DEPTH and (
                isinstance(a, FlatAssign) or a.mem not in written):
            pending[a.name] = a
            depth[a.name] = reach
            continue
        code, bits = print_node(a, False)
        if code.isalnum():
            stats["aliases"] += 1
            printed[a.name] = (code, bits)
        else:
            ids[a.name] = var = f"v{len(ids)}"
            body.append(f"    {var} = {code}")
            printed[a.name] = (var, bits)

    if do_tick:
        body.append("    _q = True")
    for i, reg in enumerate(tick_regs):
        code, bits = compile_expr(reg.next, name_of, False, stats)
        if bits is None or bits > reg.width:
            code = f"{code} & {mask(reg.width)}"
        else:
            stats["masks_elided"] += 1
        if not code.isalnum():
            body.append(f"    n{i} = {code}")
            code = f"n{i}"
        # the local still holds the pre-commit value
        body.append(f"    if {code} != {name_of(reg.name)[0]}:")
        body.append(f"        env[{reg.name!r}] = {code}")
        body.append("        _q = False")
    for mw in writes:
        en = compile_expr(mw.en, name_of, True, stats)[0]
        addr = index(mw.addr, mw.depth)
        data = compile_expr(mw.data, name_of, False, stats)[0]
        mem = bound(mw.mem)
        body.append(f"    if {en}:")
        body.append(f"        _a = {addr}")
        body.append(f"        _d = {data}")
        body.append(f"        if {mem}[_a] != _d:")
        body.append(f"            {mem}[_a] = _d")
        body.append("            _q = False")

    rets = [f"({pack_expr(lambda port: name_of(port)[0], fields)})"
            for fields in pack_lists]
    if do_tick:
        rets.append("_q")
    lines = prologue + body
    if rets:
        lines.append("    return " + ", ".join(rets))
    stats["statements"] = len(lines)
    src = ("def _k(env, mems, _div=_div, _rem=_rem):\n"
           + "\n".join(lines or ["    pass"]) + "\n")
    namespace: Dict[str, object] = dict(CODEGEN_HELPERS)
    exec(compile(src, f"<stepjit-kernel:{tag}>", "exec"), namespace)
    fn = namespace["_k"]
    fn._stepjit_source = src  # for ``repro jit --dump``
    fn._stepjit_stats = stats
    return fn


def unit_kernels(elab: Elaboration, pack_lists: List[PackFields],
                 tag: str):
    """``(fire, adv, cyc)`` for one elaboration.  With output words to
    pack: ``fire(env, mems) -> words`` (pack cone only) and
    ``cyc(env, mems) -> words, quiescent`` (the fused single-settle
    cycle: when the next input words equal the currently-poked values,
    one comb settle serves both the fire and the advance — eval is
    pure, so the second settle the interpreter performs is provably
    identical).  ``cyc`` is also the advance of the split path, which
    pokes first and ignores the words: it is the tick cone + commit
    plus a few pack shifts, and compiling that cone once instead of
    twice is most of the codegen time.  With none, a bare
    ``adv(env, mems)``."""
    scan = expr_scanner()
    if pack_lists:
        return (compile_kernel(elab, pack_lists, False, f"fire:{tag}", scan),
                None,
                compile_kernel(elab, pack_lists, True, f"cyc:{tag}", scan))
    return (None, compile_kernel(elab, [], True, f"adv:{tag}", scan), None)


def _driver(a) -> Expr:
    """The expression a comb assign or memory read evaluates."""
    return a.expr if isinstance(a, FlatAssign) else a.addr
