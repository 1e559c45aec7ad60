"""Fused RTL kernels: the generic ``_comb``/``_tick`` pair, specialised.

The engine's generic ``_comb`` settles *every* combinational signal and
writes each one back into the env dict; its ``_tick`` then re-reads the
settled values out of the env, one dict lookup per reference.  A caller
that only observes three projections of that work — packed output
words, the register/memory next-state, and the env entries that hold
registers and top inputs — gets a kernel that computes exactly those
(:func:`compile_kernel`; the compiled step plane runs every LI-BDN unit
on them, :func:`unit_kernels`: one tick kernel ``cyc`` plus one
cone-reduced ``fire`` kernel per run of output channels sharing a dep
set, whose stats name the top inputs its cone reads, ``reads``, so the
plane can check them against the channels' declared deps):

* the live cone is computed per kernel (dead assigns are dropped),
* every intermediate stays a Python local end-to-end — the env is
  written only for register commits,
* the tick kernel (``cyc``; ``adv`` with no outputs) is a generator
  whose frame binds the memories and reads the registers on its first
  resume only, then per resume re-reads the other env names (inputs,
  undriven names) and yields one cycle's ``(words..., _q)``: a caller
  primes a fresh frame after anything else writes a register,
* the tick next-state expressions read the comb *locals* directly
  instead of round-tripping through the env,
* the packed output words are built from locals and returned.

The cone is then optimised as a netlist *before* it is printed — one
printer, no verbatim twin kept beside it; ``eval_expr`` and
``Simulator(compiled=False)`` are the reference it is tested against.
Each pass and the one sentence that makes it sound:

* **alias and literal propagation** — an assign whose printed driver
  is a bare name or literal prints nothing and its readers name the
  source: no local is reassigned before the register commits that
  end a cycle, so the two names always held the same value.
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
  the life of a frame.  ``% depth`` is dropped when the address's
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
* **one-pass commit + quiescence** — ``_q = True``, per write port
  the shape below under its enable, then per register (last, so all
  else reads pre-commit locals) ``if n != v: env[k] = v = n; _q =
  False``: a skipped store would not change the stored word, so the
  state is the unconditional commit's, and ``_q`` is False exactly when
  some register or enabled write differs from what is stored — a write
  is compared after the ports before it committed, but the first
  differing port still sees the untouched memory, so the flag equals
  the all-at-once comparison.

**One compile per shape** (:func:`share_kernels`): a kernel is
printed as a template whose names and lifted literals are placeholder
constants; the kernels printed together that share a template compile
once, with the slots that differ among them left as placeholders, and
each kernel is that code with its own constants swapped in, so kernels
share bytecode (re-print one rather than edit its ``__code__``).
Slots are not lifted into locals or defaults: that widens the frame
and slows every resume.

**One print per shape**: a repeated partition (``elab.repeat_of``,
:mod:`repro.fireripper.repeats`) whose first instance printed earlier
in the same :func:`share_kernels` call is not printed; its print is
derived from the first's (:func:`_derive`), so its netlist is never
read and never flattened (:func:`repro.rtl.elaborate.rename`).

Consequence (documented contract): kernels do *not* write
combinational intermediates back into the RTL env, so signal peeks
between passes may observe stale comb values on every unit of a
compiled plane, dep-carrying ones included (the plane leaves their
output ports holding the words their channels last fired).  Registers,
memories, inputs, output tokens, timing spans and every checkpointable
harness structure stay bit-identical — a restored checkpoint
re-settles from registers and inputs on the next pass.  Use
``REPRO_STEPJIT=0`` (or ``--no-jit``) for signal-level debugging.
"""

from __future__ import annotations

import re
from types import FunctionType
from itertools import islice
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

#: compiled text -> ``(text, its function, co_consts index per
#: placeholder or None, tag that compiled it)``, 32 least recently used
TEMPLATES: Dict[str, tuple] = {}

_PLACEHOLDER = re.compile(r"'@(\d+)'")


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


def word_order(pack_lists: List[PackFields]) -> List[int]:
    """The order a kernel yields its words in (indices into
    ``pack_lists``): by layout, never by port name, so repeated
    partitions that list their channels differently share a template."""
    return sorted(range(len(pack_lists)), key=lambda j: [
        (offset, m) for _port, offset, m in pack_lists[j]])


def compile_kernel(elab: Elaboration, pack_lists: List[PackFields],
                   do_tick: bool, tag: str, scan=None):
    """One kernel, printed (:func:`print_kernel`) and compiled alone."""
    return compile_kernels([print_kernel(elab, pack_lists, do_tick, tag,
                                         scan)])[0]


def print_kernel(elab: Elaboration, pack_lists: List[PackFields],
                 do_tick: bool, tag: str, scan=None, sites=None):
    """Print one specialised kernel ``_k(env, mems)`` for ``elab`` as
    ``(template, slot values, stats)``.

    ``pack_lists`` is a list of pack-field lists (one per output
    channel, in fire order); the kernel returns the packed words in
    :func:`word_order`.  ``do_tick`` makes ``_k`` a generator, one cycle per
    resume, fusing the register/memory commit into the same settle
    and yielding the words plus a quiescence flag:
    True when the tick was a fixed point (every register next-value
    equals its current value and every enabled memory write re-writes
    the stored word) — the caller may then skip the next settle
    entirely if the inputs repeat, because pure logic over equal state
    and equal inputs reproduces the same words and the same fixed
    point.  ``scan`` is an :func:`expr_scanner` to share.

    Every ``env``/``mems`` key and every literal ``compile_expr`` lifts
    prints as the placeholder ``'@n'`` of slot ``n``.  ``sites``, when
    given, gets ``n - 1 ->`` the :class:`Lit` object per lifted
    literal."""
    for mw in elab.writes:
        if mw.data.width > elab.mems[mw.mem].width:
            raise IRError(
                f"{elab.top}: write port stores {mw.data.width}-bit data "
                f"into the {elab.mems[mw.mem].width}-bit memory {mw.mem!r}")
    scan = scan or expr_scanner()
    pack_lists = [pack_lists[j] for j in word_order(pack_lists)]
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
    reads = tuple(sorted(name for name in live if name in elab.inputs))

    # occurrences per name over everything that will be printed
    uses: Dict[str, int] = {}
    for names in [scan(_driver(a))[0] for a in kept] \
            + [scan(e)[0] for e in roots] + [ports]:
        for name in names:
            uses[name] = uses.get(name, 0) + 1

    written = {mw.mem for mw in elab.writes}
    stats = {"kernel": tag, "cone": len(kept), "aliases": 0,
             "inlined": 0, "masks_elided": 0, "reads": reads}
    ids: Dict[object, str] = {}
    #: loads made once per frame (memories, registers) and per resume
    prime: List[str] = []
    reload: List[str] = []
    body: List[str] = []
    #: name -> what its readers print: a local and its range, or the
    #: source an alias folded into
    printed: Dict[str, Printed] = {}
    #: single-fanout nodes waiting for their use site, and their depth
    pending: Dict[str, object] = {}
    depth: Dict[str, int] = {}
    slots: List[object] = []
    #: a name stands for one signal, so its loads and stores share a slot
    named: Dict[str, str] = {}

    def slot(value) -> str:
        if value in named:
            return named[value]
        slots.append(value)
        if isinstance(value, str):
            named[value] = f"'@{len(slots)}'"
        return f"'@{len(slots)}'"

    def literal(op: PrimOp, i: int) -> str:
        if sites is not None:
            sites[len(slots)] = op.args[i]
        return slot(op.args[i].value)

    def code_of(e: Expr, truth: bool = False) -> Printed:
        return compile_expr(e, name_of, truth, stats, literal)

    def local(key, table: str, item: str, loads: List[str]) -> str:
        """The local bound to ``table[item]`` in ``loads`` (once)."""
        name = ids.get(key)
        if name is None:
            name = ids[key] = f"v{len(ids)}"
            loads.append(f"    {name} = {table}[{slot(item)}]")
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
            loads = prime if do_tick and reg is not None else reload
            known = printed[name] = (local(name, "env", name, loads), bits)
        return known

    def index(addr: Expr, depth: int) -> str:
        """``addr`` as a subscript of a ``depth``-word memory: wrapped
        only if its range can reach ``depth``."""
        code, bits = code_of(addr)
        if bits is not None and (1 << bits) <= depth:
            stats["masks_elided"] += 1
            return code
        return f"{code} % {depth}"

    def bound(mem: str) -> str:
        return local(("mem", mem), "mems", mem, prime)

    def print_node(a, truth: bool) -> Printed:
        if isinstance(a, FlatAssign):
            return code_of(a.expr, truth)
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
    # a next value naming another register's local is copied before
    # the commits move it
    reg_vars = [name_of(reg.name)[0] for reg in tick_regs]
    commits = []
    for i, (reg, var) in enumerate(zip(tick_regs, reg_vars)):
        code, bits = code_of(reg.next)
        if bits is None or bits > reg.width:
            code = f"{code} & {mask(reg.width)}"
        else:
            stats["masks_elided"] += 1
        if not code.isalnum() or code in reg_vars and code != var:
            body.append(f"    n{i} = {code}")
            code = f"n{i}"
        if code != var:
            commits.append((reg.name, var, code))
    for mw in writes:
        en = code_of(mw.en, True)[0]
        addr = index(mw.addr, mw.depth)
        data = code_of(mw.data)[0]
        mem = bound(mw.mem)
        body.append(f"    if {en}:")
        body.append(f"        _a = {addr}")
        body.append(f"        _d = {data}")
        body.append(f"        if {mem}[_a] != _d:")
        body.append(f"            {mem}[_a] = _d")
        body.append("            _q = False")

    rets = ["(" + (" | ".join(
        name_of(port)[0] + (f" << {offset}" if offset else "")
        for port, offset, _mask in fields) or "0") + ")"
        for fields in pack_lists]
    if do_tick:
        body += [f"    _y{j} = {ret}" for j, ret in enumerate(rets)]
        for name, var, code in commits:
            body += [f"    if {code} != {var}:",
                     f"        env[{slot(name)}] = {var} = {code}",
                     "        _q = False"]
        body.append("    yield " + ", ".join(
            [f"_y{j}" for j in range(len(rets))] + ["_q"]))
        lines = prime + ["    while True:"] + [
            "    " + ln for ln in reload + body]
    else:
        lines = prime + reload + body
        if rets:
            lines.append("    return " + ", ".join(rets))
    stats["statements"] = len(lines)
    template = ("def _k(env, mems, _div=_div, _rem=_rem):\n"
                + "\n".join(lines or ["    pass"]) + "\n")
    return template, tuple(slots), stats


def compile_kernels(printed: list) -> list:
    """The functions of printed kernels: the kernels that print one
    template are compiled from it once, with the slots whose values are
    equal in all of them printed as values, so the shared code's
    constant table is an own compile's, and the slots that differ left
    as placeholders for each kernel's own constants."""
    groups: Dict[str, list] = {}
    for template, slots, _stats in printed:
        groups.setdefault(template, []).append(slots)
    varying = {template: {n + 1 for n, column in enumerate(zip(*rows))
                          if any(v != column[0] for v in column)}
               for template, rows in groups.items()}
    specs: Dict[str, str] = {}
    kernels = []
    for template, slots, stats in printed:
        keep = varying[template]
        spec = specs.get(template)
        if spec is None:
            spec = specs[template] = _substitute(template, {
                n: v for n, v in enumerate(slots, 1) if n not in keep})
        kernels.append(_load_kernel(spec, {n: slots[n - 1] for n in keep},
                                    stats))
    return kernels


def _substitute(template: str, slots: dict) -> str:
    """``template`` with the placeholders ``slots`` holds filled in."""
    return _PLACEHOLDER.sub(lambda m: repr(slots[int(m[1])])
                            if int(m[1]) in slots else m[0], template)


def kernel_source(fn) -> str:
    """A kernel's own source: its template with its slot values in."""
    return _substitute(fn._stepjit_template, fn._stepjit_slots)


def _exec(src: str, tag: str):
    namespace: Dict[str, object] = dict(CODEGEN_HELPERS)
    exec(compile(src, f"<stepjit-kernel:{tag}>", "exec"), namespace)
    return namespace["_k"]


def _load_kernel(template: str, slots: dict, stats: dict):
    """The kernel ``template`` defines with ``slots`` (placeholder
    number -> value) in: the first kernel of a text compiles it, and
    each kernel is that code with its values swapped into ``co_consts``:
    a placeholder is a string, which CPython folds with no number, and
    a string it does fold leaves ``co_consts`` and makes no placeholder
    (one ``@`` each).  Guard: a text missing a placeholder there
    compiles each kernel's own source instead."""
    tag = stats["kernel"]
    entry = TEMPLATES.pop(template, None)
    if entry is None:
        fn = _exec(template, tag)
        index = {c: i for i, c in enumerate(fn.__code__.co_consts)
                 if type(c) is str}
        at = {n: index.get(f"@{n}") for n in slots}
        entry = (template, fn, None if None in at.values() else at, tag)
    TEMPLATES[entry[0]] = entry
    for stale in list(TEMPLATES)[:-32]:
        TEMPLATES.pop(stale, None)
    template, fn, at, owner = entry
    if at is None:
        kernel = _exec(_substitute(template, slots), tag)
    else:
        consts = list(fn.__code__.co_consts)
        for n, value in slots.items():
            consts[at[n]] = value
        kernel = FunctionType(
            fn.__code__.replace(co_consts=tuple(consts),
                                co_filename=f"<stepjit-kernel:{tag}>"),
            fn.__globals__, "_k", fn.__defaults__)
    kernel._stepjit_template = template  # one object per shape
    kernel._stepjit_slots = slots
    kernel._stepjit_stats = stats
    kernel._stepjit_shared = owner
    return kernel


class KernelMemo(dict):
    """``(tag, pack layout, runs) -> (*fires, adv, cyc)`` of one
    elaboration, kept on it as ``elab.kernels``.  It pickles each kernel
    as its template, slot values and stats, not the function: a template
    is one object however many kernels share it, so a pickle holds it
    once, and loading compiles each template once and never prints a
    kernel again."""

    def __reduce__(self):
        return (_load_memo, ({
            key: tuple(fn and (fn._stepjit_template, fn._stepjit_slots,
                               fn._stepjit_stats) for fn in fns)
            for key, fns in self.items()},))


def _load_memo(printed: dict) -> KernelMemo:
    return KernelMemo({key: tuple(p and _load_kernel(*p) for p in fns)
                       for key, fns in printed.items()})


def unit_kernels(elab: Elaboration, pack_lists: List[PackFields],
                 tag: str, runs: Tuple[int, ...] = ()):
    """``(*fires, adv, cyc)`` for one elaboration, made once per
    ``(tag, pack layout, runs)`` and memoized on it as ``elab.kernels``
    (a :class:`KernelMemo`): an elaboration is read-only after
    ``elaborate()`` and a kernel (or a frame of one) touches only the
    ``env``/``mems`` it is handed, so every unit built on one
    elaboration shares them.

    With output words to pack, ``runs`` cuts ``pack_lists`` (fire
    order) into consecutive runs, by default one: per run a ``fire(env,
    mems) -> words`` (that run's pack cone only), ``adv`` None, and the
    generator ``cyc(env, mems)`` yielding every word and the quiescence
    flag per resume: the unit's one settle of a cycle whose inputs are
    poked first, and the split path's advance, which ignores the words
    (the tick cone is most of ``cyc``, so one compile serves both).
    With none: ``(None, adv, None)``, ``adv`` a bare generator yielding
    the flag."""
    return share_kernels([(elab, pack_lists, tag, runs)])[0]


def share_kernels(requests) -> list:
    """:func:`unit_kernels` of many ``(elab, pack_lists, tag[, runs])``
    at once: every kernel missing from a memo is printed first, then all
    are compiled together (:func:`compile_kernels`), so repeated
    partitions share their code, and a repeat's prints are derived from
    its first instance's when that printed earlier in the call."""
    todo: Dict[tuple, tuple] = {}
    #: id(elab) -> its (word-ordered pack lists, prints, literal sites)
    firsts: Dict[int, list] = {}
    keys = []
    for elab, pack_lists, tag, *cut in requests:
        runs = tuple(cut[0]) if cut and cut[0] else (
            (len(pack_lists),) if pack_lists else ())
        if getattr(elab, "kernels", None) is None:
            elab.kernels = KernelMemo()
        key = (tag, tuple(tuple(fields) for fields in pack_lists), runs)
        keys.append(key)
        if key in elab.kernels or (id(elab), key) in todo:
            continue
        prints = _derive(elab, pack_lists, tag, runs, firsts)
        if prints is None:
            scan = expr_scanner()
            kinds = [(lists, False, "fire" if len(runs) == 1
                      else f"fire{r}") for r, lists in
                     enumerate(cut_runs(pack_lists, runs))]
            kinds += [None, (pack_lists, True, "cyc")] if pack_lists \
                else [None, (pack_lists, True, "adv"), None]
            sites = [{} for _kind in kinds]
            prints = [kind and print_kernel(
                elab, kind[0], kind[1], f"{kind[2]}:{tag}", scan, where)
                for kind, where in zip(kinds, sites)]
            firsts.setdefault(id(elab), []).append(
                (_ordered(pack_lists, runs), prints, sites))
        todo[id(elab), key] = (elab, key, prints)
    fns = iter(compile_kernels([p for _e, _k, ps in todo.values()
                                for p in ps if p]))
    for elab, key, ps in todo.values():
        elab.kernels[key] = tuple(p and next(fns) for p in ps)
    return [request[0].kernels[key] for request, key in zip(requests, keys)]


def cut_runs(items: list, runs: Tuple[int, ...]) -> list:
    """``items`` cut into consecutive runs of the given lengths."""
    rest = iter(items)
    return [list(islice(rest, length)) for length in runs]


def _driver(a) -> Expr:
    """The expression a comb assign or memory read evaluates."""
    return a.expr if isinstance(a, FlatAssign) else a.addr


def _ordered(pack_lists: List[PackFields], runs: Tuple[int, ...]):
    """The pack lists as ``cyc`` and then each run's ``fire`` print
    them, each in :func:`word_order`."""
    return [[list(lists[j]) for j in word_order(lists)]
            for lists in [pack_lists] + cut_runs(pack_lists, runs)]


def _derive(elab: Elaboration, pack_lists: List[PackFields], tag: str,
            runs: Tuple[int, ...], firsts: Dict[int, list]):
    """A repeat's prints, made from its first instance's in ``firsts``:
    the first's template and stats, its name slots through σ and its
    lifted literals through the images FireRipper recorded.  That
    prints the repeat's netlist: FireRipper proved the rest the printer
    reads equal (:mod:`repro.fireripper.repeats`).  None, and the
    repeat prints its own, unless the layouts are the first's renamed
    and each lifted literal has one image."""
    if elab.repeat_of is None:
        return None
    first, sigma, lits = elab.repeat_of

    def rename(name: str) -> str:
        head, dot, rest = name.partition(".")
        return sigma.get(head, head) + dot + rest

    want = _ordered(pack_lists, runs)
    for layouts, prints, sites in firsts.get(id(first), ()):
        if [[[(rename(port), offset, m) for port, offset, m in f]
             for f in lists] for lists in layouts] == want:
            break
    else:
        return None
    images = {id(lit): value for lit, value in lits}
    derived = []
    for printed, where in zip(prints, sites):
        if printed is None:
            derived.append(None)
            continue
        template, slots, stats = printed
        mine = [rename(v) if isinstance(v, str) else v for v in slots]
        for n, lit in where.items():
            mine[n] = images.get(id(lit), lit.value)
            if mine[n] is None:
                return None
        kind = stats["kernel"].split(":", 1)[0]
        derived.append((template, tuple(mine), dict(
            stats, kernel=f"{kind}:{tag}", derived=stats["kernel"],
            reads=tuple(sorted(map(rename, stats["reads"]))))))
    return derived
