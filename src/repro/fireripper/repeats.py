"""Repeated partitions: which partition is a renaming of an earlier one.

A NoC-partitioned SoC repeats whole partitions: the 24-tile ring's four
groups differ only in instance, module and port names, in the index a
router compares against and in the programs their memories hold.  Each
repeat is recorded with σ, its first's top-level names mapped to its
own, and the images of the literals it lets differ, so the repeat's
elaboration is its first's header renamed
(:func:`repro.rtl.elaborate.rename`) and its kernels are derived from
its first's print (:func:`repro.rtl.kernel.share_kernels`), neither
flattened nor printed.  The check is cheap because repeated modules
share statement objects (one parse, shared trees), so module pairs
compare mostly by ``is``.  Only a memory's init and a comparison's
literal operand beside a non-literal may differ: the printer never
reads an image or a comparison operand's range.  Flat names then
correspond through σ on their first segment.
"""

from __future__ import annotations

from dataclasses import replace
from operator import eq
from typing import Callable, Dict, Optional, Tuple

from ..firrtl.ast import (
    Connect,
    DefInstance,
    DefMemory,
    Expr,
    InstPort,
    InstTarget,
    Lit,
    PrimOp,
    Ref,
)
from ..firrtl.circuit import Circuit
from ..rtl.eval import _COMPARISONS

#: partition -> (its first instance, σ: each top-level name there ->
#: here, ``(literal object there, its value here)`` per literal whose
#: value differs, None where that object has more than one image)
Repeats = Dict[str, Tuple[str, Dict[str, str], tuple]]


def find_repeats(partitions: Dict[str, Circuit]) -> Repeats:
    """Every partition that is a renaming of an earlier one that is not
    itself a repeat, with that first instance, σ and literal images."""
    repeats: Repeats = {}
    firsts = []
    for name, part in partitions.items():
        for first in firsts:
            found = renaming(partitions[first], part)
            if found is not None:
                repeats[name] = (first, *found)
                break
        else:
            firsts.append(name)
    return repeats


def renaming(a: Circuit, b: Circuit) -> Optional[Tuple[dict, tuple]]:
    """σ (``a``'s top-level names -> ``b``'s) and the images of ``a``'s
    literals that differ in ``b``, when ``b`` is a renaming of ``a``;
    else None.  The tops may hold only instances, paired in order, and
    connects, each paired with the one driving the σ-image of its
    target (for an output port: with a driver of its shape); the
    modules paired through instances must hold the same ports and
    statements, bar what :func:`_same` lets differ.  A literal object
    ``a`` holds in two places whose images differ has no image."""
    ta, tb = a.top_module, b.top_module
    if len(a.modules) != len(b.modules) or len(ta.ports) != len(tb.ports) \
            or len(ta.stmts) != len(tb.stmts):
        return None
    back: Dict[str, str] = {}  # b's top-level name -> a's
    taken = set()
    lits: Dict[int, tuple] = {}  # id -> (a's literal, its image or None)

    def bind(mine: str, theirs: str) -> bool:
        if mine not in back and theirs not in taken:
            back[mine] = theirs
            taken.add(theirs)
        return back.get(mine) == theirs

    insts = [[s for s in top.stmts if not isinstance(s, Connect)]
             for top in (ta, tb)]
    if len(insts[0]) != len(insts[1]) or not all(
            isinstance(s, DefInstance) for s in insts[0] + insts[1]):
        return None
    pairs = set()
    for s, t in zip(*insts):
        if not bind(t.name, s.name):
            return None
        pairs.add((s.module, t.module))
    drivers: Dict[tuple, list] = {}
    for s in ta.stmts:
        if isinstance(s, Connect):
            drivers.setdefault(_key(s, str), []).append(s)
    for t in tb.stmts:
        if isinstance(t, Connect):
            found = drivers.get(_key(t, back.get))
            s = found.pop(0) if found else None
            if s is None or not _same(s.expr, t.expr, bind, lits) or not (
                    isinstance(t.target, InstTarget)
                    or bind(t.target.name, s.target.name)):
                return None
    ports = {p.name: p for p in ta.ports}
    if any(ports.get(back.get(q.name)) != replace(q, name=back.get(q.name))
           for q in tb.ports):
        return None
    seen = set()
    while pairs:
        pair = pairs.pop()
        seen.add(pair)
        children = _same_module(a.modules.get(pair[0]),
                                b.modules.get(pair[1]), lits)
        if children is None:
            return None
        pairs |= children - seen
    moved = {i for i, (lit, value) in lits.items() if value != lit.value}
    if moved:  # a statement both share keeps each literal it holds
        for lit in _literals(e for ma, mb in seen for s, t in zip(
                a.modules[ma].stmts, b.modules[mb].stmts) if s is t
                for e in vars(s).values()):
            if id(lit) in moved:
                lits[id(lit)] = (lit, None)
    return ({theirs: mine for mine, theirs in back.items()},
            tuple(image for i, image in lits.items() if i in moved))


def _key(s: Connect, inst: Callable[[str], str]):
    """What pairs a connect across the tops: the instance port it
    drives, or its driver's shape, instance names through ``inst``."""
    def shape(e):
        if isinstance(e, Ref):
            return e.width
        if isinstance(e, InstPort):
            return inst(e.inst), e.port, e.width
        if isinstance(e, PrimOp):
            return (e.op, e.params, *map(shape, e.args))
        return e

    if isinstance(s.target, InstTarget):
        return inst(s.target.inst), s.target.port
    return shape(s.expr)


def _same(x: Expr, y: Expr, names: Callable[[str, str], bool],
          lits: Dict[int, tuple]) -> bool:
    """``y`` is ``x`` with every name through ``names(y's, x's)`` and
    equal literals, bar a comparison's literal operand; each literal's
    image goes into ``lits``."""
    if type(x) is not type(y) or x.width != y.width:
        return False
    if isinstance(x, Ref):
        return names(y.name, x.name)
    if isinstance(x, InstPort):
        return x.port == y.port and names(y.inst, x.inst)
    if isinstance(x, Lit):
        return x.value == y.value and _image(lits, x, y.value)
    free = x.op in _COMPARISONS and sum(
        isinstance(arg, Lit) for arg in x.args) == 1
    return x.op == y.op and x.params == y.params and all(
        free and isinstance(u, Lit) and isinstance(v, Lit)
        and u.width == v.width and _image(lits, u, v.value)
        or _same(u, v, names, lits) for u, v in zip(x.args, y.args))


def _image(lits: Dict[int, tuple], lit: Lit, value: int) -> bool:
    """Record ``value`` as ``lit``'s image (None once two differ)."""
    if lits.setdefault(id(lit), (lit, value))[1] != value:
        lits[id(lit)] = (lit, None)
    return True


def _literals(exprs):
    """The literals under ``exprs``, each shared tree walked once."""
    seen, todo = set(), list(exprs)
    while todo:
        e = todo.pop()
        if isinstance(e, Lit):
            yield e
        elif isinstance(e, PrimOp) and id(e) not in seen:
            seen.add(id(e))
            todo.extend(e.args)


def _same_module(ma, mb, lits: Dict[int, tuple]) -> Optional[set]:
    """The module pairs ``ma`` and ``mb`` instantiate, when they hold
    the same ports and statements (bar a memory's init and what
    :func:`_same` lets differ); else None."""
    if ma is None or mb is None or len(ma.ports) != len(mb.ports) \
            or len(ma.stmts) != len(mb.stmts) \
            or any(p is not q and p != q for p, q in zip(ma.ports, mb.ports)):
        return None
    children = set()
    for s, t in zip(ma.stmts, mb.stmts):
        if isinstance(s, DefInstance) and type(t) is DefInstance \
                and s.name == t.name:
            children.add((s.module, t.module))
        elif s is not t and (type(s) is not type(t) or not all(
                _same(u, vars(t)[k], eq, lits) if isinstance(u, Expr)
                else u == vars(t)[k] or k == "init" and type(s) is DefMemory
                for k, u in vars(s).items())):
            return None
    return children
