"""Repeated partitions: which partition is a renaming of an earlier one.

A NoC-partitioned SoC repeats whole partitions: the 24-tile ring's four
groups differ only in instance, module and port names, in the index a
router compares against and in the programs their memories hold.  The
kernel printer derives a repeat's kernels from its first instance's
print (:func:`repro.rtl.kernel.share_kernels`), so each repeat is
recorded with σ, its first's top-level names mapped to its own.  The
check is cheap because repeated modules share statement objects (one
parse, shared trees), so module pairs compare mostly by ``is``.  Only a
memory's init and a comparison's literal operand beside a non-literal
may differ: the printer never reads an image or a comparison operand's
range.  Flat names then correspond through σ on their first segment.
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

#: partition -> (its first instance, σ: each top-level name there -> here)
Repeats = Dict[str, Tuple[str, Dict[str, str]]]


def find_repeats(partitions: Dict[str, Circuit]) -> Repeats:
    """Every partition that is a renaming of an earlier one that is not
    itself a repeat, with that first instance and σ."""
    repeats: Repeats = {}
    firsts = []
    for name, part in partitions.items():
        for first in firsts:
            sigma = renaming(partitions[first], part)
            if sigma is not None:
                repeats[name] = (first, sigma)
                break
        else:
            firsts.append(name)
    return repeats


def renaming(a: Circuit, b: Circuit) -> Optional[Dict[str, str]]:
    """σ (``a``'s top-level names -> ``b``'s) when ``b`` is a renaming
    of ``a``, else None.  The tops may hold only instances, paired in
    order, and connects, each paired with the one driving the σ-image
    of its target (for an output port: with a driver of its shape);
    the modules paired through instances must hold the same ports and
    statements, bar what :func:`_same` lets differ."""
    ta, tb = a.top_module, b.top_module
    if len(a.modules) != len(b.modules) or len(ta.ports) != len(tb.ports) \
            or len(ta.stmts) != len(tb.stmts):
        return None
    back: Dict[str, str] = {}  # b's top-level name -> a's
    taken = set()

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
            if s is None or not _same(s.expr, t.expr, bind) or not (
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
                                b.modules.get(pair[1]))
        if children is None:
            return None
        pairs |= children - seen
    return {theirs: mine for mine, theirs in back.items()}


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


def _same(x: Expr, y: Expr, names: Callable[[str, str], bool]) -> bool:
    """``y`` is ``x`` with every name through ``names(y's, x's)`` and
    equal literals, bar a comparison's literal operand."""
    if type(x) is not type(y) or x.width != y.width:
        return False
    if isinstance(x, Ref):
        return names(y.name, x.name)
    if isinstance(x, InstPort):
        return x.port == y.port and names(y.inst, x.inst)
    if isinstance(x, Lit):
        return x.value == y.value
    free = x.op in _COMPARISONS and sum(
        isinstance(arg, Lit) for arg in x.args) == 1
    return x.op == y.op and x.params == y.params and all(
        free and isinstance(u, Lit) and isinstance(v, Lit)
        and u.width == v.width or _same(u, v, names)
        for u, v in zip(x.args, y.args))


def _same_module(ma, mb) -> Optional[set]:
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
                _same(u, vars(t)[k], eq) if isinstance(u, Expr)
                else u == vars(t)[k] or k == "init" and type(s) is DefMemory
                for k, u in vars(s).items())):
            return None
    return children
