"""Hierarchy flattening: a circuit becomes a flat netlist.

Every signal of every instance receives a dot-separated flat name
(``tile0.core.pc``).  The result is an :class:`Elaboration` holding:

* ``assigns`` — one single-assignment per combinational signal, already in
  topological order (a :class:`~repro.errors.CombLoopError` names the loop
  otherwise),
* ``regs`` — flat registers with init and next-expression,
* ``mems``/``writes`` — flat memories and their synchronous write ports,
* top-level ``inputs``/``outputs``.

Registers with no connected next-value hold their state.  Instance input
ports become ordinary assigned signals; child output ports are assigned
inside the child's own scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..errors import CombLoopError, ElaborationError
from ..firrtl.ast import (
    Connect,
    DefInstance,
    DefMemory,
    DefNode,
    DefRegister,
    DefWire,
    Expr,
    InstPort,
    InstTarget,
    Lit,
    LocalTarget,
    MemReadPort,
    MemWritePort,
    PrimOp,
    Ref,
)
from ..firrtl.circuit import Circuit, Module


@dataclass
class FlatAssign:
    """Combinational assignment ``name = expr`` over flat references."""

    name: str
    expr: Expr


@dataclass
class FlatMemRead:
    """Combinational memory read ``name = mem[addr]``."""

    name: str
    mem: str
    addr: Expr
    depth: int
    width: int


@dataclass
class FlatReg:
    """Flattened register; ``next`` is None when the register holds."""

    name: str
    width: int
    init: int
    next: Optional[Expr] = None


@dataclass
class FlatMem:
    """Flattened memory."""

    name: str
    depth: int
    width: int
    init: Tuple[int, ...] = ()


@dataclass
class FlatMemWrite:
    """Flattened synchronous write port."""

    mem: str
    depth: int
    addr: Expr
    data: Expr
    en: Expr


AssignLike = Union[FlatAssign, FlatMemRead]


@dataclass
class Elaboration:
    """Flattened, topologically sorted netlist, read-only once built:
    simulators and their fused kernels (memoized here as ``kernels``
    by :func:`repro.rtl.kernel.unit_kernels`) share one freely."""

    top: str
    inputs: Dict[str, int]
    outputs: Dict[str, int]
    assigns: List[AssignLike]
    regs: Dict[str, FlatReg]
    mems: Dict[str, FlatMem]
    writes: List[FlatMemWrite]
    widths: Dict[str, int]


def elaborate(circuit: Circuit) -> Elaboration:
    """Flatten ``circuit`` and topologically sort its combinational logic."""
    flat = _Flattener(circuit)
    flat.walk(circuit.top_module, "")
    assigns = _topo_sort(flat.assigns, flat.regs, flat.top_inputs)
    top = circuit.top_module
    return Elaboration(
        top=circuit.top,
        inputs={p.name: p.width for p in top.input_ports},
        outputs={p.name: p.width for p in top.output_ports},
        assigns=assigns,
        regs=flat.regs,
        mems=flat.mems,
        writes=flat.writes,
        widths=flat.widths,
    )


class _Flattener:
    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.assigns: Dict[str, AssignLike] = {}
        self.regs: Dict[str, FlatReg] = {}
        self.mems: Dict[str, FlatMem] = {}
        self.writes: List[FlatMemWrite] = []
        self.widths: Dict[str, int] = {}
        self.top_inputs = {p.name for p in circuit.top_module.input_ports}

    def walk(self, module: Module, prefix: str) -> None:
        def flat(name: str) -> str:
            return f"{prefix}{name}"

        def rewrite(expr: Expr) -> Expr:
            if isinstance(expr, Ref):
                return Ref(flat(expr.name), expr.width)
            if isinstance(expr, InstPort):
                return Ref(f"{prefix}{expr.inst}.{expr.port}", expr.width)
            if isinstance(expr, Lit):
                return expr
            if isinstance(expr, PrimOp):
                return PrimOp(expr.op, tuple(rewrite(a) for a in expr.args),
                              expr.width, expr.params)
            raise ElaborationError(f"cannot flatten expression {expr!r}")

        local_regs = {r.name for r in module.registers()}
        local_mems = {m.name: m for m in module.memories()}

        for p in module.ports:
            self.widths[flat(p.name)] = p.width

        for s in module.stmts:
            if isinstance(s, DefWire):
                self.widths[flat(s.name)] = s.width
            elif isinstance(s, DefNode):
                self.widths[flat(s.name)] = s.expr.width
                self._assign(flat(s.name), rewrite(s.expr))
            elif isinstance(s, DefRegister):
                name = flat(s.name)
                self.widths[name] = s.width
                self.regs[name] = FlatReg(name, s.width, s.init)
            elif isinstance(s, DefMemory):
                name = flat(s.name)
                self.mems[name] = FlatMem(name, s.depth, s.width,
                                          s.init or ())
            elif isinstance(s, MemReadPort):
                mem = local_mems[s.mem]
                name = flat(s.name)
                self.widths[name] = mem.width
                self._assign_read(
                    FlatMemRead(name, flat(s.mem), rewrite(s.addr),
                                mem.depth, mem.width))
            elif isinstance(s, MemWritePort):
                mem = local_mems[s.mem]
                self.writes.append(
                    FlatMemWrite(flat(s.mem), mem.depth, rewrite(s.addr),
                                 rewrite(s.data), rewrite(s.en)))
            elif isinstance(s, DefInstance):
                child = self.circuit.module(s.module)
                self.walk(child, f"{prefix}{s.name}.")
            elif isinstance(s, Connect):
                if isinstance(s.target, LocalTarget):
                    name = flat(s.target.name)
                    if s.target.name in local_regs:
                        self.regs[name].next = rewrite(s.expr)
                    else:
                        self._assign(name, rewrite(s.expr))
                elif isinstance(s.target, InstTarget):
                    name = f"{prefix}{s.target.inst}.{s.target.port}"
                    self._assign(name, rewrite(s.expr))

    def _assign(self, name: str, expr: Expr) -> None:
        if name in self.assigns:
            raise ElaborationError(f"{name} assigned twice")
        self.assigns[name] = FlatAssign(name, expr)
        self.widths.setdefault(name, expr.width)

    def _assign_read(self, read: FlatMemRead) -> None:
        if read.name in self.assigns:
            raise ElaborationError(f"{read.name} assigned twice")
        self.assigns[read.name] = read


def _expr_deps(expr: Expr) -> List[str]:
    return [r.name for r in expr.refs() if isinstance(r, Ref)]


def _assign_deps(a: AssignLike) -> List[str]:
    if isinstance(a, FlatAssign):
        return _expr_deps(a.expr)
    return _expr_deps(a.addr)


def _topo_sort(assigns: Dict[str, AssignLike], regs: Dict[str, FlatReg],
               top_inputs) -> List[AssignLike]:
    """Kahn's algorithm over combinational assignments.

    Registers and top-level inputs are exogenous (no incoming edges);
    anything left over after the sort is part of a combinational loop,
    which we extract and report.
    """
    comb_targets = set(assigns)
    in_deg: Dict[str, int] = {n: 0 for n in comb_targets}
    users: Dict[str, List[str]] = {n: [] for n in comb_targets}
    for name, a in assigns.items():
        for dep in _assign_deps(a):
            if dep in comb_targets:
                in_deg[name] += 1
                users[dep].append(name)
    ready = sorted(n for n, d in in_deg.items() if d == 0)
    order: List[AssignLike] = []
    idx = 0
    ready_list = list(ready)
    while idx < len(ready_list):
        name = ready_list[idx]
        idx += 1
        order.append(assigns[name])
        for user in users[name]:
            in_deg[user] -= 1
            if in_deg[user] == 0:
                ready_list.append(user)
    if len(order) != len(assigns):
        remaining = {n for n, d in in_deg.items() if d > 0}
        raise CombLoopError(_extract_cycle(assigns, remaining))
    return order


def _extract_cycle(assigns: Dict[str, AssignLike], remaining) -> List[str]:
    start = sorted(remaining)[0]
    path = [start]
    seen = {start}
    node = start
    while True:
        deps = [d for d in _assign_deps(assigns[node]) if d in remaining]
        node = deps[0]
        if node in seen:
            return path[path.index(node):]
        path.append(node)
        seen.add(node)
