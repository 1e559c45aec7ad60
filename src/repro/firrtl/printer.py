"""Text emission for the FIRRTL-like IR.

The format intentionally resembles real FIRRTL so circuits are easy to read
in the terminal, and it round-trips through :mod:`repro.firrtl.parser`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import IRError
from .ast import (
    Connect,
    DefInstance,
    DefMemory,
    DefNode,
    DefRegister,
    DefWire,
    Expr,
    InstPort,
    Lit,
    MemReadPort,
    MemWritePort,
    Port,
    PrimOp,
    Ref,
    Stmt,
)
from .circuit import Circuit, Module

_INDENT = "  "


def print_expr(expr: Expr) -> str:
    """Render an expression as text."""
    if isinstance(expr, Ref):
        return expr.name
    if isinstance(expr, InstPort):
        return f"{expr.inst}.{expr.port}"
    if isinstance(expr, Lit):
        return f"UInt<{expr.width}>({expr.value})"
    if isinstance(expr, PrimOp):
        parts = [print_expr(a) for a in expr.args]
        parts += [str(p) for p in expr.params]
        return f"{expr.op}({', '.join(parts)})"
    raise IRError(f"cannot print expression {expr!r}")


def _print_stmt(stmt: Stmt) -> str:
    if isinstance(stmt, DefWire):
        return f"wire {stmt.name} : UInt<{stmt.width}>"
    if isinstance(stmt, DefNode):
        return f"node {stmt.name} = {print_expr(stmt.expr)}"
    if isinstance(stmt, DefRegister):
        return f"reg {stmt.name} : UInt<{stmt.width}>, init {stmt.init}"
    if isinstance(stmt, DefMemory):
        line = f"mem {stmt.name} : UInt<{stmt.width}>[{stmt.depth}]"
        if stmt.init:
            line += " init [" + ", ".join(str(v) for v in stmt.init) + "]"
        return line
    if isinstance(stmt, MemReadPort):
        return f"read {stmt.name} = {stmt.mem}[{print_expr(stmt.addr)}]"
    if isinstance(stmt, MemWritePort):
        return (f"write {stmt.mem}[{print_expr(stmt.addr)}] <= "
                f"{print_expr(stmt.data)} when {print_expr(stmt.en)}")
    if isinstance(stmt, DefInstance):
        return f"inst {stmt.name} of {stmt.module}"
    if isinstance(stmt, Connect):
        return f"{stmt.target} <= {print_expr(stmt.expr)}"
    raise IRError(f"cannot print statement {stmt!r}")


def print_module(module: Module,
                 memo: Optional[Dict[int, str]] = None) -> str:
    """Render one module definition; ``memo`` (``id(stmt)`` -> line)
    prints each frozen statement object once (a parse shares equal
    lines)."""
    memo = {} if memo is None else memo
    lines: List[str] = [f"module {module.name} :"]
    for p in module.ports:
        lines.append(f"{_INDENT}{p.direction} {p.name} : UInt<{p.width}>")
    for s in module.stmts:
        line = memo.get(id(s))
        if line is None:
            line = memo[id(s)] = f"{_INDENT}{_print_stmt(s)}"
        lines.append(line)
    return "\n".join(lines)


def print_circuit(circuit: Circuit) -> str:
    """Render a whole circuit; the top module is printed first.  One
    statement memo serves the call (the circuit keeps its keys alive)."""
    lines = [f"circuit {circuit.top} :"]
    order = [circuit.top] + sorted(n for n in circuit.modules
                                   if n != circuit.top)
    memo: Dict[int, str] = {}
    for name in order:
        body = print_module(circuit.modules[name], memo)
        lines.append(_INDENT + body.replace("\n", "\n" + _INDENT))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
