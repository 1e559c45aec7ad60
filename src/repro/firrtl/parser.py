"""Parser for the FIRRTL-like text format emitted by the printer.

The grammar is line oriented:

.. code-block:: text

    circuit Top :
      module Top :
        input a : UInt<8>
        output b : UInt<8>
        reg r : UInt<8>, init 0
        node n = add(a, UInt<1>(1))
        b <= n
        r <= b

Expressions use function-call syntax for primitive ops, ``UInt<w>(v)`` for
literals, bare identifiers for local references, and ``inst.port`` for
instance ports.  Because reference widths depend on declarations, expression
parsing happens module-locally after declarations are scanned.

One :func:`parse_circuit` call parses each distinct expression once: its
trees are memoized under the expression text plus the width every token
of it resolves to in the current module (``None`` when it names nothing).
That key is all the parse reads, so a hit is the tree a fresh parse
would build, and equal expressions anywhere in the circuit share one
frozen tree.  Ports and statements are frozen too, and shared the same
way: one object per body line and the trees it holds.  Every malformed
line raises :class:`IRError` naming its module and the line.

Equal text is parsed once per process (:data:`PARSED`): every call
returns its own clone of that parse, which owns its containers and
shares the frozen statements, as FireRipper's work copies do.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

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
    InstTarget,
    Lit,
    LocalTarget,
    MemReadPort,
    MemWritePort,
    PRIM_OPS,
    Port,
    PrimOp,
    Ref,
    Stmt,
)
from .circuit import Circuit, Module

#: one expression's tokens; characters no alternative matches are
#: skipped, and :func:`_parse_expr` refuses a text that had any
_TOKEN_RE = re.compile(
    r"UInt<\d+>\(\d+\)|[A-Za-z_][A-Za-z_0-9.$]*|\d+|[(),]")

# width rules mirrored from the builder so parsed PrimOps get correct widths
_WIDTH_RULES = {
    "add": lambda ws, ps: max(ws) + 1,
    "sub": lambda ws, ps: max(ws) + 1,
    "mul": lambda ws, ps: ws[0] + ws[1],
    "div": lambda ws, ps: ws[0],
    "rem": lambda ws, ps: min(ws),
    "and": lambda ws, ps: max(ws),
    "or": lambda ws, ps: max(ws),
    "xor": lambda ws, ps: max(ws),
    "not": lambda ws, ps: ws[0],
    "eq": lambda ws, ps: 1,
    "neq": lambda ws, ps: 1,
    "lt": lambda ws, ps: 1,
    "leq": lambda ws, ps: 1,
    "gt": lambda ws, ps: 1,
    "geq": lambda ws, ps: 1,
    "mux": lambda ws, ps: max(ws[1], ws[2]),
    "cat": lambda ws, ps: ws[0] + ws[1],
    "bits": lambda ws, ps: ps[0] - ps[1] + 1,
    "shl": lambda ws, ps: ws[0] + ps[0],
    "shr": lambda ws, ps: max(ws[0] - ps[0], 1),
    "dshl": lambda ws, ps: ws[0],
    "dshr": lambda ws, ps: ws[0],
    "pad": lambda ws, ps: max(ws[0], ps[0]),
    "andr": lambda ws, ps: 1,
    "orr": lambda ws, ps: 1,
    "xorr": lambda ws, ps: 1,
}

#: integer parameters per op; every op not named here takes none
_PARAMS = {"bits": 2, "shl": 1, "shr": 1, "pad": 1}


def _parse_expr(text: str, tokens: List[str],
                scope: Dict[str, int]) -> Expr:
    """The tree of ``text``, tokenized as ``tokens``, reading reference
    widths from ``scope``."""
    if len("".join(tokens)) != len("".join(text.split())):
        raise IRError(f"cannot tokenize expression {text!r}")
    tokens = tokens + [""]  # end marker
    expr, end = _expr(tokens, scope, 0)
    if tokens[end]:
        raise IRError(f"trailing tokens: {tokens[end:-1]}")
    return expr


def _expr(tokens: List[str], scope: Dict[str, int],
          i: int) -> Tuple[Expr, int]:
    """The expression starting at ``tokens[i]`` and the index after it."""
    tok = tokens[i]
    if not tok:
        raise IRError("unexpected end of expression")
    i += 1
    if tok.startswith("UInt<"):
        width, value = tok[5:-1].split(">(")
        return Lit(int(value), int(width)), i
    if tok in PRIM_OPS and tokens[i] == "(":
        return _primop(tok, tokens, scope, i + 1)
    width = scope.get(tok)
    if "." in tok:
        if width is None:
            raise IRError(f"unknown instance port {tok!r}")
        inst, port = tok.split(".", 1)
        return InstPort(inst, port, width), i
    if width is None:
        raise IRError(f"unknown reference {tok!r}")
    return Ref(tok, width), i


def _primop(op: str, tokens: List[str], scope: Dict[str, int],
            i: int) -> Tuple[Expr, int]:
    args: List[Expr] = []
    params: List[int] = []
    n_args, n_params = PRIM_OPS[op], _PARAMS.get(op, 0)
    while True:
        if len(args) < n_args:
            arg, i = _expr(tokens, scope, i)
            args.append(arg)
        elif tokens[i].isdecimal():
            params.append(int(tokens[i]))
            i += 1
        else:
            raise IRError(f"{op}: parameter {tokens[i]!r} is not a number")
        tok = tokens[i]
        i += 1
        if tok == ")":
            break
        if tok != ",":
            raise IRError(f"expected ',' or ')', got {tok!r}")
    if len(args) != n_args or len(params) != n_params:
        raise IRError(f"{op} takes {n_args} args and {n_params} params, "
                      f"got {len(args)} and {len(params)}")
    width = _WIDTH_RULES[op]([a.width for a in args], params)
    return PrimOp(op, tuple(args), width, tuple(params)), i


_PORT_RE = re.compile(r"(input|output)\s+(\w+)\s*:\s*UInt<(\d+)>")
#: body line regex by the line's first word; a line whose first word
#: is none of these, or whose regex misses, is a connect
_LINE_RES = {
    "input": _PORT_RE,
    "output": _PORT_RE,
    "wire": re.compile(r"wire\s+(\w+)\s*:\s*UInt<(\d+)>"),
    "reg": re.compile(r"reg\s+(\w+)\s*:\s*UInt<(\d+)>\s*,\s*init\s+(\d+)"),
    "mem": re.compile(
        r"mem\s+(\w+)\s*:\s*UInt<(\d+)>\[(\d+)\](?:\s+init\s+\[([^\]]*)\])?"),
    "read": re.compile(r"read\s+(\w+)\s*=\s*(\w+)\[(.*)\]\s*$"),
    "write": re.compile(r"write\s+(\w+)\[(.*)\]\s*<=\s*(.*)\s+when\s+(.*)$"),
    "inst": re.compile(r"inst\s+(\w+)\s+of\s+(\w+)"),
    "node": re.compile(r"node\s+(\w+)\s*=\s*(.*)$"),
}
_CONNECT_RE = re.compile(r"([\w.]+)\s*<=\s*(.*)$")

#: one module body line: the line, its keyword (``"connect"``, or
#: ``None`` when nothing matched) and its match
_Line = Tuple[str, Optional[str], Optional[re.Match]]
#: expression text -> (its tokens, {the width each token resolves to
#: -> the tree}); one per :func:`parse_circuit` call
_Memo = Dict[str, Tuple[List[str], Dict[tuple, Expr]]]


def _classify(ln: str) -> _Line:
    kw = ln.split(None, 1)[0]
    regex = _LINE_RES.get(kw)
    m = regex.fullmatch(ln) if regex is not None else None
    if m is None:
        m = _CONNECT_RE.fullmatch(ln)
        kw = "connect" if m is not None else None
    return ln, kw, m


#: circuit text -> its parse, 8 least recently used first out
PARSED: Dict[str, Circuit] = {}


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text produced by :func:`repro.firrtl.printer.print_circuit`."""
    parsed = PARSED.pop(text, None) or _parse(text)
    PARSED[text] = parsed
    for stale in list(PARSED)[:-8]:
        PARSED.pop(stale, None)
    return parsed.clone()


def _parse(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith(";")]
    header = lines[0].split() if lines else []
    if len(header) < 2 or not header[0].startswith("circuit"):
        raise IRError("expected 'circuit <name> :' header")

    bodies: List[Tuple[str, List[_Line]]] = []
    classified: Dict[str, _Line] = {}  # a repeated line matches once
    for ln in lines[1:]:
        if ln.startswith("module "):
            bodies.append((ln.split()[1], []))
        elif not bodies:
            raise IRError(f"statement outside module: {ln!r}")
        else:
            line = classified.get(ln)
            if line is None:
                line = classified[ln] = _classify(ln)
            bodies[-1][1].append(line)

    # port signatures, for instance port widths
    signatures = {name: {m[2]: int(m[3]) for _, kw, m in body
                         if kw == "input" or kw == "output"}
                  for name, body in bodies}
    memo: _Memo = {}
    built: Dict[tuple, Stmt] = {}  # (line, its trees' ids) -> stmt
    modules = [_parse_module(name, body, signatures, memo, built)
               for name, body in bodies]
    return Circuit(header[1], modules)


def _parse_module(name: str, body: List[_Line],
                  signatures: Dict[str, Dict[str, int]],
                  memo: _Memo, built: Dict[tuple, Stmt]) -> Module:
    ports: List[Port] = []
    stmts: List = []
    scope: Dict[str, int] = {}  # local name or "inst.port" -> width
    mem_widths: Dict[str, int] = {}

    def parse_expr(text: str) -> Expr:
        entry = memo.get(text)
        if entry is None:
            entry = memo[text] = (_TOKEN_RE.findall(text), {})
        tokens, trees = entry
        key = tuple(map(scope.get, tokens))
        expr = trees.get(key)
        if expr is None:
            expr = trees[key] = _parse_expr(text, tokens, scope)
        return expr

    ln = None
    try:
        # declarations first: an expression may read a name declared
        # below it (nodes excepted, which enter scope in order)
        for ln, kw, m in body:
            if kw == "input" or kw == "output":
                scope[m[2]] = int(m[3])
            elif kw == "wire" or kw == "reg":
                scope[m[1]] = int(m[2])
            elif kw == "mem":
                mem_widths[m[1]] = int(m[2])
            elif kw == "read":
                if m[2] not in mem_widths:
                    raise IRError(f"unknown memory {m[2]!r}")
                scope[m[1]] = mem_widths[m[2]]
            elif kw == "inst":
                for port, width in signatures.get(m[2], {}).items():
                    scope[f"{m[1]}.{port}"] = width
        for ln, kw, m in body:
            if kw == "connect" or kw == "node":
                exprs = (parse_expr(m[2]),)
            elif kw == "read":
                exprs = (parse_expr(m[3]),)
            elif kw == "write":
                exprs = tuple(map(parse_expr, m.group(2, 3, 4)))
            else:
                exprs = ()
            # the line and its trees (which ``memo`` keeps alive, so an
            # id is never reused) are everything the statement holds
            key = (ln, *map(id, exprs))
            stmt = built.get(key) or built.setdefault(
                key, _statement(kw, m, exprs))
            (ports if isinstance(stmt, Port) else stmts).append(stmt)
            if kw == "node":
                scope[m[1]] = stmt.width
    except IRError as exc:
        raise IRError(f"{name}: line {ln!r}: {exc}") from None
    return Module(name, ports, stmts)


def _statement(kw: Optional[str], m, exprs: Tuple[Expr, ...]) -> Stmt:
    """The port or statement one classified body line declares."""
    if kw == "connect":
        inst, dot, port = m[1].partition(".")
        return Connect(InstTarget(inst, port) if dot else LocalTarget(inst),
                       *exprs)
    if kw == "node":
        return DefNode(m[1], *exprs)
    if kw == "input" or kw == "output":
        return Port(m[2], kw, int(m[3]))
    if kw == "wire":
        return DefWire(m[1], int(m[2]))
    if kw == "reg":
        return DefRegister(m[1], int(m[2]), int(m[3]))
    if kw == "mem":
        return DefMemory(m[1], int(m[3]), int(m[2]), _mem_init(m[4]))
    if kw == "read":
        return MemReadPort(m[2], m[1], *exprs)
    if kw == "write":
        return MemWritePort(m[1], *exprs)
    if kw == "inst":
        return DefInstance(m[1], m[2])
    raise IRError("cannot parse line")


def _mem_init(text: Optional[str]) -> Optional[Tuple[int, ...]]:
    if not text:
        return None
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise IRError(f"memory init [{text}] is not a list of integers") \
            from None
