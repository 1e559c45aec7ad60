"""Primitive-op evaluation and Python code generation.

Two implementations with identical semantics:

* :func:`eval_expr` — a tree-walking interpreter, used as the reference.
* :func:`compile_expr` — the one expression printer: emits a Python
  expression string, and the range of its value, for the compiled
  engine's generic comb/tick pair and for the fused kernels of
  :mod:`repro.rtl.kernel` (typically ~10x faster, important for the
  multi-thousand-cycle partitioned co-sims).

All values are plain ints masked to their expression width.  Division and
remainder by zero evaluate to zero (a concrete choice for FIRRTL's
undefined case, applied identically in both implementations).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..errors import SimulationError
from ..firrtl.ast import Expr, InstPort, Lit, PrimOp, Ref


def mask(width: int) -> int:
    return (1 << width) - 1


def _div(a: int, b: int) -> int:
    """Division helper exposed to generated code (div-by-zero -> 0)."""
    return a // b if b else 0


def _rem(a: int, b: int) -> int:
    """Remainder helper exposed to generated code (rem-by-zero -> 0)."""
    return a % b if b else 0


#: names the compiled engine must inject into the exec namespace
CODEGEN_HELPERS = {"_div": _div, "_rem": _rem}


def eval_expr(expr: Expr, env: Dict[str, int]) -> int:
    """Interpret ``expr`` over flat signal values in ``env``."""
    if isinstance(expr, Ref):
        try:
            return env[expr.name]
        except KeyError:
            raise SimulationError(f"no value for signal {expr.name!r}")
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, InstPort):
        raise SimulationError(
            f"unelaborated instance port {expr.inst}.{expr.port}"
        )
    if isinstance(expr, PrimOp):
        return _eval_primop(expr, env)
    raise SimulationError(f"cannot evaluate {expr!r}")


def _eval_primop(expr: PrimOp, env: Dict[str, int]) -> int:
    op = expr.op
    args = expr.args
    m = mask(expr.width)
    if op == "mux":
        sel = eval_expr(args[0], env)
        return eval_expr(args[1] if sel else args[2], env)
    a = eval_expr(args[0], env)
    if op == "not":
        return (~a) & m
    if op == "andr":
        return int(a == mask(args[0].width))
    if op == "orr":
        return int(a != 0)
    if op == "xorr":
        return a.bit_count() & 1
    if op == "bits":
        hi, lo = expr.params
        return (a >> lo) & mask(hi - lo + 1)
    if op == "shl":
        return (a << expr.params[0]) & m
    if op == "shr":
        return (a >> expr.params[0]) & m
    if op == "pad":
        return a
    b = eval_expr(args[1], env)
    if op == "add":
        return (a + b) & m
    if op == "sub":
        return (a - b) & m
    if op == "mul":
        return (a * b) & m
    if op == "div":
        return (a // b) & m if b else 0
    if op == "rem":
        return (a % b) & m if b else 0
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "eq":
        return int(a == b)
    if op == "neq":
        return int(a != b)
    if op == "lt":
        return int(a < b)
    if op == "leq":
        return int(a <= b)
    if op == "gt":
        return int(a > b)
    if op == "geq":
        return int(a >= b)
    if op == "cat":
        return (a << args[1].width) | b
    if op == "dshl":
        return (a << b) & m
    if op == "dshr":
        return a >> b
    raise SimulationError(f"unhandled op {op!r}")


#: comparison ops and the Python operator each prints as
_COMPARISONS = {"eq": "==", "neq": "!=", "lt": "<", "leq": "<=",
                "gt": ">", "geq": ">="}

#: what ``compile_expr`` returns: the code and an upper bound on the
#: value's ``bit_length()`` (None: unbounded)
Printed = Tuple[str, Optional[int]]


def _fits(bits: Optional[int], width: int) -> bool:
    return bits is not None and bits <= width


def _widest(a: Optional[int], b: Optional[int]) -> Optional[int]:
    return None if a is None or b is None else max(a, b)


def _narrowest(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return b if a is None else a
    return min(a, b)


def _masked(code: str, bits: Optional[int], width: int,
            stats: Optional[dict]) -> Printed:
    """``code & mask(width)`` as the reference computes it, or bare
    ``code`` when its range already fits the declared width."""
    if _fits(bits, width):
        if stats is not None:
            stats["masks_elided"] += 1
        return code, bits
    return f"({code} & {mask(width)})", width


def compile_expr(expr: Expr, name_of: Callable[[str, bool], Printed],
                 truth: bool = False, stats: Optional[dict] = None,
                 lit: Optional[Callable[[PrimOp, int], str]] = None
                 ) -> Printed:
    """Emit a Python expression computing ``expr``; returns
    ``(code, bits)``.

    ``name_of(name, truth)`` is the caller's answer for a leaf: the
    code that holds flat signal ``name`` and a bound on its
    ``bit_length()``, or None when the caller has no range oracle.
    Ranges flow up from there by what each op *computes* (never by a
    declared width), and an op whose reference semantics mask to the
    declared width prints the mask only when that bound does not
    already fit — so with an oracle that answers None for every leaf
    (the generic ``_comb``/``_tick`` pair) every leaf-dependent mask
    is kept, and :func:`eval_expr` stays the independent reference
    either way.

    ``truth`` marks *selector position*: the caller only tests the
    result (a mux selector, a write enable), so a comparison, a
    reduction or a 1-bit ``not`` prints the bare test (``a == b``, not
    ``(1 if a == b else 0)``).  Such code has the right truthiness and
    may be a ``bool``; it must not be stored or packed.  The flag is
    passed on to ``name_of`` so a caller that prints a node at its use
    site can print it in that position too.

    ``stats["masks_elided"]`` counts the masks ranges removed.  Every
    sub-expression is printed exactly once.

    ``lit(op, i)`` returns the placeholder printed for the literal
    operand ``op.args[i]`` whose sibling is no literal (a pair of
    literals would fold), for :mod:`repro.rtl.kernel`'s templates; its
    range is still the value's, so every decision the range makes is
    printed text.
    """
    if isinstance(expr, Ref):
        return name_of(expr.name, truth)
    if isinstance(expr, Lit):
        return str(expr.value), expr.value.bit_length()
    if isinstance(expr, PrimOp):
        return _compile_primop(expr, name_of, truth, stats, lit)
    raise SimulationError(f"cannot compile {expr!r}")


#: op -> {operand: its sibling} where a literal prints bare beside its
#: sibling (``cat``'s high half is shifted by a constant: it would fold)
_SIBLINGS = {"cat": {1: 0}, "mux": {1: 2, 2: 1}, **dict.fromkeys((
    "add", "sub", "mul", "div", "rem", "and", "or", "xor", "dshl", "dshr",
    *_COMPARISONS), {0: 1, 1: 0})}


def _compile_primop(expr: PrimOp, name_of, truth: bool,
                    stats: Optional[dict], lit) -> Printed:
    op = expr.op
    args = expr.args
    width = expr.width
    m = mask(width)
    siblings = _SIBLINGS.get(op, {}) if lit is not None else {}

    def sub(i: int, truth: bool = False) -> Printed:
        arg = args[i]
        if isinstance(arg, Lit) and i in siblings \
                and not isinstance(args[siblings[i]], Lit):
            return lit(expr, i), arg.value.bit_length()
        return compile_expr(arg, name_of, truth, stats, lit)

    if op == "mux":
        sel, _ = sub(0, True)
        t, bt = sub(1)
        f, bf = sub(2)
        return f"({t} if {sel} else {f})", _widest(bt, bf)
    if op == "orr" and truth:
        return sub(0, True)
    a, ba = sub(0)
    if op in ("andr", "orr") or op in _COMPARISONS:
        if op == "andr":
            test = f"{a} == {mask(args[0].width)}"
        elif op == "orr":
            test = a
        else:
            b, _ = sub(1)
            test = f"{a} {_COMPARISONS[op]} {b}"
        return (test if truth else f"(1 if {test} else 0)"), 1
    if op == "not":
        if not _fits(ba, width):
            return f"((~{a}) & {m})", width
        if stats is not None:
            stats["masks_elided"] += 1
        if truth and width == 1:
            return f"not {a}", 1
        return f"({a} ^ {m})", width
    if op == "xorr":
        # int.bit_count is a single CPython popcount call — no string
        # materialization of the operand as bin() would do
        return f"(({a}).bit_count() & 1)", 1
    if op == "bits":
        hi, lo = expr.params
        inner = f"({a} >> {lo})" if lo else a
        if _fits(ba, hi + 1):  # the slice reaches the operand's top edge
            if stats is not None:
                stats["masks_elided"] += 1
            return inner, max(ba - lo, 0)
        return f"({inner} & {mask(hi - lo + 1)})", hi - lo + 1
    if op == "shl":
        n = expr.params[0]
        return _masked(f"({a} << {n})", None if ba is None else ba + n,
                       width, stats)
    if op == "shr":
        n = expr.params[0]
        return _masked(f"({a} >> {n})",
                       None if ba is None else max(ba - n, 0), width, stats)
    if op == "pad":
        return a, ba
    b, bb = sub(1)
    if op == "add":
        wide = _widest(ba, bb)
        return _masked(f"({a} + {b})", None if wide is None else wide + 1,
                       width, stats)
    if op == "sub":
        return f"(({a} - {b}) & {m})", width
    if op == "mul":
        return _masked(f"({a} * {b})",
                       None if ba is None or bb is None else ba + bb,
                       width, stats)
    if op == "div":
        return _masked(f"_div({a}, {b})", ba, width, stats)
    if op == "rem":
        return _masked(f"_rem({a}, {b})", _narrowest(ba, bb), width, stats)
    if op == "and":
        return f"({a} & {b})", _narrowest(ba, bb)
    if op == "or":
        return f"({a} | {b})", _widest(ba, bb)
    if op == "xor":
        return f"({a} ^ {b})", _widest(ba, bb)
    if op == "cat":
        low = args[1].width
        return (f"(({a} << {low}) | {b})",
                None if ba is None or bb is None else max(ba + low, bb))
    if op == "dshl":
        return f"(({a} << {b}) & {m})", width
    if op == "dshr":
        return f"({a} >> {b})", ba
    raise SimulationError(f"unhandled op {op!r}")
