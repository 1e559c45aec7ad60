"""Abstract syntax tree for the FIRRTL-like circuit IR.

The IR is a deliberately small subset of FIRRTL sufficient to express the
targets the paper partitions (cores, accelerators, NoCs, ready-valid
plumbing) while keeping combinational analysis and elaboration tractable:

* every signal is an unsigned bit vector (``UInt<w>``); signed arithmetic is
  expressed through explicit primitive ops,
* there is a single implicit clock and a synchronous active-high reset,
* control flow (`when`) is expressed through ``mux`` expressions, so every
  signal has exactly one driving connect,
* memories have combinational read ports and synchronous write ports.

Expressions, ports and statements are frozen (shared, never edited: a
change builds a new one); a :class:`~repro.firrtl.circuit.Module` holds its
statements in a flat, ordered list.  Widths are resolved at construction
time (the builder computes them), so passes never need an inference step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..errors import IRError

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr:
    """Base class for IR expressions.  Immutable; ``width`` is resolved."""

    width: int

    def refs(self) -> Iterator["Expr"]:
        """Yield every :class:`Ref` / :class:`InstPort` leaf in the tree."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Ref(Expr):
    """Reference to a local signal: port, wire, node, or register."""

    name: str
    width: int

    def refs(self):
        yield self

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class InstPort(Expr):
    """Read of an instance port, e.g. ``router0.out_valid``."""

    inst: str
    port: str
    width: int

    def refs(self):
        yield self

    def __str__(self) -> str:
        return f"{self.inst}.{self.port}"


@dataclass(frozen=True)
class Lit(Expr):
    """Unsigned literal with an explicit width."""

    value: int
    width: int

    def __post_init__(self):
        if self.width <= 0:
            raise IRError(f"literal width must be positive, got {self.width}")
        if self.value < 0 or self.value >= (1 << self.width):
            raise IRError(
                f"literal {self.value} does not fit in {self.width} bits"
            )

    def refs(self):
        return iter(())

    def __str__(self) -> str:
        return f'UInt<{self.width}>({self.value})'


#: op name -> arity (number of expression operands).  Ops that also take
#: integer parameters (bits, shl, shr, pad) store them in ``params``.
PRIM_OPS: Dict[str, int] = {
    "add": 2,
    "sub": 2,
    "mul": 2,
    "div": 2,
    "rem": 2,
    "and": 2,
    "or": 2,
    "xor": 2,
    "not": 1,
    "eq": 2,
    "neq": 2,
    "lt": 2,
    "leq": 2,
    "gt": 2,
    "geq": 2,
    "mux": 3,
    "cat": 2,
    "bits": 1,  # params: (hi, lo)
    "shl": 1,   # params: (amount,)
    "shr": 1,   # params: (amount,)
    "dshl": 2,
    "dshr": 2,
    "pad": 1,   # params: (width,)
    "andr": 1,
    "orr": 1,
    "xorr": 1,
}


@dataclass(frozen=True)
class PrimOp(Expr):
    """Primitive operation.

    ``width`` follows simplified FIRRTL rules (see :mod:`repro.firrtl.builder`
    for the width computation); ``params`` carries integer parameters for
    ``bits``/``shl``/``shr``/``pad``.
    """

    op: str
    args: Tuple[Expr, ...]
    width: int
    params: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.op not in PRIM_OPS:
            raise IRError(f"unknown primitive op {self.op!r}")
        if len(self.args) != PRIM_OPS[self.op]:
            raise IRError(
                f"{self.op} expects {PRIM_OPS[self.op]} args, "
                f"got {len(self.args)}"
            )

    def refs(self):
        for a in self.args:
            yield from a.refs()

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        parts = [str(a) for a in self.args]
        parts += [str(p) for p in self.params]
        return f"{self.op}({', '.join(parts)})"


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


class Stmt:
    """Base class for IR statements."""


INPUT = "input"
OUTPUT = "output"


@dataclass(frozen=True)
class Port(Stmt):
    """Module I/O port."""

    name: str
    direction: str  # INPUT or OUTPUT
    width: int

    def __post_init__(self):
        if self.direction not in (INPUT, OUTPUT):
            raise IRError(f"bad port direction {self.direction!r}")
        if self.width <= 0:
            raise IRError(f"port {self.name}: width must be positive")

    @property
    def is_input(self) -> bool:
        return self.direction == INPUT


@dataclass(frozen=True)
class DefWire(Stmt):
    """Named combinational signal driven by a later :class:`Connect`."""

    name: str
    width: int


@dataclass(frozen=True)
class DefNode(Stmt):
    """Named immutable expression (single static assignment)."""

    name: str
    expr: Expr

    @property
    def width(self) -> int:
        return self.expr.width


@dataclass(frozen=True)
class DefRegister(Stmt):
    """Register with synchronous reset to ``init``.

    The register's *next* value is set by a :class:`Connect` whose target is
    the register's name; reading the name anywhere yields the *current*
    value, so registers always break combinational paths.
    """

    name: str
    width: int
    init: int = 0

    def __post_init__(self):
        if self.init < 0 or self.init >= (1 << self.width):
            raise IRError(
                f"register {self.name}: init {self.init} does not fit "
                f"in {self.width} bits"
            )


@dataclass(frozen=True)
class DefMemory(Stmt):
    """Word-addressed memory with comb reads and sync writes."""

    name: str
    depth: int
    width: int
    init: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.depth <= 0 or self.width <= 0:
            raise IRError(f"memory {self.name}: bad shape")
        if self.init is not None and len(self.init) > self.depth:
            raise IRError(f"memory {self.name}: init longer than depth")


@dataclass(frozen=True)
class MemReadPort(Stmt):
    """Combinational read port: defines node ``name`` = ``mem[addr]``."""

    mem: str
    name: str
    addr: Expr


@dataclass(frozen=True)
class MemWritePort(Stmt):
    """Synchronous write port: ``mem[addr] <= data`` when ``en`` at tick."""

    mem: str
    addr: Expr
    data: Expr
    en: Expr


@dataclass(frozen=True)
class DefInstance(Stmt):
    """Instantiation of another module in the circuit."""

    name: str
    module: str


@dataclass(frozen=True)
class LocalTarget:
    """Connect target naming a local wire, output port, or register next."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class InstTarget:
    """Connect target naming an instance *input* port."""

    inst: str
    port: str

    def __str__(self) -> str:
        return f"{self.inst}.{self.port}"


@dataclass(frozen=True)
class Connect(Stmt):
    """Single driving connection ``target <= expr``."""

    target: object  # LocalTarget | InstTarget
    expr: Expr
