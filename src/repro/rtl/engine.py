"""Cycle-based execution engine.

:class:`Simulator` owns the flat signal environment and advances a circuit
through ``eval`` / ``tick`` phases:

* ``eval()`` settles all combinational logic given the current inputs and
  register state (safe to call repeatedly),
* ``tick()`` commits register next-values and memory writes computed from
  the *current* settled values, advancing one target cycle.

Two execution strategies share these semantics: a tree-walking interpreter
(reference) and a compiled mode that ``exec``'s one generated Python
function for the comb phase and one for the tick phase, generated on
first use (a partition that runs on the step plane's fused kernels never
calls them).  The test suite checks they agree cycle-for-cycle.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Optional, Union

from ..errors import SimulationError
from ..firrtl.circuit import Circuit
from .elaborate import (
    Elaboration,
    FlatAssign,
    FlatMemRead,
    elaborate,
)
from .eval import CODEGEN_HELPERS, compile_expr, eval_expr, mask


class Simulator:
    """Executes an elaborated circuit cycle by cycle.

    Args:
        circuit: a :class:`Circuit` or a pre-computed :class:`Elaboration`.
        compiled: use generated-code execution (default) or the interpreter.
    """

    def __init__(self, circuit: Union[Circuit, Elaboration],
                 compiled: bool = True):
        if isinstance(circuit, Circuit):
            self.elab = elaborate(circuit)
        else:
            self.elab = circuit
        self.compiled = compiled
        self.env: Dict[str, int] = {}
        self.mem_state: Dict[str, List[int]] = {}
        self.cycle = 0
        self.reset()

    @cached_property
    def generic_fns(self):
        """The ``(comb, tick)`` pair of a compiled engine, generated on
        first use."""
        return _compile(self.elab)

    # -- state management ----------------------------------------------------

    def reset(self) -> None:
        """Zero all signals, apply register inits and memory images."""
        self.env = {name: 0 for name in self.elab.widths}
        for reg in self.elab.regs.values():
            self.env[reg.name] = reg.init
        self.mem_state = {}
        for m in self.elab.mems.values():
            data = [0] * m.depth
            for i, v in enumerate(m.init):
                data[i] = v & mask(m.width)
            self.mem_state[m.name] = data
        self.cycle = 0

    def snapshot(self) -> dict:
        """Capture the full simulation state (signals, memories, cycle).

        Restoring a snapshot resumes the simulation exactly where it was
        — useful for bisecting long runs toward a failure (the workflow
        behind the 24-core case study's bug hunt).
        """
        return {
            "env": dict(self.env),
            "mems": {k: list(v) for k, v in self.mem_state.items()},
            "cycle": self.cycle,
        }

    def restore(self, snapshot: dict) -> None:
        """Resume from a :meth:`snapshot`."""
        self.env = dict(snapshot["env"])
        self.mem_state = {k: list(v)
                          for k, v in snapshot["mems"].items()}
        self.cycle = snapshot["cycle"]

    # -- I/O -------------------------------------------------------------------

    def poke(self, name: str, value: int) -> None:
        """Set a top-level input port value (masked to the port width)."""
        width = self.elab.inputs.get(name)
        if width is None:
            raise SimulationError(f"{name!r} is not a top-level input")
        self.env[name] = value & mask(width)

    def peek(self, name: str) -> int:
        """Read any flat signal's current value."""
        try:
            return self.env[name]
        except KeyError:
            raise SimulationError(f"unknown signal {name!r}")

    def peek_outputs(self) -> Dict[str, int]:
        return {name: self.env[name] for name in self.elab.outputs}

    # -- execution ---------------------------------------------------------------

    def eval(self) -> None:
        """Settle combinational logic for the current inputs and state."""
        if self.compiled:
            self.generic_fns[0](self.env, self.mem_state)
            return
        for a in self.elab.assigns:
            if isinstance(a, FlatAssign):
                self.env[a.name] = eval_expr(a.expr, self.env)
            else:  # FlatMemRead
                addr = eval_expr(a.addr, self.env) % a.depth
                self.env[a.name] = self.mem_state[a.mem][addr]

    def tick(self) -> None:
        """Commit register and memory updates; advance one target cycle.

        Assumes :meth:`eval` ran since the last poke; call :meth:`step`
        for the combined sequence.
        """
        if self.compiled:
            self.generic_fns[1](self.env, self.mem_state)
        else:
            next_values = {}
            for reg in self.elab.regs.values():
                if reg.next is not None:
                    next_values[reg.name] = (
                        eval_expr(reg.next, self.env) & mask(reg.width))
            writes = []
            for w in self.elab.writes:
                if eval_expr(w.en, self.env):
                    addr = eval_expr(w.addr, self.env) % w.depth
                    data = eval_expr(w.data, self.env)
                    writes.append((w.mem, addr, data))
            self.env.update(next_values)
            for mem, addr, data in writes:
                self.mem_state[mem][addr] = data
        self.cycle += 1

    def step(self, inputs: Optional[Dict[str, int]] = None
             ) -> Dict[str, int]:
        """Poke ``inputs``, settle, capture outputs, then tick."""
        for name, value in (inputs or {}).items():
            self.poke(name, value)
        self.eval()
        outputs = self.peek_outputs()
        self.tick()
        return outputs

    def run(self, cycles: int,
            inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Step ``cycles`` times with constant inputs; return last outputs."""
        outputs: Dict[str, int] = {}
        for _ in range(cycles):
            outputs = self.step(inputs)
            inputs = None
        # settle so peeks after run() observe the post-tick state
        self.eval()
        return outputs

    def run_until(self, signal: str, value: int = 1,
                  max_cycles: int = 1_000_000) -> int:
        """Step until ``signal == value``; returns the cycle count at which
        the condition held (before the tick of that cycle)."""
        for _ in range(max_cycles):
            self.eval()
            if self.env[signal] == value:
                return self.cycle
            self.tick()
        raise SimulationError(
            f"{signal} never reached {value} within {max_cycles} cycles"
        )


def _compile(elab: Elaboration):
    """Generate the comb and tick functions for an elaboration."""
    ids: Dict[str, str] = {}

    def ident(name: str) -> str:
        if name not in ids:
            ids[name] = f"v{len(ids)}"
        return ids[name]

    # names computed combinationally in this netlist
    comb_targets = {a.name for a in elab.assigns}

    # every referenced name that is *not* a comb target must be loaded from
    # the environment first (registers, top inputs, never-driven signals)
    loads: List[str] = []
    seen_loads = set()

    def note_load(name: str) -> None:
        if name not in comb_targets and name not in seen_loads:
            seen_loads.add(name)
            loads.append(name)

    # no range oracle: every leaf is unbounded, so every mask the
    # reference applies to a leaf-dependent value is printed
    local_ref = lambda name, truth: (ident(name), None)  # noqa: E731

    def compile_with_loads(expr) -> str:
        for leaf_name in _ref_names(expr):
            note_load(leaf_name)
        return compile_expr(expr, local_ref)[0]

    body: List[str] = []
    for a in elab.assigns:
        if isinstance(a, FlatAssign):
            code = compile_with_loads(a.expr)
            body.append(f"    {ident(a.name)} = {code}")
        else:
            addr = compile_with_loads(a.addr)
            body.append(
                f"    {ident(a.name)} = mems[{a.mem!r}][({addr}) % {a.depth}]"
            )

    prologue = [f"    {ident(n)} = env[{n!r}]" for n in loads]
    epilogue = [f"    env[{a.name!r}] = {ident(a.name)}"
                for a in elab.assigns]
    # _div/_rem enter as default arguments so references inside the
    # generated body are LOAD_FAST locals, not module-global lookups
    sig = "env, mems, _div=_div, _rem=_rem"
    comb_src = f"def _comb({sig}):\n" + "\n".join(
        prologue + body + epilogue or ["    pass"]) + "\n"
    if not (prologue or body or epilogue):
        comb_src = f"def _comb({sig}):\n    pass\n"

    # tick: read settled values straight from env (simple and correct)
    env_ref = lambda name, truth: (f"env[{name!r}]", None)  # noqa: E731
    tick_lines: List[str] = []
    commit_lines: List[str] = []
    for i, reg in enumerate(elab.regs.values()):
        if reg.next is None:
            continue
        code = compile_expr(reg.next, env_ref)[0]
        tick_lines.append(f"    n{i} = ({code}) & {mask(reg.width)}")
        commit_lines.append(f"    env[{reg.name!r}] = n{i}")
    for j, w in enumerate(elab.writes):
        en = compile_expr(w.en, env_ref, truth=True)[0]
        addr = compile_expr(w.addr, env_ref)[0]
        data = compile_expr(w.data, env_ref)[0]
        tick_lines.append(
            f"    w{j} = (({addr}) % {w.depth}, {data}) if {en} else None")
        commit_lines.append(
            f"    if w{j} is not None: mems[{w.mem!r}][w{j}[0]] = w{j}[1]")
    tick_body = tick_lines + commit_lines
    tick_src = f"def _tick({sig}):\n" + (
        "\n".join(tick_body) if tick_body else "    pass") + "\n"

    namespace: Dict[str, object] = dict(CODEGEN_HELPERS)
    exec(compile(comb_src, f"<comb:{elab.top}>", "exec"), namespace)
    exec(compile(tick_src, f"<tick:{elab.top}>", "exec"), namespace)
    return namespace["_comb"], namespace["_tick"]


def _ref_names(expr) -> Iterable[str]:
    from ..firrtl.ast import Ref

    for leaf in expr.refs():
        if isinstance(leaf, Ref):
            yield leaf.name
