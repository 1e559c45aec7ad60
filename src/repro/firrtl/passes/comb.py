"""Combinational dependency analysis.

This is the analysis FireRipper runs before partitioning: for every module,
compute — for each output port — the set of input ports it depends on
through combinational logic only (registers break paths; memory reads are
combinational in this IR, so read data depends on the read address).

The per-module summaries compose hierarchically: an instance's output port
depends on whatever the child's summary says, applied to the expressions
the parent connects to the child's inputs.  Following the paper, modules
are processed in topological order so child summaries always exist.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ...errors import IRError
from ..ast import (
    Connect,
    DefNode,
    DefRegister,
    DefWire,
    Expr,
    InstPort,
    InstTarget,
    LocalTarget,
    MemReadPort,
    Ref,
)
from ..circuit import Circuit, Module
from .moduledag import module_topo_order

#: output port -> set of input ports it combinationally depends on
CombSummary = Dict[str, FrozenSet[str]]


def module_comb_deps(module: Module,
                     child_summaries: Dict[str, CombSummary]) -> CombSummary:
    """Combinational input-port dependencies for each output port.

    ``child_summaries`` maps module names (of instantiated children) to
    their own summaries.
    """
    analysis = _ModuleCombAnalysis(module, child_summaries)
    return {p.name: frozenset(analysis.deps_of_signal(p.name))
            for p in module.output_ports}


def circuit_comb_deps(circuit: Circuit) -> Dict[str, CombSummary]:
    """Summaries for every module in the circuit, children first."""
    summaries: Dict[str, CombSummary] = {}
    for name in module_topo_order(circuit):
        summaries[name] = module_comb_deps(circuit.module(name), summaries)
    return summaries


class _ModuleCombAnalysis:
    """Memoized local dependency traversal for one module."""

    def __init__(self, module: Module, child_summaries: Dict[str, CombSummary]):
        self.module = module
        self.child_summaries = child_summaries
        self.inputs: Set[str] = {p.name for p in module.input_ports}
        self.registers: Set[str] = {r.name for r in module.registers()}
        self.drivers: Dict[str, Expr] = {}
        self.node_exprs: Dict[str, Expr] = {}
        self.read_ports: Dict[str, Expr] = {}
        self.inst_modules: Dict[str, str] = {
            i.name: i.module for i in module.instances()
        }
        # connects to instance input ports: (inst, port) -> expr
        self.inst_inputs: Dict[Tuple[str, str], Expr] = {}
        for s in module.stmts:
            if isinstance(s, DefNode):
                self.node_exprs[s.name] = s.expr
            elif isinstance(s, MemReadPort):
                self.read_ports[s.name] = s.addr
            elif isinstance(s, Connect):
                if isinstance(s.target, LocalTarget):
                    self.drivers[s.target.name] = s.expr
                elif isinstance(s.target, InstTarget):
                    self.inst_inputs[(s.target.inst, s.target.port)] = s.expr
        self._memo: Dict[str, FrozenSet[str]] = {}
        self._in_progress: Set[str] = set()

    # -- local signals -------------------------------------------------------

    def deps_of_signal(self, name: str) -> FrozenSet[str]:
        """Input-port dependency set for a locally named signal."""
        if name in self._memo:
            return self._memo[name]
        if name in self.inputs:
            return frozenset((name,))
        if name in self.registers:
            return frozenset()
        if name in self._in_progress:
            # combinational loop through this signal; elaboration reports
            # loops precisely, here we just avoid infinite recursion.
            return frozenset()
        self._in_progress.add(name)
        try:
            if name in self.node_exprs:
                out = self.deps_of_expr(self.node_exprs[name])
            elif name in self.read_ports:
                out = self.deps_of_expr(self.read_ports[name])
            elif name in self.drivers:
                out = self.deps_of_expr(self.drivers[name])
            else:
                # undriven wire or output: no dependencies
                out = frozenset()
        finally:
            self._in_progress.discard(name)
        self._memo[name] = out
        return out

    def deps_of_expr(self, expr: Expr) -> FrozenSet[str]:
        out: Set[str] = set()
        for leaf in expr.refs():
            if isinstance(leaf, Ref):
                out |= self.deps_of_signal(leaf.name)
            elif isinstance(leaf, InstPort):
                out |= self._deps_of_inst_port(leaf)
        return frozenset(out)

    def _deps_of_inst_port(self, leaf: InstPort) -> FrozenSet[str]:
        mod_name = self.inst_modules.get(leaf.inst)
        if mod_name is None:
            raise IRError(
                f"{self.module.name}: reference to unknown instance "
                f"{leaf.inst!r}"
            )
        summary = self.child_summaries.get(mod_name)
        if summary is None:
            raise IRError(
                f"{self.module.name}: no comb summary for child module "
                f"{mod_name!r} (topological order violated)"
            )
        child_inputs = summary.get(leaf.port)
        if child_inputs is None:
            # reading a child *input* port would be odd; treat as no deps
            return frozenset()
        out: Set[str] = set()
        for child_in in child_inputs:
            driver = self.inst_inputs.get((leaf.inst, child_in))
            if driver is not None:
                out |= self.deps_of_expr(driver)
        return frozenset(out)


def classify_ports(module: Module, summary: CombSummary
                   ) -> Dict[str, List[str]]:
    """Split a module's boundary ports into the four LI-BDN channel roles
    used by exact-mode (Fig. 2b of the paper):

    * ``source_out``: outputs with no combinational input dependencies,
    * ``sink_out``:   outputs that depend on some input,
    * ``sink_in``:    inputs feeding some output combinationally,
    * ``source_in``:  the remaining inputs.
    """
    sink_out = sorted(o for o, ins in summary.items() if ins)
    source_out = sorted(o for o in summary if o not in set(sink_out))
    sink_in_set: Set[str] = set()
    for ins in summary.values():
        sink_in_set |= set(ins)
    sink_in = sorted(sink_in_set)
    source_in = sorted(p.name for p in module.input_ports
                       if p.name not in sink_in_set)
    return {
        "source_out": source_out,
        "sink_out": sink_out,
        "sink_in": sink_in,
        "source_in": source_in,
    }
