"""Module and Circuit containers for the FIRRTL-like IR.

A :class:`Module` owns an ordered list of statements plus index structures
(ports, signal widths, instances, connect map) that passes use constantly.
A :class:`Circuit` is a named set of modules with a designated top.  Both
are mutable — FireRipper's transforms rewrite them in place on clones.

Ownership rule: a clone owns its containers (the module dict, each
module's ``ports``/``stmts`` lists) and its own copy of every mutable
:class:`Port`/:class:`Stmt`; the expression trees and connect targets
those statements point at are frozen dataclasses no pass mutates, so
they are shared.  Sharing starts before any clone: one
:func:`~repro.firrtl.parser.parse_circuit` call gives equal expressions
one tree, across modules too, so an expression is changed by building
a new one (``dataclasses.replace``), never in place.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, Iterator, List, Optional

from ..errors import IRError
from . import ast
from .ast import (
    Connect,
    DefInstance,
    DefMemory,
    DefNode,
    DefRegister,
    DefWire,
    InstTarget,
    LocalTarget,
    MemReadPort,
    MemWritePort,
    Port,
    Stmt,
)


class Module:
    """One module definition: ports plus a flat, ordered statement list."""

    def __init__(self, name: str, ports: Optional[List[Port]] = None,
                 stmts: Optional[List[Stmt]] = None):
        self.name = name
        self.ports: List[Port] = list(ports or [])
        self.stmts: List[Stmt] = list(stmts or [])

    # -- index helpers -----------------------------------------------------

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise IRError(f"{self.name}: no port named {name!r}")

    def has_port(self, name: str) -> bool:
        return any(p.name == name for p in self.ports)

    @property
    def input_ports(self) -> List[Port]:
        return [p for p in self.ports if p.is_input]

    @property
    def output_ports(self) -> List[Port]:
        return [p for p in self.ports if not p.is_input]

    def instances(self) -> List[DefInstance]:
        return [s for s in self.stmts if isinstance(s, DefInstance)]

    def instance(self, name: str) -> DefInstance:
        for s in self.instances():
            if s.name == name:
                return s
        raise IRError(f"{self.name}: no instance named {name!r}")

    def registers(self) -> List[DefRegister]:
        return [s for s in self.stmts if isinstance(s, DefRegister)]

    def memories(self) -> List[DefMemory]:
        return [s for s in self.stmts if isinstance(s, DefMemory)]

    def connects(self) -> List[Connect]:
        return [s for s in self.stmts if isinstance(s, Connect)]

    def connect_map(self) -> Dict[str, Connect]:
        """Map ``str(target)`` -> the Connect statement driving it."""
        out: Dict[str, Connect] = {}
        for c in self.connects():
            key = str(c.target)
            if key in out:
                raise IRError(f"{self.name}: {key} driven twice")
            out[key] = c
        return out

    def signal_widths(self) -> Dict[str, int]:
        """Name -> width of every locally named signal (the first
        declaration wins, as a scan in declaration order would)."""
        mems = {m.name: m.width for m in self.memories()}
        widths: Dict[str, int] = {}
        for p in self.ports:
            widths.setdefault(p.name, p.width)
        for s in self.stmts:
            if isinstance(s, (DefWire, DefRegister, DefNode)):
                widths.setdefault(s.name, s.width)
            elif isinstance(s, MemReadPort) and s.mem in mems:
                widths.setdefault(s.name, mems[s.mem])
        return widths

    def defined_names(self) -> Iterator[str]:
        """All locally declared names (ports, wires, nodes, regs, mems,
        mem-read ports, instances)."""
        for p in self.ports:
            yield p.name
        for s in self.stmts:
            if isinstance(s, (DefWire, DefRegister, DefMemory, DefNode,
                              DefInstance)):
                yield s.name
            elif isinstance(s, MemReadPort):
                yield s.name

    def fresh_name(self, base: str) -> str:
        """A name not yet declared in this module, derived from ``base``."""
        taken = set(self.defined_names())
        if base not in taken:
            return base
        i = 0
        while f"{base}_{i}" in taken:
            i += 1
        return f"{base}_{i}"

    def clone(self) -> "Module":
        """A module that owns its lists, ports and statements (see the
        ownership rule in the module docstring)."""
        return Module(self.name, [copy.copy(p) for p in self.ports],
                      [copy.copy(s) for s in self.stmts])

    def __repr__(self) -> str:
        return (f"Module({self.name!r}, {len(self.ports)} ports, "
                f"{len(self.stmts)} stmts)")


class Circuit:
    """A set of modules with a designated top module."""

    def __init__(self, top: str, modules: Iterable[Module]):
        self.top = top
        self.modules: Dict[str, Module] = {}
        for m in modules:
            self.add_module(m)
        if top not in self.modules:
            raise IRError(f"top module {top!r} not among modules")

    def add_module(self, m: Module) -> None:
        if m.name in self.modules:
            raise IRError(f"duplicate module {m.name!r}")
        self.modules[m.name] = m

    @property
    def top_module(self) -> Module:
        return self.modules[self.top]

    def module(self, name: str) -> Module:
        if name not in self.modules:
            raise IRError(f"no module named {name!r}")
        return self.modules[name]

    def clone(self) -> "Circuit":
        """Clone every module, so transforms never mutate the caller's
        circuit: containers and statements are owned, the frozen
        expression trees are shared."""
        return Circuit(self.top, (m.clone() for m in self.modules.values()))

    def remove_unreachable(self) -> None:
        """Drop modules not instantiated (transitively) from the top."""
        keep = set()
        stack = [self.top]
        while stack:
            name = stack.pop()
            if name in keep:
                continue
            keep.add(name)
            for inst in self.modules[name].instances():
                stack.append(inst.module)
        self.modules = {n: m for n, m in self.modules.items() if n in keep}

    def instance_paths(self, module_name: str) -> List[str]:
        """All hierarchical instance paths (dot separated, rooted at top)
        at which ``module_name`` is instantiated."""
        found: List[str] = []

        def walk(mod: Module, prefix: str) -> None:
            for inst in mod.instances():
                path = f"{prefix}{inst.name}"
                if inst.module == module_name:
                    found.append(path)
                walk(self.modules[inst.module], path + ".")

        walk(self.top_module, "")
        return found

    def resolve_path(self, path: str) -> DefInstance:
        """Resolve a dot-separated instance path to its DefInstance."""
        mod = self.top_module
        parts = path.split(".")
        inst = None
        for part in parts:
            inst = mod.instance(part)
            mod = self.modules[inst.module]
        assert inst is not None
        return inst

    def stats(self) -> Dict[str, int]:
        """Aggregate statement counts across the hierarchy (per definition,
        not per instantiation)."""
        counts = {"modules": len(self.modules), "ports": 0, "wires": 0,
                  "nodes": 0, "registers": 0, "memories": 0,
                  "instances": 0, "connects": 0}
        for m in self.modules.values():
            counts["ports"] += len(m.ports)
            for s in m.stmts:
                if isinstance(s, DefWire):
                    counts["wires"] += 1
                elif isinstance(s, DefNode):
                    counts["nodes"] += 1
                elif isinstance(s, DefRegister):
                    counts["registers"] += 1
                elif isinstance(s, DefMemory):
                    counts["memories"] += 1
                elif isinstance(s, DefInstance):
                    counts["instances"] += 1
                elif isinstance(s, Connect):
                    counts["connects"] += 1
        return counts

    def __repr__(self) -> str:
        return f"Circuit(top={self.top!r}, modules={sorted(self.modules)})"
