"""Module extraction and removal (Sec. III-C, Fig. 5).

The pipeline matches the paper's passes:

1. **Uniquify** — modules along each selected instance path are cloned so
   the path is the only place they are instantiated (hoisting would
   otherwise change unrelated instances' interfaces).
2. **Reparent** — each selected instance is hoisted one hierarchy level at
   a time until it sits in the top module, punching I/O ports through the
   intervening modules while preserving connectivity.
3. **Grouping** — the selected instances of each partition group are moved
   into a fresh wrapper module.  Direct connections between two members of
   the same group stay inside the wrapper; everything else is punched as a
   *boundary net*.
4. **Extract / Remove** — each wrapper becomes the top of its own
   partition circuit; the base partition is the original top with the
   members deleted, dead glue logic cleaned up, and boundary nets exposed
   as top-level ports.

Every boundary net appears with the *same* port name on both sides, which
is what lets the LI-BDN channel plan pair them up later.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import IRError, SelectionError
from ..firrtl.ast import (
    Connect,
    DefInstance,
    DefNode,
    DefWire,
    Expr,
    INPUT,
    InstPort,
    InstTarget,
    LocalTarget,
    MemReadPort,
    MemWritePort,
    OUTPUT,
    Port,
    PrimOp,
    Ref,
    natural_key,
)
from ..firrtl.circuit import Circuit, Module


@dataclass(frozen=True)
class RawNet:
    """One boundary net: same-named port on the driving and consuming
    partitions."""

    name: str
    width: int
    src: str  # partition name driving the net
    dst: str  # partition name consuming the net


@dataclass
class ExtractedDesign:
    """Result of the extraction transform."""

    partitions: Dict[str, Circuit]
    nets: List[RawNet]
    #: group name -> top-level instance names after reparenting
    group_members: Dict[str, List[str]]
    base_name: str


# --------------------------------------------------------------------------
# expression rewriting helpers
# --------------------------------------------------------------------------


def _rewrite_expr(expr: Expr, fn) -> Expr:
    """Rebuild ``expr`` with ``fn`` applied to each Ref/InstPort leaf."""
    if isinstance(expr, (Ref, InstPort)):
        return fn(expr)
    if isinstance(expr, PrimOp):
        return PrimOp(expr.op, tuple(_rewrite_expr(a, fn)
                                     for a in expr.args),
                      expr.width, expr.params)
    return expr


def _rewrite_module_exprs(module: Module, fn) -> None:
    for i, s in enumerate(module.stmts):
        exprs = {k: _rewrite_expr(e, fn) for k, e in vars(s).items()
                 if isinstance(e, Expr)}
        if exprs:
            module.stmts[i] = replace(s, **exprs)


def _module_exprs(module: Module):
    return (e for s in module.stmts for e in vars(s).values()
            if isinstance(e, Expr))


# --------------------------------------------------------------------------
# uniquify + reparent
# --------------------------------------------------------------------------


def _instantiation_counts(circuit: Circuit) -> Counter:
    """Module name -> number of DefInstances of it (the top counts one)."""
    counts = Counter({circuit.top: 1})
    for m in circuit.modules.values():
        counts.update(inst.module for inst in m.instances())
    return counts


def _uniquify_path(circuit: Circuit, path: str, counts: Counter) -> None:
    """Clone the modules along ``path`` (excluding the final instance's
    module) so each is instantiated exactly once; ``counts`` is
    :func:`_instantiation_counts` of ``circuit``, kept current."""
    mod = circuit.top_module
    for segment in path.split(".")[:-1]:
        inst = mod.instance(segment)
        child_name = inst.module
        if counts[child_name] > 1:
            clone = circuit.module(child_name).clone()
            base = f"{child_name}_uniq"
            fresh = base
            i = 0
            while fresh in circuit.modules:
                i += 1
                fresh = f"{base}{i}"
            clone.name = fresh
            circuit.add_module(clone)
            mod.stmts[mod.stmts.index(inst)] = replace(inst, module=fresh)
            counts[child_name] -= 1
            counts[fresh] = 1
            counts.update(sub.module for sub in clone.instances())
            child_name = fresh
        mod = circuit.module(child_name)


def _remove_stmts(module: Module, stmts: Iterable) -> None:
    """Drop exactly the given statement objects (by identity: an equal
    statement elsewhere in the module stays)."""
    drop = {id(s) for s in stmts}
    module.stmts = [s for s in module.stmts if id(s) not in drop]


def _input_driver(conn: Dict[str, Connect], module: Module,
                  inst_name: str, port: Port) -> Connect:
    """The connect driving input ``port`` of instance ``inst_name``;
    an undriven input is refused as ``check_module`` refuses it."""
    driver = conn.get(f"{inst_name}.{port.name}")
    if driver is None:
        raise IRError(f"{module.name}: input {port.name!r} of instance "
                      f"{inst_name!r} is never driven")
    return driver


def _hoist_once(circuit: Circuit, path: str) -> str:
    """Move the instance named by ``path`` one level up the hierarchy.

    Returns the new (shorter) path.  The parent module must be uniquely
    instantiated (guaranteed by :func:`_uniquify_path`).
    """
    parts = path.split(".")
    assert len(parts) >= 2, "instance already at top"
    grandparent = circuit.top_module
    for segment in parts[:-2]:
        grandparent = circuit.module(
            grandparent.instance(segment).module)
    parent_inst_name = parts[-2]
    parent = circuit.module(grandparent.instance(parent_inst_name).module)
    inst_name = parts[-1]
    inst = parent.instance(inst_name)
    child = circuit.module(inst.module)

    conn = parent.connect_map()
    stmts_to_remove: List = [inst]
    port_map: List[Tuple[Port, str]] = []
    for q in child.ports:
        punched = parent.fresh_name(f"{inst_name}_{q.name}")
        if q.is_input:
            driver = _input_driver(conn, parent, inst_name, q)
            parent.ports.append(Port(punched, OUTPUT, q.width))
            parent.stmts.append(Connect(LocalTarget(punched), driver.expr))
            stmts_to_remove.append(driver)
        else:
            parent.ports.append(Port(punched, INPUT, q.width))
        port_map.append((q, punched))

    _remove_stmts(parent, stmts_to_remove)

    # reads of the hoisted instance's outputs become reads of the punched
    # input ports
    out_names = {q.name: punched for q, punched in port_map
                 if not q.is_input}

    def redirect(leaf):
        if isinstance(leaf, InstPort) and leaf.inst == inst_name \
                and leaf.port in out_names:
            return Ref(out_names[leaf.port], leaf.width)
        return leaf

    _rewrite_module_exprs(parent, redirect)

    new_name = grandparent.fresh_name(inst_name)
    grandparent.stmts.append(DefInstance(new_name, child.name))
    for q, punched in port_map:
        if q.is_input:
            grandparent.stmts.append(Connect(
                InstTarget(new_name, q.name),
                InstPort(parent_inst_name, punched, q.width)))
        else:
            grandparent.stmts.append(Connect(
                InstTarget(parent_inst_name, punched),
                InstPort(new_name, q.name, q.width)))
    return ".".join(parts[:-2] + [new_name])


def _reparent_to_top(circuit: Circuit, path: str) -> str:
    while "." in path:
        path = _hoist_once(circuit, path)
    return path


# --------------------------------------------------------------------------
# dead glue elimination in the base top after member removal
# --------------------------------------------------------------------------


def _local_drivers(module: Module) -> Dict[str, Expr]:
    """Local name -> the expression driving it (node or connect)."""
    drivers: Dict[str, Expr] = {}
    for s in module.stmts:
        if isinstance(s, DefNode):
            drivers[s.name] = s.expr
        elif isinstance(s, Connect) and isinstance(s.target, LocalTarget):
            drivers[s.target.name] = s.expr
    return drivers


def _eliminate_dead_glue(module: Module) -> None:
    """Drop wires/nodes (and their drivers) no longer reachable from the
    module's outputs, registers, memories, or remaining instances."""
    drivers = _local_drivers(module)
    read_ports: Dict[str, MemReadPort] = {
        s.name: s for s in module.stmts if isinstance(s, MemReadPort)}

    #: what is read whether or not anything reads it
    roots = {p.name for p in module.output_ports} | {
        r.name for r in module.registers()}
    used: Set[str] = set()

    def mark_expr(expr: Expr) -> None:
        for leaf in expr.refs():
            if isinstance(leaf, Ref):
                mark_name(leaf.name)

    def mark_name(name: str) -> None:
        if name in used:
            return
        used.add(name)
        if name in drivers:
            mark_expr(drivers[name])
        if name in read_ports:
            mark_expr(read_ports[name].addr)

    for s in module.stmts:
        if isinstance(s, Connect) and (isinstance(s.target, InstTarget)
                                       or s.target.name in roots):
            mark_expr(s.expr)
        elif isinstance(s, MemWritePort):
            for e in (s.addr, s.data, s.en):
                mark_expr(e)

    def keep(s) -> bool:
        if isinstance(s, (DefWire, DefNode, MemReadPort)):
            return s.name in used
        if isinstance(s, Connect) and isinstance(s.target, LocalTarget):
            return s.target.name in used or s.target.name in roots
        return True

    module.stmts = [s for s in module.stmts if keep(s)]


# --------------------------------------------------------------------------
# grouping + extraction
# --------------------------------------------------------------------------


def _trace_direct(drivers: Dict[str, Expr],
                  expr: Expr) -> Optional[InstPort]:
    """Follow single-reference wire/node chains through ``drivers``
    (:func:`_local_drivers`); return the InstPort this expression is
    (transitively) a plain copy of, if any."""
    seen: Set[str] = set()
    while True:
        if isinstance(expr, InstPort):
            return expr
        if isinstance(expr, Ref):
            if expr.name in seen or expr.name not in drivers:
                return None
            seen.add(expr.name)
            expr = drivers[expr.name]
            continue
        return None


class _WrapperBuilder:
    """Accumulates one partition group's wrapper module."""

    def __init__(self, name: str):
        self.module = Module(f"Wrapper_{name}")
        self.partition = name
        self._out_ports: Dict[Tuple[str, str], str] = {}
        self._members: Dict[str, str] = {}  # inst name -> module name

    def add_member(self, inst_name: str, module_name: str) -> None:
        self._members[inst_name] = module_name
        self.module.stmts.append(DefInstance(inst_name, module_name))

    def add_input(self, net: str, width: int, inst: str, port: str) -> None:
        if not self.module.has_port(net):
            self.module.ports.append(Port(net, INPUT, width))
        self.module.stmts.append(
            Connect(InstTarget(inst, port), Ref(net, width)))

    def connect_internal(self, inst: str, port: str, width: int,
                         src_inst: str, src_port: str) -> None:
        self.module.stmts.append(
            Connect(InstTarget(inst, port),
                    InstPort(src_inst, src_port, width)))

    def expose_output(self, inst: str, port: str, width: int,
                      net: str) -> None:
        """Expose a member output as wrapper port ``net`` (idempotent per
        (inst, port, net))."""
        key = (f"{inst}.{port}", net)
        if key in self._out_ports:
            return
        self._out_ports[key] = net
        if not self.module.has_port(net):
            self.module.ports.append(Port(net, OUTPUT, width))
            self.module.stmts.append(
                Connect(LocalTarget(net), InstPort(inst, port, width)))


def _assemble(top_name: str, modules: Iterable[Module]) -> Circuit:
    """One partition's circuit: the modules reachable from its top,
    cloned once, so no two partitions (nor the work copy) share a
    module or a statement list."""
    view = Circuit(top_name, modules)
    view.remove_unreachable()
    return view.clone()


def extract_partitions(circuit: Circuit,
                       groups: Dict[str, Sequence[str]],
                       base_name: str = "base") -> ExtractedDesign:
    """Partition ``circuit``: extract each group of instance paths into
    its own partition circuit; the remainder becomes the base partition.

    Args:
        circuit: the monolithic design (never mutated).
        groups: partition name -> instance paths to extract.
        base_name: name of the residual partition.
    """
    _validate_groups(circuit, groups, base_name)
    work = circuit.clone()

    # 1-2. uniquify + reparent every selected instance to the top
    members: Dict[str, List[str]] = {}
    group_of: Dict[str, str] = {}
    counts = _instantiation_counts(work)
    for gname, paths in groups.items():
        members[gname] = []
        for path in paths:
            _uniquify_path(work, path, counts)
    # reparent after all uniquification (paths stay valid: uniquify does
    # not rename instances)
    for gname, paths in groups.items():
        for path in paths:
            top_name = _reparent_to_top(work, path)
            members[gname].append(top_name)
            group_of[top_name] = gname

    top = work.top_module
    selected = set(group_of)
    conn = top.connect_map()
    drivers = _local_drivers(top)
    wrappers = {g: _WrapperBuilder(g) for g in groups}
    nets: List[RawNet] = []
    net_names: Set[str] = set()

    def fresh_net(base: str) -> str:
        name = base
        i = 0
        while name in net_names:
            i += 1
            name = f"{base}_{i}"
        net_names.add(name)
        return name

    # 3. grouping: route every member port
    removed_stmts: List = []
    for inst_name in sorted(selected, key=natural_key):
        gname = group_of[inst_name]
        wb = wrappers[gname]
        inst = top.instance(inst_name)
        child = work.module(inst.module)
        wb.add_member(inst_name, child.name)
        removed_stmts.append(inst)
        for q in child.ports:
            if not q.is_input:
                continue  # outputs handled from the consumer side
            driver = _input_driver(conn, top, inst_name, q)
            removed_stmts.append(driver)
            direct = _trace_direct(drivers, driver.expr)
            if direct is not None and direct.inst in selected \
                    and direct.width == q.width:
                src_group = group_of[direct.inst]
                if src_group == gname:
                    wb.connect_internal(inst_name, q.name, q.width,
                                        direct.inst, direct.port)
                    continue
                net = fresh_net(f"{inst_name}_{q.name}")
                wrappers[src_group].expose_output(
                    direct.inst, direct.port, q.width, net)
                wb.add_input(net, q.width, inst_name, q.name)
                nets.append(RawNet(net, q.width, src_group, gname))
                continue
            # driven by base logic
            net = fresh_net(f"{inst_name}_{q.name}")
            top.ports.append(Port(net, OUTPUT, q.width))
            top.stmts.append(Connect(LocalTarget(net), driver.expr))
            drivers[net] = driver.expr
            wb.add_input(net, q.width, inst_name, q.name)
            nets.append(RawNet(net, q.width, base_name, gname))

    _remove_stmts(top, removed_stmts)

    # 4a. clean dead glue, then expose member outputs the base still reads
    _eliminate_dead_glue(top)

    member_reads: Dict[Tuple[str, str], int] = {}
    for expr in _module_exprs(top):
        for leaf in expr.refs():
            if isinstance(leaf, InstPort) and leaf.inst in selected:
                member_reads[(leaf.inst, leaf.port)] = leaf.width

    read_net: Dict[Tuple[str, str], str] = {}
    for (inst_name, port), width in sorted(member_reads.items()):
        gname = group_of[inst_name]
        net = fresh_net(f"{inst_name}_{port}")
        read_net[(inst_name, port)] = net
        top.ports.append(Port(net, INPUT, width))
        wrappers[gname].expose_output(inst_name, port, width, net)
        nets.append(RawNet(net, width, gname, base_name))

    def replace_member_reads(leaf):
        if isinstance(leaf, InstPort) and (leaf.inst, leaf.port) in read_net:
            return Ref(read_net[(leaf.inst, leaf.port)], leaf.width)
        return leaf

    _rewrite_module_exprs(top, replace_member_reads)

    # 4b. assemble per-partition circuits
    partitions: Dict[str, Circuit] = {
        base_name: _assemble(top.name, work.modules.values())}
    for gname, wb in wrappers.items():
        partitions[gname] = _assemble(
            wb.module.name,
            [wb.module] + [m for m in work.modules.values()
                           if m.name != top.name])

    return ExtractedDesign(partitions=partitions, nets=nets,
                           group_members=members, base_name=base_name)


def remove_modules(circuit: Circuit, paths: Sequence[str],
                   base_name: str = "base") -> Circuit:
    """The removal transform of Fig. 5b: delete the selected modules and
    return the remaining design with the boundary punched as top-level
    I/O."""
    design = extract_partitions(circuit, {"removed": list(paths)},
                                base_name=base_name)
    return design.partitions[base_name]


def _validate_groups(circuit: Circuit, groups: Dict[str, Sequence[str]],
                     base_name: str) -> None:
    if not groups:
        raise SelectionError("no partition groups given")
    if base_name in groups:
        raise SelectionError(
            f"group name {base_name!r} collides with the base partition")
    all_paths: List[str] = []
    for gname, paths in groups.items():
        if not paths:
            raise SelectionError(f"group {gname!r} selects no instances")
        for path in paths:
            try:
                circuit.resolve_path(path)
            except IRError as exc:
                raise SelectionError(
                    f"group {gname!r}: bad instance path {path!r}: {exc}")
            all_paths.append(path)
    if len(set(all_paths)) != len(all_paths):
        raise SelectionError("an instance path appears in two groups")
    for a in all_paths:
        for b in all_paths:
            if a != b and b.startswith(a + "."):
                raise SelectionError(
                    f"selected instance {a!r} is an ancestor of {b!r}")
