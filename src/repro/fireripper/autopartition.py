"""Automatic partition-point search (the paper's Sec. VIII-B future work).

FireRipper's default flow needs the user to name the modules per FPGA.
The paper suggests two augmentations: rough per-FPGA resource estimates
for quick feedback (implemented in :mod:`repro.platform.estimate` and the
report), and "using existing graph partitioning tools to automatically
search for boundaries that are amenable to partitioning".  This module
implements that search:

1. build a weighted graph over the top module's instances — node weight
   is the instance's estimated LUT footprint, edge weight the bit width
   of the wiring between two instances (the would-be boundary cost),
2. greedily grow balanced groups from heavy seed nodes, preferring to
   absorb neighbours with the largest attached cut width (a
   Kernighan-Lin-flavoured refinement pass then swaps instances while it
   reduces the cut without violating the capacity bound),
3. reject boundaries exact-mode could not compile (sink->sink nets) when
   ``mode="exact"`` by keeping combinationally-coupled neighbours
   together.

The union-find clustering of step 3 and the refinement's move search
are :mod:`repro.platform.cutsearch`, shared with the farm's
partition-to-host placement (:mod:`repro.farm.placement` — the same
search one level up); this module keeps the seed pass, the node
weight (LUTs), the capacity and the cost of a cut edge (bits).

The result is a ready-to-compile :class:`~repro.fireripper.PartitionSpec`
plus a search report (cut width, per-FPGA utilization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import SelectionError
from ..firrtl.ast import Connect, InstPort, InstTarget, LocalTarget, Ref
from ..firrtl.circuit import Circuit, Module
from ..firrtl.passes.comb import circuit_comb_deps
from ..platform.cutsearch import descend, union_clusters
from ..platform.estimate import estimate_circuit_resources
from ..platform.resources import FPGAProfile
from .spec import EXACT, PartitionGroup, PartitionSpec


@dataclass
class InstanceGraph:
    """Weighted instance graph of a circuit's top module."""

    nodes: List[str]
    luts: Dict[str, float]
    edges: Dict[Tuple[str, str], float]  # undirected, key sorted
    comb_coupled: Set[Tuple[str, str]]   # pairs with comb through-paths

    def edge(self, a: str, b: str) -> float:
        return self.edges.get((min(a, b), max(a, b)), 0.0)

    def cut_width(self, assignment: Dict[str, int]) -> float:
        """Total bit width crossing group boundaries."""
        return sum(w for (a, b), w in self.edges.items()
                   if assignment.get(a) != assignment.get(b))


def build_instance_graph(circuit: Circuit,
                         mode: str = EXACT) -> InstanceGraph:
    """Extract the weighted instance graph from the top module."""
    top = circuit.top_module
    nodes = [i.name for i in top.instances()]
    inst_mod = {i.name: i.module for i in top.instances()}

    luts: Dict[str, float] = {}
    for name in nodes:
        # a view, not a copy: remove_unreachable only rebinds sub's dict
        sub = Circuit(inst_mod[name], circuit.modules.values())
        sub.remove_unreachable()
        luts[name] = estimate_circuit_resources(sub).luts

    # edge weights: width of direct instance-to-instance wiring
    edges: Dict[Tuple[str, str], float] = {}

    def add_edge(a: str, b: str, width: float) -> None:
        if a == b:
            return
        key = (min(a, b), max(a, b))
        edges[key] = edges.get(key, 0.0) + width

    # trace connects: inst input driven by expr referencing other insts
    for stmt in top.stmts:
        if isinstance(stmt, Connect) and isinstance(stmt.target,
                                                    InstTarget):
            for leaf in stmt.expr.refs():
                if isinstance(leaf, InstPort):
                    add_edge(stmt.target.inst, leaf.inst, leaf.width)

    # combinationally-coupled pairs: producer output with comb deps
    # feeding a consumer input that feeds comb outputs (would be a
    # sink->sink boundary if separated)
    summaries = circuit_comb_deps(circuit)
    comb_coupled: Set[Tuple[str, str]] = set()
    if mode == EXACT:
        for stmt in top.stmts:
            if not (isinstance(stmt, Connect)
                    and isinstance(stmt.target, InstTarget)):
                continue
            dst_mod = summaries[inst_mod[stmt.target.inst]]
            dst_sinky = any(stmt.target.port in ins
                            for ins in dst_mod.values())
            if not dst_sinky:
                continue
            for leaf in stmt.expr.refs():
                if isinstance(leaf, InstPort):
                    src_summary = summaries[inst_mod[leaf.inst]]
                    if src_summary.get(leaf.port):
                        pair = (min(stmt.target.inst, leaf.inst),
                                max(stmt.target.inst, leaf.inst))
                        comb_coupled.add(pair)
    return InstanceGraph(nodes, luts, edges, comb_coupled)


@dataclass
class AutoPartitionResult:
    """Outcome of the search."""

    spec: PartitionSpec
    assignment: Dict[str, int]  # instance -> group index (-1 = base)
    cut_bits: float
    group_luts: Dict[int, float]
    refinement_moves: int

    def to_text(self) -> str:
        lines = ["automatic partition search"]
        groups: Dict[int, List[str]] = {}
        for inst, g in sorted(self.assignment.items()):
            groups.setdefault(g, []).append(inst)
        for g in sorted(groups):
            label = "base" if g == -1 else f"fpga{g}"
            lines.append(f"  {label}: {', '.join(groups[g])} "
                         f"({self.group_luts.get(g, 0.0):.0f} LUTs)")
        lines.append(f"  boundary cut: {self.cut_bits:.0f} bits "
                     f"({self.refinement_moves} refinement moves)")
        return "\n".join(lines)


def auto_partition(circuit: Circuit, n_fpgas: int,
                   profile: Optional[FPGAProfile] = None,
                   mode: str = EXACT,
                   balance_slack: float = 0.25,
                   keep_in_base: Sequence[str] = ()) -> AutoPartitionResult:
    """Search for a balanced, narrow-boundary partition of the top-level
    instances onto ``n_fpgas`` FPGAs.

    Args:
        circuit: the monolithic design.
        n_fpgas: total FPGA count (one group is the base partition).
        profile: optional capacity bound per FPGA.
        mode: exact-mode keeps combinationally-coupled instances in the
            same group so the chain-length check cannot fail.
        balance_slack: allowed deviation from perfectly balanced LUTs.
        keep_in_base: instance names pinned to the base partition.
    """
    if n_fpgas < 2:
        raise SelectionError("auto_partition needs at least 2 FPGAs")
    graph = build_instance_graph(circuit, mode=mode)
    if len(graph.nodes) < n_fpgas:
        raise SelectionError(
            f"only {len(graph.nodes)} top-level instances for "
            f"{n_fpgas} FPGAs")

    # union combinationally-coupled instances into super-nodes, each
    # named by its first instance
    clusters = {members[0]: members for members in
                union_clusters(graph.nodes, graph.comb_coupled)}
    owner = {n: c for c, members in clusters.items() for n in members}
    cluster_ids = sorted(clusters)
    cluster_luts = {c: sum(graph.luts[n] for n in clusters[c])
                    for c in cluster_ids}
    #: cluster-level cut graph: bits of wiring between two clusters
    adjacent: Dict[str, Dict[str, float]] = {c: {} for c in cluster_ids}
    for (a, b), width in graph.edges.items():
        ca, cb = owner[a], owner[b]
        if ca != cb:
            adjacent[ca][cb] = adjacent[ca].get(cb, 0.0) + width
            adjacent[cb][ca] = adjacent[cb].get(ca, 0.0) + width

    total_luts = sum(cluster_luts.values()) or 1.0
    target = total_luts / n_fpgas
    capacity = target * (1.0 + balance_slack)
    if profile is not None:
        capacity = min(capacity, profile.usable.luts
                       * profile.congestion_threshold)

    pinned = {owner[n] for n in keep_in_base if n in owner}

    # greedy seeding: heaviest unpinned clusters seed groups 0..n-2;
    # everything else starts in the base (-1)
    assignment: Dict[str, int] = {c: -1 for c in cluster_ids}
    free = sorted((c for c in cluster_ids if c not in pinned),
                  key=lambda c: -cluster_luts[c])
    n_groups = n_fpgas - 1
    loads = {g: 0.0 for g in range(n_groups)}
    loads[-1] = sum(cluster_luts[c] for c in pinned)
    for i, c in enumerate(free):
        if i < n_groups:
            g = i
        else:
            g = min(loads, key=lambda k: loads[k])
        assignment[c] = g
        loads[g] = loads.get(g, 0.0) + cluster_luts[c]

    def cut_bits(c: str) -> float:
        return sum(width for other, width in adjacent[c].items()
                   if assignment[other] != assignment[c])

    def locked(c: str) -> bool:
        # pinned to the base, or the last cluster of an extracted
        # group (never empty one)
        here = assignment[c]
        return c in pinned or (here != -1 and sum(
            1 for g in assignment.values() if g == here) <= 1)

    # KL-style refinement: move a cluster to the group that most
    # reduces the cut, while staying under capacity
    moves = descend(assignment, cluster_ids, cluster_luts, loads,
                    dict.fromkeys(loads, capacity), cut_bits,
                    rounds=4 * len(cluster_ids), locked=locked)

    final = {n: assignment[owner[n]] for n in graph.nodes}
    groups: Dict[int, List[str]] = {}
    for inst, g in final.items():
        if g != -1:
            groups.setdefault(g, []).append(inst)
    if not groups:
        raise SelectionError("search assigned everything to the base; "
                             "loosen balance_slack or reduce n_fpgas")
    spec = PartitionSpec(mode=mode, groups=[
        PartitionGroup.make(f"auto{g}", sorted(members))
        for g, members in sorted(groups.items())])
    return AutoPartitionResult(
        spec=spec,
        assignment=final,
        cut_bits=graph.cut_width(final),
        group_luts={g: loads.get(g, 0.0) for g in loads},
        refinement_moves=moves,
    )
