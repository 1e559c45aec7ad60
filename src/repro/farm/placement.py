"""Partition-to-host placement passes (FireSim topology style).

FireSim separates *what* is simulated from *where* it runs with a
sequence of topology passes over a declarative host manifest; FireAxe
layers partitioned targets onto that machinery.  This module reproduces
the shape for the software farm: given the partition link graph and a
:class:`~repro.farm.hosts.FarmSpec`, produce an assignment of
partitions to hosts that

* respects every host's core budget (one partition worker per core),
* never splits a *co-location group* (e.g. FAME-5 instance-
  multithreading candidates, whose members must share an FPGA — here,
  a host),
* minimizes the modelled cross-host cut cost: for every link whose
  endpoints land on different hosts, the per-token wire time of the
  host pair's link class at the width the timing overlay charges for
  the link (:meth:`~repro.platform.TransportModel.wire_ns` of the
  source channel's token width in bits).

The optimizer is a deterministic greedy seed (heaviest nodes first,
each to the cheapest feasible host) refined by a bounded
steepest-descent move search — small farms reach the optimum, large
ones get a good cut in O(nodes * hosts * rounds).  The group
clustering and the move search are :mod:`repro.platform.cutsearch`,
shared with :mod:`repro.fireripper.autopartition` (the same search one
level down); this module keeps the seed pass, the node weight (cores)
and the cost of a cut edge (host-pair wire time).  Infeasible inputs
(more partitions than live cores, a group larger than every host)
raise :class:`~repro.errors.PlacementError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import PlacementError
from ..platform.cutsearch import descend, union_clusters
from .hosts import FarmSpec

#: one cross-partition link: (src partition, dst partition, width bits)
LinkDesc = Tuple[str, str, int]


@dataclass
class Placement:
    """One partition-to-host assignment and its modelled cut."""

    assignment: Dict[str, str]
    #: summed per-token wire time of every cross-host link (ns)
    cut_cost_ns: float = 0.0
    #: how many links cross a host boundary
    cross_links: int = 0
    #: the co-location groups the placement honoured
    groups: List[List[str]] = field(default_factory=list)

    def hosts_used(self) -> List[str]:
        return sorted(set(self.assignment.values()))

    def by_host(self) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for part in sorted(self.assignment):
            out.setdefault(self.assignment[part], []).append(part)
        return out

    def to_dict(self) -> dict:
        return {
            "assignment": dict(sorted(self.assignment.items())),
            "by_host": self.by_host(),
            "cut_cost_ns": self.cut_cost_ns,
            "cross_links": self.cross_links,
            "groups": [list(g) for g in self.groups],
        }


def _merge_groups(names: Sequence[str],
                  colocate: Iterable[Iterable[str]]) -> List[List[str]]:
    """Validated, overlap-merged co-location groups + singletons, each
    ordered by first appearance in ``names``."""
    groups = [list(group) for group in colocate]
    for group in groups:
        for member in group:
            if member not in names:
                raise PlacementError(
                    f"co-location group names unknown partition "
                    f"{member!r}")
    return union_clusters(names, (pair for group in groups
                                  for pair in zip(group, group[1:])))


def place(names: Sequence[str], links: Sequence[LinkDesc],
          spec: FarmSpec,
          colocate: Iterable[Iterable[str]] = ()) -> Placement:
    """Assign ``names`` to ``spec``'s live hosts.

    Args:
        names: partition names (global partition order).
        links: cross-partition links as ``(src, dst, width_bits)``.
        spec: the farm manifest; only live hosts are used.
        colocate: groups that must share a host (overlapping groups
            merge).
    """
    names = list(names)
    if not names:
        raise PlacementError("nothing to place: no partitions")
    hosts = spec.live_hosts()
    if not hosts:
        raise PlacementError("no live hosts left in the farm")
    if len(names) > sum(h.cores for h in hosts):
        raise PlacementError(
            f"{len(names)} partitions exceed the farm's "
            f"{sum(h.cores for h in hosts)} live cores "
            f"({len(hosts)} host(s))")
    groups = _merge_groups(names, colocate)
    max_cores = max(h.cores for h in hosts)
    for group in groups:
        if len(group) > max_cores:
            raise PlacementError(
                f"co-location group {group} needs {len(group)} cores "
                f"on one host; the largest live host has {max_cores}")

    # group-level link graph: edges carry the widths of every member
    # link, so the cut cost of a candidate host pair is computable on
    # the fly (wire time depends on which hosts the ends land on)
    owner = {name: i for i, group in enumerate(groups)
             for name in group}
    edges: Dict[Tuple[int, int], List[int]] = {}
    for src, dst, width in links:
        if src not in owner or dst not in owner:
            raise PlacementError(
                f"link ({src!r} -> {dst!r}) names an unknown "
                "partition")
        ga, gb = owner[src], owner[dst]
        if ga == gb:
            continue
        key = (ga, gb) if ga < gb else (gb, ga)
        edges.setdefault(key, []).append(int(width))

    adjacency: Dict[int, Dict[int, List[int]]] = {
        i: {} for i in range(len(groups))}
    for (ga, gb), widths in edges.items():
        adjacency[ga][gb] = widths
        adjacency[gb][ga] = widths

    def pair_cost(host_a: str, host_b: str,
                  widths: List[int]) -> float:
        if host_a == host_b:
            return 0.0
        model = spec.link_model(host_a, host_b)
        return sum(model.wire_ns(w) for w in widths)

    cores = {h.name: h.cores for h in hosts}
    used = dict.fromkeys(cores, 0)
    need = {i: len(group) for i, group in enumerate(groups)}
    at: Dict[int, str] = {}

    def wire_ns(gi: int) -> float:
        """Cut share of group ``gi`` against its placed neighbours."""
        return sum(pair_cost(at[gi], at[gj], widths)
                   for gj, widths in adjacency[gi].items()
                   if gj in at)

    # greedy seed: heaviest groups first (size, then total adjacent
    # traffic), each to the cheapest feasible host; ties break on host
    # order, so the pass is deterministic
    traffic = {i: sum(len(w) for w in adjacency[i].values())
               for i in range(len(groups))}
    for gi in sorted(need, key=lambda i: (-need[i], -traffic[i], i)):
        best, best_cost = None, 0.0
        for host in cores:
            if used[host] + need[gi] > cores[host]:
                continue
            at[gi] = host
            cost = wire_ns(gi)
            if best is None or cost < best_cost:
                best, best_cost = host, cost
        if best is None:
            raise PlacementError(
                f"no live host has {need[gi]} free core(s) for group "
                f"{groups[gi]}")
        at[gi] = best
        used[best] += need[gi]

    # refinement: move any one group to any other feasible host while
    # that lowers the cut
    descend(at, list(need), need, used, cores, wire_ns,
            rounds=2 * len(groups) + 4)

    assignment = {name: at[owner[name]] for name in names}
    cut, crossing = 0.0, 0
    for (ga, gb), widths in edges.items():
        if at[ga] != at[gb]:
            cut += pair_cost(at[ga], at[gb], widths)
            crossing += len(widths)
    return Placement(assignment=assignment, cut_cost_ns=cut,
                     cross_links=crossing,
                     groups=[g for g in groups if len(g) > 1])


def sim_links(sim) -> List[LinkDesc]:
    """The cross-partition link list of a built simulation, at the
    width the timing overlay charges: the source channel's token
    width in bits."""
    out: List[LinkDesc] = []
    for link in sim.links:
        a, b = link.src[0], link.dst[0]
        if a != b:
            width = sim._out_channel_by_key[link.src].codec.width
            out.append((a, b, width))
    return out


def place_sim(sim, spec: FarmSpec,
              colocate: Iterable[Iterable[str]] = ()) -> Placement:
    """Place a built partitioned simulation onto the farm."""
    return place(list(sim.partitions), sim_links(sim), spec,
                 colocate=colocate)
