"""Cut-cost search shared by the two levels of placement.

Cutting a design into per-FPGA partitions
(:mod:`repro.fireripper.autopartition`) and mapping partitions onto
farm hosts (:mod:`repro.farm.placement`) are the same search at two
levels: cluster what must stay together, seed an assignment of
clusters to capacity-bounded sites, then move one cluster at a time
while that lowers the cost of the cut.  The clustering and the move
search live here once; the callers keep what genuinely differs —
their seed pass, the node weight (LUTs vs cores), the capacity, and
the cost of a cut edge (bits vs host-pair wire time).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple


def union_clusters(nodes: Sequence, pairs: Iterable[Tuple]) -> List[list]:
    """Connected components of ``pairs`` over ``nodes`` (union-find).
    Each cluster lists its members in ``nodes`` order; clusters are
    ordered by their first member."""
    parent = {node: node for node in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    clusters: Dict[object, list] = {}
    for node in nodes:
        clusters.setdefault(find(node), []).append(node)
    return list(clusters.values())


def descend(assignment: dict, nodes: Sequence, weight: dict,
            load: dict, capacity: dict, cost: Callable[[object], float],
            rounds: int,
            locked: Callable[[object], bool] = lambda node: False
            ) -> int:
    """Bounded steepest descent over single-node moves.

    ``assignment`` maps node -> site; ``load`` / ``capacity`` are per
    site, ``weight`` per node.  Each round prices every move of one
    unlocked node to another site with room (``load[site] +
    weight[node] <= capacity[site]``) by the drop in ``cost(node)`` —
    the node's own share of the cut under ``assignment`` — and applies
    the best strictly improving one; the first found wins ties.
    Mutates ``assignment`` and ``load``; returns the number of moves
    made (at most ``rounds``).
    """
    moves = 0
    for _ in range(rounds):
        best_gain, best_move = 0.0, None
        for node in nodes:
            if locked(node):
                continue
            here = assignment[node]
            current = cost(node)
            for site in load:
                if site == here \
                        or load[site] + weight[node] > capacity[site]:
                    continue
                assignment[node] = site
                gain = current - cost(node)
                assignment[node] = here
                if gain > best_gain + 1e-12:
                    best_gain, best_move = gain, (node, site)
        if best_move is None:
            break
        node, site = best_move
        load[assignment[node]] -= weight[node]
        load[site] += weight[node]
        assignment[node] = site
        moves += 1
    return moves
