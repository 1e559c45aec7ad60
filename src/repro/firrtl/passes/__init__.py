"""Analysis and transform passes over the FIRRTL-like IR."""

from .check import check_circuit, check_module
from .comb import circuit_comb_deps, module_comb_deps
from .connectivity import instance_adjacency
from .moduledag import module_topo_order

__all__ = [
    "check_circuit",
    "check_module",
    "circuit_comb_deps",
    "module_comb_deps",
    "instance_adjacency",
    "module_topo_order",
]
