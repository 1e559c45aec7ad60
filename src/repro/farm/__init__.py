"""Simulated run farm: multi-host placement, deploy, supervision.

FireAxe's evaluation runs partitioned designs across *clusters* of
FPGA hosts (on-prem U250 boxes cabled with QSFP, cloud F1 instances);
FireSim's manager owns the corresponding deploy/supervise machinery.
This package reproduces that layer in software, with no real cluster
needed: hosts are declared in a JSON manifest (``hosts``), FireSim-
style topology passes place partitions to minimize the modelled
cross-host cut (``placement``), and a manager (``manager``) forks the
partition workers onto their *virtual hosts* — a host is a label on
the workers placed on it — supervises them directly, turns a host loss
into the supervisor's ordinary rollback + re-place path, and collects
fragments, telemetry and per-host FMR back into the run registry.

Partition traffic, same host or not, travels over the process
backend's stream-socket pairs (:mod:`repro.parallel.socket_transport`).
Results stay bit-identical to every other backend.
"""

from .hosts import (DEFAULT_LINK_CLASS, LINK_CLASSES, FarmSpec,
                    HostSpec)
from .placement import Placement, place, place_sim, sim_links
from .manager import FarmBackend, FarmManager, FarmReport

__all__ = [
    "DEFAULT_LINK_CLASS",
    "LINK_CLASSES",
    "FarmSpec",
    "HostSpec",
    "Placement",
    "place",
    "place_sim",
    "sim_links",
    "FarmBackend",
    "FarmManager",
    "FarmReport",
]
