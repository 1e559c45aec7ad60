"""FAME-5 style multithreaded LI-BDN host.

FAME-5 threads N duplicate module instances through shared combinational
logic: sequential state is replicated N times and a scheduler picks which
thread advances each host cycle.  Functionally each thread is an
independent simulation of the module; the resource sharing shows up in the
platform layer's LUT estimates and the timing shows up in the harness
(advancing all N threads one target cycle costs N host cycles — the key to
amortizing inter-FPGA latency, Sec. VI-B).

:class:`FAME5Host` is the threads and their checkpoint, nothing else:
a :class:`~repro.harness.partitioned.Partition` flattens the threads
into units whose channels it namespaces ``t<i>:<channel>`` and steps
each one like a plain :class:`~repro.libdn.wrapper.LIBDNHost`.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import SimulationError
from .wrapper import LIBDNHost


class FAME5Host:
    """N threaded copies of one module, each a pre-built LI-BDN host."""

    def __init__(self, threads: List[LIBDNHost], name: str):
        self.name = name
        self.threads = threads

    @classmethod
    def from_hosts(cls, hosts: Sequence[LIBDNHost],
                   name: str = "fame5") -> "FAME5Host":
        """Thread pre-built LI-BDN hosts (they may differ in channel port
        naming, e.g. per-instance punched names, but must be instances of
        the same underlying module for the FAME-5 resource sharing to be
        meaningful)."""
        if not hosts:
            raise SimulationError("FAME5Host needs at least one thread")
        return cls(list(hosts), name)

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Capture every thread's state (see
        :meth:`~repro.libdn.wrapper.LIBDNHost.state_dict`)."""
        return {"threads": [t.state_dict() for t in self.threads]}

    def load_state_dict(self, state: dict) -> None:
        saved = state["threads"]
        if len(saved) != len(self.threads):
            raise SimulationError(
                f"{self.name}: checkpoint has {len(saved)} threads, "
                f"host has {len(self.threads)}")
        for thread, thread_state in zip(self.threads, saved):
            thread.load_state_dict(thread_state)
