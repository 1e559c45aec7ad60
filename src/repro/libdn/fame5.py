"""FAME-5 style multithreaded LI-BDN host.

FAME-5 threads N duplicate module instances through shared combinational
logic: sequential state is replicated N times and a scheduler picks which
thread advances each host cycle.  Functionally each thread is an
independent simulation of the module; the resource sharing shows up in the
platform layer's LUT estimates and the timing shows up in the harness
(advancing all N threads one target cycle costs N host cycles — the key to
amortizing inter-FPGA latency, Sec. VI-B).

:class:`FAME5Host` presents the same duck-typed interface as
:class:`~repro.libdn.wrapper.LIBDNHost`; its channels are the per-thread
channels of the wrapped module, namespaced ``t<i>:<channel>``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import SimulationError
from ..rtl.engine import Simulator
from .token import ChannelSpec, Token
from .wrapper import LIBDNHost


class FAME5Host:
    """N threaded copies of one module behind namespaced channels."""

    def __init__(self, sims: Sequence[Simulator],
                 in_specs: Sequence[ChannelSpec],
                 out_specs: Sequence[ChannelSpec],
                 name: str = "fame5"):
        if not sims:
            raise SimulationError("FAME5Host needs at least one thread")
        self.name = name
        self.threads: List[LIBDNHost] = [
            LIBDNHost(sim, in_specs, out_specs, name=f"{name}.t{i}")
            for i, sim in enumerate(sims)
        ]

    @classmethod
    def from_hosts(cls, hosts: Sequence[LIBDNHost],
                   name: str = "fame5") -> "FAME5Host":
        """Thread pre-built LI-BDN hosts (they may differ in channel port
        naming, e.g. per-instance punched names, but must be instances of
        the same underlying module for the FAME-5 resource sharing to be
        meaningful)."""
        if not hosts:
            raise SimulationError("FAME5Host needs at least one thread")
        obj = cls.__new__(cls)
        obj.name = name
        obj.threads = list(hosts)
        return obj

    @property
    def target_cycle(self) -> int:
        """Target cycle of the slowest thread (the simulation frontier)."""
        return min(t.target_cycle for t in self.threads)

    # -- channel namespacing ---------------------------------------------------

    @staticmethod
    def _split(channel: str) -> Tuple[int, str]:
        thread_part, _, base = channel.partition(":")
        if not base or not thread_part.startswith("t"):
            raise SimulationError(
                f"FAME5 channel names look like 't3:chan', got {channel!r}"
            )
        return int(thread_part[1:]), base

    def channel_names(self) -> List[str]:
        names = []
        for i, t in enumerate(self.threads):
            names.extend(f"t{i}:{c}" for c in t.in_channels)
            names.extend(f"t{i}:{c}" for c in t.out_channels)
        return names

    def deliver(self, channel: str, token: Token) -> None:
        thread, base = self._split(channel)
        self.threads[thread].deliver(base, token)

    def seed_inputs(self) -> None:
        for t in self.threads:
            t.seed_inputs()

    def drain_outbox(self) -> List[Tuple[str, Token]]:
        out: List[Tuple[str, Token]] = []
        for i, t in enumerate(self.threads):
            out.extend((f"t{i}:{name}", token)
                       for name, token in t.drain_outbox())
        return out

    # -- observability ---------------------------------------------------------

    def attach_tracer(self, tracer, clock=None) -> None:
        """Install a trace sink on every thread (see
        :meth:`~repro.libdn.wrapper.LIBDNHost.attach_tracer`)."""
        for t in self.threads:
            t.attach_tracer(tracer, clock)

    def channel_state(self) -> dict:
        """Per-thread channel snapshots, keyed ``t<i>`` (see
        :meth:`~repro.libdn.wrapper.LIBDNHost.channel_state`)."""
        return {
            "threads": {
                f"t{i}": t.channel_state()
                for i, t in enumerate(self.threads)
            }
        }

    # -- scheduling ----------------------------------------------------------------

    def host_step(self) -> bool:
        """Round-robin scheduler: every thread fires and advances if able."""
        progress = False
        for t in self.threads:
            progress |= t.host_step()
        return progress

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

    def stuck_detail(self) -> str:
        return " || ".join(t.stuck_detail() for t in self.threads)
