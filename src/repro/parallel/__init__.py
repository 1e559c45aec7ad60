"""Distributed execution: one OS process per partition, real channels.

FireAxe's premise is that partitions run *concurrently* on separate
FPGAs; this package gives the reproduction the same shape in software.
Each partition's LI-BDN host runs in its own forked worker process
(``worker``), cross-partition tokens travel as effect frames — one
per peer per pass, which is all the lock-step wavefront can have in
flight (``channels``) — struct-packed into records over one stream
socket pair per linked partition pair, made before the fork
(``socket_transport`` — the one data plane, within a host and across
farm hosts), a coordinator spawns/supervises the workers and merges
their state fragments back into the parent simulation
(``coordinator``), and every child — partition worker, service job or
fanned-out experiment — is started by one spawner under one close
rule (``pool``).

The backend is *bit-deterministic*: ``SimulationResult.detail`` (and
all merged simulation state that feeds checkpoints) is identical to the
in-process harness — see DESIGN.md for the wavefront schedule that
makes this true by construction.  Select it per-call
(``sim.run(..., backend=...)`` via :func:`ProcessBackend.run`), or
globally with ``REPRO_BACKEND=process`` (unknown names raise
:class:`~repro.errors.UnknownBackendError`).
"""

from ..harness.partitioned import (BACKEND_ALIASES, VALID_BACKENDS,
                                   normalize_backend)
from .coordinator import (ProcessBackend, auto_backend, fork_available,
                          unsupported_reason)
from .channels import EffectFrame, FramePacker
from .socket_transport import SocketChannel
from .pool import fanout

__all__ = [
    "BACKEND_ALIASES",
    "VALID_BACKENDS",
    "ProcessBackend",
    "auto_backend",
    "fork_available",
    "normalize_backend",
    "unsupported_reason",
    "EffectFrame",
    "FramePacker",
    "SocketChannel",
    "fanout",
]
