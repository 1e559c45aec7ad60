"""Typed attachment points for the partitioned harness.

Links and partitions accumulate optional behaviours — reliable link
layers, fault injectors, shared switch fabrics, tracers.  Instead of
ad-hoc ``Optional[object]`` fields and ``getattr`` probing at simulation
time, each carrier owns one hook container with typed slots; the
protocols below document exactly what each slot must provide.

Transport-derived hooks (``injector``, ``switch``) are *resolved once*
— at link construction and again whenever the transport is swapped
(:meth:`~repro.harness.partitioned.Link.refresh_transport_hooks`) — so
the per-token hot path does plain attribute reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol

from ..observability.fmr import FMRSpans
from ..observability.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..libdn.codec import TokenCodec
    from .partitioned import Link, TransmitResult


class ReliabilityLayer(Protocol):
    """What a reliable link layer must provide (see
    :class:`~repro.reliability.link.ReliableLinkLayer`).  A token
    crosses the hook path the way it crosses a clean wire: as the
    packed ``word`` of the source channel, with that channel's
    ``codec`` for anything that needs to find a port in it."""

    stats: dict

    def transmit(self, link: "Link", depart_ns: float, word: int,
                 codec: "TokenCodec") -> "TransmitResult": ...

    def state_dict(self) -> dict: ...

    def load_state_dict(self, state: dict) -> None: ...


class TransportInjector(Protocol):
    """A transport-attached fault injector (see
    :class:`~repro.reliability.faults.FaultInjector`); same packed
    ``word`` + source ``codec`` token plane as the layer above."""

    def outcome(self, link_key: str, seq: int, attempt: int,
                depart_ns: float, word: int, codec: "TokenCodec"): ...

    def raw_transmit(self, link: "Link", depart_ns: float, word: int,
                     codec: "TokenCodec") -> "TransmitResult": ...


class SwitchFabric(Protocol):
    """A shared store-and-forward backplane (see
    :class:`~repro.platform.ethernet.SwitchFabric`)."""

    next_free: float
    tokens: int

    def traverse(self, depart_ns: float, width_bits: int) -> float: ...


@dataclass
class LinkHooks:
    """Every optional behaviour attached to one link.

    ``reliability`` is attached by
    :func:`~repro.reliability.link.harden_links`; ``injector`` and
    ``switch`` are resolved from the link's transport; ``tracer`` is
    installed by the owning simulation.
    """

    reliability: Optional[ReliabilityLayer] = None
    injector: Optional[TransportInjector] = None
    switch: Optional[SwitchFabric] = None
    tracer: Tracer = NULL_TRACER


@dataclass
class PartitionHooks:
    """Per-partition attachments: the trace sink and the FMR span
    accumulator the timing overlay charges every action to."""

    tracer: Tracer = NULL_TRACER
    spans: FMRSpans = field(default_factory=FMRSpans)
