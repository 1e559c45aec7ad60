"""Typed attachment points for the partitioned harness.

Links and partitions accumulate optional behaviours — reliable link
layers, fault injectors, shared switch fabrics, tracers.  Instead of
ad-hoc ``Optional[object]`` fields and ``getattr`` probing at simulation
time, each carrier owns one hook container with typed slots; the
protocols below document exactly what each slot must provide.

What a link's transport carries (a fault ``injector``, a shared
``switch``) is not a slot: :class:`~repro.harness.partitioned.Link`
reads it off ``link.transport`` wherever it is used, so assigning a
new transport is all it takes to swap either — the compiled plane
already rebuilds when a transport changes, and the per-token hot path
binds what the schedule resolved.
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


@dataclass(slots=True)
class LinkHooks:
    """Every optional behaviour attached to one link.

    ``reliability`` is attached by
    :func:`~repro.reliability.link.harden_links`; ``tracer`` is
    installed by the owning simulation.  The transport's injector and
    switch are read off the transport (``Link.injector``,
    ``Link.switch``); slotted, so assigning either here raises instead
    of attaching nothing.
    """

    reliability: Optional[ReliabilityLayer] = None
    tracer: Tracer = NULL_TRACER


@dataclass
class PartitionHooks:
    """Per-partition attachments: the trace sink and the FMR span
    accumulator the timing overlay charges every action to."""

    tracer: Tracer = NULL_TRACER
    spans: FMRSpans = field(default_factory=FMRSpans)
