"""Deterministic transport fault injection.

A :class:`FaultInjector` wraps any :class:`~repro.platform.transport.
TransportModel` (via :class:`FaultyTransport`) and decides, per
transmission attempt, whether the token is dropped, bit-corrupted,
latency-spiked, or blocked by a link flap.  The schedule is derived
purely from ``(seed, link, seq, attempt)`` — no hidden RNG state — so:

* two runs with the same seed see byte-identical fault sequences,
* a checkpointed run replays exactly after restore (nothing to save),
* every link sees an independent stream (the link identity is mixed in).

Link flaps are windows in *link time*: an attempt departing inside
``[start_ns, start_ns + duration_ns)`` fails outright and the earliest
useful retry is when the window closes — matching a cable pull or an
Aurora channel-down event rather than a per-token coin flip.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from ..harness.partitioned import Link, TransmitResult
from ..libdn.codec import TokenCodec
from ..platform.transport import TransportModel


def word_crc(word: int, codec: TokenCodec) -> int:
    """CRC-32 of one packed token as it crosses the wire: the word's
    fixed-width little-endian bytes."""
    return zlib.crc32(word.to_bytes(codec.nbytes, "little"))


def corrupt_word(word: int, codec: TokenCodec, port: str,
                 bit: int) -> int:
    """Return ``word`` with bit ``bit`` of ``port`` flipped.  The flip
    is masked to the port at its codec offset, so it can never spill
    into a neighbouring port (a flip past the port's width is lost, as
    it would be when the receiver re-masks the field)."""
    offset, mask = {n: (o, m) for n, o, m in codec.fields}[port]
    return word ^ (((1 << bit) & mask) << offset)


@dataclass(frozen=True)
class FaultSpec:
    """Seeded description of a degraded link.

    Rates are per transmission attempt and are disjoint (at most one of
    drop/corrupt/spike per attempt); ``flaps`` are ``(start_ns,
    duration_ns)`` outage windows that apply to every link.
    """

    seed: int = 0
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    spike_rate: float = 0.0
    spike_ns: float = 20_000.0
    flaps: Tuple[Tuple[float, float], ...] = ()

    @property
    def fault_rate(self) -> float:
        return self.drop_rate + self.corrupt_rate + self.spike_rate


@dataclass(frozen=True)
class AttemptOutcome:
    """What the channel did to one transmission attempt."""

    dropped: bool = False
    corrupt_port: Optional[str] = None
    corrupt_bit: int = 0
    extra_latency_ns: float = 0.0
    link_down_until: Optional[float] = None

    @property
    def clean(self) -> bool:
        return (not self.dropped and self.corrupt_port is None
                and self.link_down_until is None)


class FaultInjector:
    """Maps ``(link, seq, attempt, time)`` to an :class:`AttemptOutcome`."""

    def __init__(self, spec: FaultSpec):
        self.spec = spec

    def outcome(self, link_key: str, seq: int, attempt: int,
                depart_ns: float, word: int,
                codec: TokenCodec) -> AttemptOutcome:
        spec = self.spec
        for start, duration in spec.flaps:
            if start <= depart_ns < start + duration:
                return AttemptOutcome(link_down_until=start + duration)
        # seeding Random with a string hashes it through sha512, which is
        # stable across processes (unlike hash() of a tuple)
        rng = random.Random(f"{spec.seed}/{link_key}/{seq}/{attempt}")
        roll = rng.random()
        if roll < spec.drop_rate:
            return AttemptOutcome(dropped=True)
        if roll < spec.drop_rate + spec.corrupt_rate:
            ports = sorted(codec.spec.port_names)
            return AttemptOutcome(
                corrupt_port=ports[rng.randrange(len(ports))],
                corrupt_bit=0)
        if roll < spec.fault_rate:
            return AttemptOutcome(
                extra_latency_ns=spec.spike_ns * (0.5 + rng.random()))
        return AttemptOutcome()

    def raw_transmit(self, link: Link, depart_ns: float, word: int,
                     codec: TokenCodec) -> TransmitResult:
        """Single-shot transmission with no recovery: drops and flaps
        lose the token (the LI-BDN downstream will starve and the run
        deadlocks), corruption delivers a wrong payload.  This is the
        failure mode the reliable link layer exists to prevent."""
        out = self.outcome(link.key, link.tokens, 0, depart_ns, word,
                           codec)
        if out.dropped or out.link_down_until is not None:
            return TransmitResult(depart_ns, word, False)
        if out.corrupt_port is not None:
            word = corrupt_word(word, codec, out.corrupt_port,
                                out.corrupt_bit)
        arrive = (depart_ns + link.transport.wire_ns(codec.width)
                  + out.extra_latency_ns)
        return TransmitResult(arrive, word, True)


class FaultyTransport:
    """A :class:`TransportModel` stand-in that injects faults.

    Delegates every timing attribute to the wrapped model (including
    ``switch`` for switched Ethernet), so the clean-path cost model is
    untouched; the harness and reliable link layer discover the injector
    through the ``injector`` attribute.
    """

    def __init__(self, base: TransportModel, injector: FaultInjector):
        self.base = base
        self.injector = injector
        self.name = f"faulty({base.name})"

    def __getattr__(self, attr: str):
        return getattr(self.base, attr)

    def __repr__(self) -> str:
        return f"FaultyTransport({self.base!r}, {self.injector.spec!r})"
