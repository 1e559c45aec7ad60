"""Reliable link layer: CRC + sequence numbers + ack/retry.

Sits between a :class:`~repro.harness.partitioned.Link` and its (possibly
fault-injected) transport.  Every token is framed with a CRC-32 and a
per-link sequence number; the receiver acks clean in-order frames and
stays silent on a CRC mismatch, so the sender retries after a timeout
with exponential backoff.  A link flap stalls the sender until the
window closes.

All of this is *priced through the existing timing overlay* rather than
simulated with real traffic: a recovered fault costs the timeout/backoff
wait (pushing the token's arrival time and the link's busy window out),
so injected faults show up as a reduced achieved simulation rate while
the delivered token stream stays bit-identical to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import LinkGiveUpError, TransportError
from ..harness.partitioned import Link, PartitionedSimulation, TransmitResult
from ..libdn.codec import TokenCodec
from ..observability.tracer import TraceEvent
from .faults import (
    AttemptOutcome,
    FaultInjector,
    FaultSpec,
    FaultyTransport,
    corrupt_word,
    word_crc,
)


@dataclass(frozen=True)
class ReliableLinkConfig:
    """Retry policy and framing overhead of the reliable layer.

    ``ack_overhead_ns`` is the per-token cost of the CRC/seq framing and
    the returning ack flit — paid even on a fault-free link (reliability
    is not free).  Retries wait ``timeout_ns * backoff**attempt``,
    clamped to ``max_backoff_ns``.
    """

    ack_overhead_ns: float = 40.0
    timeout_ns: float = 10_000.0
    backoff: float = 2.0
    max_backoff_ns: float = 1_000_000.0
    max_retries: int = 24


def _fresh_stats() -> dict:
    return {
        "delivered": 0,
        "retries": 0,
        "drops_recovered": 0,
        "crc_rejects": 0,
        "flap_stalls": 0,
        "spikes": 0,
        "retry_delay_ns": 0.0,
    }


class ReliableLinkLayer:
    """Per-link ARQ state machine (one instance per hardened link)."""

    def __init__(self, config: Optional[ReliableLinkConfig] = None):
        self.config = config or ReliableLinkConfig()
        self.tx_seq = 0
        self.rx_seq = 0
        self.stats = _fresh_stats()

    # -- transmission ---------------------------------------------------------

    def _retry_wait_ns(self, attempt: int) -> float:
        cfg = self.config
        return min(cfg.timeout_ns * cfg.backoff ** attempt,
                   cfg.max_backoff_ns)

    def transmit(self, link: Link, depart_ns: float, word: int,
                 codec: TokenCodec) -> TransmitResult:
        """Deliver the packed token ``word`` (laid out by the source
        channel's ``codec``) across ``link`` no matter what the injector
        throws at it (up to ``max_retries``), accumulating the retry
        delay into the returned timing."""
        cfg = self.config
        injector: Optional[FaultInjector] = link.hooks.injector
        tracer = link.hooks.tracer
        crc = word_crc(word, codec)
        seq = self.tx_seq
        attempt = 0
        now = depart_ns
        while True:
            out = (injector.outcome(link.key, seq, attempt, now, word,
                                    codec)
                   if injector is not None else AttemptOutcome())
            if out.clean:
                if out.extra_latency_ns:
                    self.stats["spikes"] += 1
                wire = (link.transport.wire_ns(codec.width)
                        + out.extra_latency_ns + cfg.ack_overhead_ns)
                if seq != self.rx_seq:
                    raise TransportError(
                        f"link {link.key}: sequence error (sent "
                        f"seq={seq}, receiver expected {self.rx_seq})")
                self.tx_seq += 1
                self.rx_seq += 1
                self.stats["delivered"] += 1
                retry_delay = now - depart_ns
                self.stats["retry_delay_ns"] += retry_delay
                return TransmitResult(now + wire, word, True,
                                      retries=attempt,
                                      retry_delay_ns=retry_delay)
            next_try = now + self._retry_wait_ns(attempt)
            if out.link_down_until is not None:
                reason, stat = "flap", "flap_stalls"
                # the sender keeps timing out until the link is back up
                next_try = max(out.link_down_until, next_try)
            elif out.corrupt_port is not None:
                received = corrupt_word(word, codec, out.corrupt_port,
                                        out.corrupt_bit)
                if word_crc(received, codec) == crc:  # pragma: no cover
                    # a CRC-32 collision on a single-bit flip cannot
                    # happen, but fail loudly rather than deliver garbage
                    raise TransportError(
                        f"link {link.key}: undetected corruption")
                reason, stat = "crc_reject", "crc_rejects"
            else:
                reason, stat = "drop", "drops_recovered"
            self.stats[stat] += 1
            self.stats["retries"] += 1
            if tracer.enabled:
                tracer.emit(TraceEvent(
                    "link_retry", ts_ns=now, dur_ns=next_try - now,
                    part=link.src[0], scope=link.key,
                    args={"reason": reason, "seq": seq,
                          "attempt": attempt}))
            attempt += 1
            if attempt > cfg.max_retries:
                raise LinkGiveUpError(link.key, seq, attempt)
            now = next_try

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {"tx_seq": self.tx_seq, "rx_seq": self.rx_seq,
                "stats": dict(self.stats)}

    def load_state_dict(self, state: dict) -> None:
        self.tx_seq = state["tx_seq"]
        self.rx_seq = state["rx_seq"]
        self.stats = {**_fresh_stats(), **state["stats"]}


def inject_faults(sim: PartitionedSimulation, spec: FaultSpec) -> None:
    """Wrap every link's transport with a fault injector (no recovery:
    drops deadlock the run, corruption silently wrongs it)."""
    injector = FaultInjector(spec)
    for link in sim.links:
        link.transport = FaultyTransport(link.transport, injector)
        link.refresh_transport_hooks()


def harden_links(sim: PartitionedSimulation,
                 spec: Optional[FaultSpec] = None,
                 config: Optional[ReliableLinkConfig] = None) -> None:
    """Attach a reliable link layer to every link of ``sim``; when a
    :class:`FaultSpec` is given, also inject faults beneath it so the
    layer has something to recover from."""
    if spec is not None:
        inject_faults(sim, spec)
    for link in sim.links:
        link.reliability = ReliableLinkLayer(config)
