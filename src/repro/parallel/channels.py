"""Inter-worker message layer for the process backend.

Workers exchange *effect frames*: one frame per (sender, pass) carrying
every cross-partition side effect that sender's pass produced for one
peer — token deliveries (with their modelled arrival times) and
consume-time records (the credit returns the peer's senders price their
credit stalls with).  A frame is the unit of ordering *and* the unit on
the wire: a :class:`Conduit` writes each one as a single
:class:`FramePacker`-coded record when the pass that produced it ends,
and the receiver consumes records in arrival order.

There is no frame-level flow control: the wavefront schedule (see
``worker``) never lets a stream run more than one pass ahead of its
reader.  The flow control the target sees is the LI-BDN credit on the
*token* (``channel_capacity``), priced by the timing overlay.

The bytes travel over the stream sockets of ``socket_transport``.
Control-plane messages (worker <-> coordinator) are plain tuples whose
first element names the kind; see the module docstrings of
``worker``/``coordinator`` for the protocol.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

#: (link index, dst key, packed token word, arrival ns, rx serdes ns)
Delivery = Tuple[int, Tuple[str, str], int, float, float]
#: (dst key, consume-time ns)
Credit = Tuple[Tuple[str, str], float]


@dataclass
class EffectFrame:
    """Every cross-partition effect of one sender pass, for one peer."""

    sender: str
    pass_no: int
    deliveries: List[Delivery] = field(default_factory=list)
    credits: List[Credit] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.deliveries and not self.credits


@dataclass
class MetricFrame:
    """Compact telemetry piggybacked on a worker's ``progress``
    control message (no extra pipes).

    Carries the sample points the worker's cycle-keyed sampler emitted
    since its previous report, plus the partition's current position.
    The coordinator uses these only to render live status (``repro
    watch``); the *authoritative* series ships once, in the worker's
    final state fragment, which is what gets merged into the parent's
    telemetry — so live reporting can never perturb the bit-identical
    result.
    """

    part: str
    frontier: int
    busy_ns: float
    #: new (target cycle, {metric: value}) points since the last frame
    samples: List[tuple] = field(default_factory=list)


_FRAME_HDR = struct.Struct("<QII")    # pass_no, n_deliveries, n_credits
_DELIV_HDR = struct.Struct("<Idd")    # link index, arrive ns, rx ns
_CREDIT = struct.Struct("<Id")        # credit-key index, consume ns


class FramePacker:
    """Topology-keyed binary codec: one record is one frame.

    Built once by the coordinator from the simulation's link list (the
    same object every forked worker holds), so both ends agree on the
    link indices, the per-link token byte widths (from the destination
    channel's :class:`~repro.libdn.codec.TokenCodec`), and the table
    that maps credit keys to small integers.  Token payloads are the
    packed channel words as fixed-width little-endian byte strings;
    floats travel as IEEE-754 doubles (``<d``), which round-trip
    exactly, so the wire is lossless by construction.
    """

    def __init__(self, link_nbytes: List[int],
                 link_dst: List[Tuple[str, str]],
                 credit_keys: List[Tuple[str, str]]):
        self.link_nbytes = link_nbytes
        self.link_dst = link_dst
        self.credit_keys = credit_keys
        self.credit_index = {k: i for i, k in enumerate(credit_keys)}

    @classmethod
    def from_sim(cls, sim) -> "FramePacker":
        link_nbytes = [sim._in_channel_by_key[link.dst].codec.nbytes
                       for link in sim.links]
        link_dst = [link.dst for link in sim.links]
        credit_keys = sorted({link.dst for link in sim.links})
        return cls(link_nbytes, link_dst, credit_keys)

    def pack(self, frame: EffectFrame) -> bytes:
        parts = [_FRAME_HDR.pack(
            frame.pass_no, len(frame.deliveries), len(frame.credits))]
        nbytes = self.link_nbytes
        for idx, _dst, word, arrive_ns, rx_ns in frame.deliveries:
            parts.append(_DELIV_HDR.pack(idx, arrive_ns, rx_ns))
            parts.append(word.to_bytes(nbytes[idx], "little"))
        credit_index = self.credit_index
        for key, ns in frame.credits:
            parts.append(_CREDIT.pack(credit_index[key], ns))
        return b"".join(parts)

    def unpack(self, payload: bytes, sender: str) -> EffectFrame:
        pass_no, n_deliv, n_credit = _FRAME_HDR.unpack_from(payload, 0)
        off = _FRAME_HDR.size
        nbytes = self.link_nbytes
        link_dst = self.link_dst
        deliveries = []
        for _ in range(n_deliv):
            idx, arrive_ns, rx_ns = _DELIV_HDR.unpack_from(payload, off)
            off += _DELIV_HDR.size
            n = nbytes[idx]
            word = int.from_bytes(payload[off:off + n], "little")
            off += n
            deliveries.append((idx, link_dst[idx], word,
                               arrive_ns, rx_ns))
        credit_keys = self.credit_keys
        credits = []
        for _ in range(n_credit):
            key_idx, ns = _CREDIT.unpack_from(payload, off)
            off += _CREDIT.size
            credits.append((credit_keys[key_idx], ns))
        return EffectFrame(sender=sender, pass_no=pass_no,
                           deliveries=deliveries, credits=credits)


class Conduit:
    """Outgoing half of one worker->peer frame stream over one
    :class:`~repro.parallel.socket_transport.SocketChannel`: ``push``
    is called once per pass and writes that pass's frame as one record.

    The channel may refuse a record (a full staging buffer atop a full
    kernel buffer).  A refused write blocks *politely*: the
    caller-supplied ``wait_step`` must keep the worker live (drain
    incoming channels, service the control connection, surface aborts) and
    returns True when the write should be abandoned instead of retried
    — the peer is dead, or the run is finalizing past the stop fence
    and the remaining frames are empty service frames nobody will read.
    """

    def __init__(self, channel, packer: FramePacker,
                 wait_step: Optional[Callable[[], bool]] = None):
        self.channel = channel
        self.packer = packer
        self.wait_step = wait_step or (lambda: False)
        #: records actually written — one per frame
        self.messages_sent = 0
        #: individual effects (deliveries + credits) pushed — per-token
        #: messaging would pay one record each
        self.effects_sent = 0

    def push(self, frame: EffectFrame) -> None:
        self.effects_sent += len(frame.deliveries) + len(frame.credits)
        payload = self.packer.pack(frame)
        while not self.channel.try_write(payload):
            if self.wait_step():
                return  # abandoned: receiver no longer consumes
        self.messages_sent += 1

    def flush(self) -> None:
        """Push bytes a backpressured write left staged: blocked
        workers call this before waiting, which is what drains the
        backlog and keeps the wavefront live."""
        if not self.channel.closed:
            self.channel.try_flush()
