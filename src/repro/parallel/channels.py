"""Inter-worker message layer for the process backend.

Workers exchange *effect frames*: one frame per (sender, pass) carrying
every cross-partition side effect that sender's pass produced for one
peer — token deliveries (with their modelled arrival times) and
consume-time records (the credit returns the peer's senders price their
credit stalls with).  A frame is the unit of ordering *and* the unit on
the wire: the worker writes each one as a single
:class:`FramePacker`-coded record when the pass that produced it ends,
and the receiver consumes records in arrival order.

There is no frame-level flow control: the wavefront schedule (see
``worker``) never lets a stream run more than one frame ahead of its
reader, so a write never finds an earlier frame still staged.  The
flow control the target sees is the LI-BDN credit on the *token*
(``channel_capacity``), priced by the timing overlay.

The bytes travel over the stream sockets of ``socket_transport``.
Control-plane messages (worker <-> coordinator) are plain tuples whose
first element names the kind; see the module docstrings of
``worker``/``coordinator`` for the protocol.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

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
