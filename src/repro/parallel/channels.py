"""Inter-worker message layer for the process backend.

Workers exchange *effect frames*: one frame per (sender, pass) carrying
every cross-partition side effect that sender's pass produced for one
peer — token deliveries (with their modelled arrival times) and
consume-time records (the credit returns the peer's senders price their
credit stalls with).  Frames are the unit of ordering; bytes-on-the-wire
are batched:

* a :class:`Conduit` buffers outgoing frames and flushes them as one
  :class:`FramePacker`-coded binary record every ``flush_interval``
  passes (or sooner, when the worker is about to block — a blocked
  worker always flushes first, which keeps the wavefront live),
* credit-based flow control bounds run-ahead: a sender may have at most
  ``window`` un-acknowledged passes outstanding per peer; receivers
  acknowledge the highest pass they have *applied* (piggybacked on
  their own frames, or standalone when the reverse direction is quiet).

The frame schedule — which pass of which peer a worker must apply
before its own pass ``k`` — lives in the worker loop; this module only
moves and accounts frames.  The bytes themselves travel over the stream
sockets of ``socket_transport``.

Control-plane messages (worker <-> coordinator) are plain tuples whose
first element names the kind; see the module docstrings of
``worker``/``coordinator`` for the protocol.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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


#: record kinds
_KIND_FRAMES = 1
_KIND_ACK = 2

_REC_HDR = struct.Struct("<BQI")      # kind, ack/through, n_frames
_FRAME_HDR = struct.Struct("<QII")    # pass_no, n_deliveries, n_credits
_DELIV_HDR = struct.Struct("<Idd")    # link index, arrive ns, rx ns
_CREDIT = struct.Struct("<Id")        # credit-key index, consume ns


class FramePacker:
    """Topology-keyed binary codec for frame batches.

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

    def pack_frames(self, frames: List[EffectFrame], ack: int) -> bytes:
        parts = [_REC_HDR.pack(_KIND_FRAMES, ack, len(frames))]
        nbytes = self.link_nbytes
        credit_index = self.credit_index
        for frame in frames:
            parts.append(_FRAME_HDR.pack(
                frame.pass_no, len(frame.deliveries), len(frame.credits)))
            for idx, _dst, word, arrive_ns, rx_ns in frame.deliveries:
                parts.append(_DELIV_HDR.pack(idx, arrive_ns, rx_ns))
                parts.append(word.to_bytes(nbytes[idx], "little"))
            for key, ns in frame.credits:
                parts.append(_CREDIT.pack(credit_index[key], ns))
        return b"".join(parts)

    def pack_ack(self, through_pass: int) -> bytes:
        return _REC_HDR.pack(_KIND_ACK, through_pass, 0)

    def unpack(self, payload: bytes, sender: str):
        """Decode one record: ``("frames", [EffectFrame...], ack)`` or
        ``("ack", through)``."""
        kind, ack, n_frames = _REC_HDR.unpack_from(payload, 0)
        if kind == _KIND_ACK:
            return ("ack", ack)
        off = _REC_HDR.size
        nbytes = self.link_nbytes
        link_dst = self.link_dst
        credit_keys = self.credit_keys
        frames: List[EffectFrame] = []
        for _ in range(n_frames):
            pass_no, n_deliv, n_credit = _FRAME_HDR.unpack_from(payload, off)
            off += _FRAME_HDR.size
            deliveries = []
            for _ in range(n_deliv):
                idx, arrive_ns, rx_ns = _DELIV_HDR.unpack_from(payload, off)
                off += _DELIV_HDR.size
                n = nbytes[idx]
                word = int.from_bytes(payload[off:off + n], "little")
                off += n
                deliveries.append((idx, link_dst[idx], word,
                                   arrive_ns, rx_ns))
            credits = []
            for _ in range(n_credit):
                key_idx, ns = _CREDIT.unpack_from(payload, off)
                off += _CREDIT.size
                credits.append((credit_keys[key_idx], ns))
            frames.append(EffectFrame(sender=sender, pass_no=pass_no,
                                      deliveries=deliveries,
                                      credits=credits))
        return ("frames", frames, ack)


class Conduit:
    """Outgoing half of one worker->peer frame stream: the batching
    buffer and the flow-control window over one
    :class:`~repro.parallel.socket_transport.SocketChannel`.

    ``push`` is called once per pass; ``flush`` packs the buffered
    frames into one record.  ``ack`` piggybacks the highest peer pass
    this worker has applied (maintained by the inbox), so steady-state
    traffic needs no standalone acknowledgements.

    The channel may refuse a record (a full staging buffer atop a full
    kernel buffer).  A refused write blocks *politely*: the
    caller-supplied ``wait_step`` must keep the worker live (drain
    incoming channels, service the control pipe, surface aborts) and
    returns True when the write should be abandoned instead of retried
    — the peer is dead, or the run is finalizing past the stop fence
    and the remaining frames are empty service frames nobody will read.
    """

    def __init__(self, channel, peer: str, packer: FramePacker,
                 flush_interval: int = 16,
                 window: Optional[int] = None,
                 wait_step: Optional[Callable[[], bool]] = None):
        if flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        self.channel = channel
        self.peer = peer
        self.packer = packer
        self.flush_interval = flush_interval
        self.window = window if window is not None \
            else max(2 * flush_interval, 4)
        self.wait_step = wait_step or (lambda: False)
        self.buffer: List[EffectFrame] = []
        #: highest own pass the peer has acknowledged applying
        self.acked_through = 0
        #: highest own pass pushed (buffered or sent)
        self.pushed_through = 0
        #: hook: returns the ack to piggyback (applied-through for peer)
        self.ack_source = lambda: 0
        #: records actually written (for the batching benchmark)
        self.messages_sent = 0
        #: individual effects (deliveries + credits) those records
        #: carried — per-token messaging would pay one record each
        self.effects_sent = 0

    def window_open(self, pass_no: int) -> bool:
        """May a frame for ``pass_no`` enter flight without waiting?"""
        return pass_no - self.acked_through <= self.window

    def push(self, frame: EffectFrame) -> None:
        """Buffer one pass frame; flushes on a full batch.  The caller
        must have confirmed :meth:`window_open` (blocking and draining
        acknowledgements first if it was not)."""
        self.buffer.append(frame)
        self.pushed_through = frame.pass_no
        self.effects_sent += len(frame.deliveries) + len(frame.credits)
        if len(self.buffer) >= self.flush_interval:
            self.flush()

    def flush(self) -> None:
        if self.buffer:
            batch = self.buffer
            self.buffer = []
            self._write_blocking(
                self.packer.pack_frames(batch, self.ack_source()))
        # a flush with nothing (newly) buffered still pushes staged
        # bytes: blocked workers call flush before waiting, which is
        # what drains the backlog of a previously backpressured write
        if not self.channel.closed:
            self.channel.try_flush()

    def note_ack(self, through_pass: int) -> None:
        if through_pass > self.acked_through:
            self.acked_through = through_pass

    def send_ack(self, through_pass: int) -> None:
        """Write a standalone acknowledgement (no frames attached)."""
        self._write_blocking(self.packer.pack_ack(through_pass))

    def _write_blocking(self, payload: bytes) -> None:
        while not self.channel.try_write(payload):
            if self.wait_step():
                return  # abandoned: receiver no longer consumes
        self.messages_sent += 1


class FrameInbox:
    """Incoming half of one peer->worker frame stream.

    Holds frames keyed by pass number until the worker's schedule asks
    for them, and decides when a standalone acknowledgement is owed
    (the reverse conduit may be idle — e.g. a finished worker serving
    frames to a still-running peer).
    """

    def __init__(self, peer: str, ack_every: int = 8):
        self.peer = peer
        self.pending: Dict[int, EffectFrame] = {}
        self.applied_through = 0
        self.ack_every = max(1, ack_every)
        self._last_ack_sent = 0

    def offer(self, frames: List[EffectFrame]) -> None:
        for frame in frames:
            self.pending[frame.pass_no] = frame

    def has(self, pass_no: int) -> bool:
        return pass_no in self.pending

    def take(self, pass_no: int) -> EffectFrame:
        frame = self.pending.pop(pass_no)
        if frame.pass_no > self.applied_through:
            self.applied_through = frame.pass_no
        return frame

    def standalone_ack_due(self) -> Optional[int]:
        """Pass number to acknowledge out-of-band, or None."""
        if self.applied_through - self._last_ack_sent >= self.ack_every:
            return self.applied_through
        return None

    def note_ack_sent(self, through_pass: int) -> None:
        if through_pass > self._last_ack_sent:
            self._last_ack_sent = through_pass
