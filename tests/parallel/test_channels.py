"""Unit tests for the frame/credit message layer: the binary frame
codec, the conduit's batching / window / ack accounting over a real
socket pair, and the inbox.

The packer is lossless by construction; these tests pin the invariants
the backend's bit-identity rests on — exact float/word round trips and
one record per flushed batch.
"""

import socket

import pytest

from repro.libdn import ChannelSpec, codec_for
from repro.parallel import (Conduit, EffectFrame, FrameInbox,
                            FramePacker, SocketChannel)
from repro.parallel.socket_transport import DEFAULT_MAX_PENDING


def _frame(k, deliveries=(), credits=()):
    return EffectFrame("peer", k, list(deliveries), list(credits))


def _packer():
    spec_a = ChannelSpec.make("in", [("x", 8), ("y", 16)])
    spec_b = ChannelSpec.make("in", [("v", 48)])

    class _Link:
        def __init__(self, dst):
            self.dst = dst

    class _Sim:
        links = [_Link(("P1", "in")), _Link(("P2", "in"))]
        _in_channel_by_key = {
            ("P1", "in"): type("C", (), {"codec": codec_for(spec_a)})(),
            ("P2", "in"): type("C", (), {"codec": codec_for(spec_b)})(),
        }

    return FramePacker.from_sim(_Sim())


class _Wire:
    """A conduit writing into one end of a socket pair, and the decoded
    records arriving at the other."""

    def __init__(self, max_pending=DEFAULT_MAX_PENDING,
                 **conduit_kwargs):
        a, b = socket.socketpair()
        self.packer = _packer()
        self.tx = SocketChannel(a, "peer", max_pending=max_pending)
        self.rx = SocketChannel(b, "peer")
        self.conduit = Conduit(self.tx, "peer", self.packer,
                               **conduit_kwargs)

    def received(self):
        return [self.packer.unpack(record, "peer")
                for record in self.rx.drain()]

    def close(self):
        self.tx.close()
        self.rx.close()


@pytest.fixture
def wire():
    wires = []

    def make(**kwargs):
        wires.append(_Wire(**kwargs))
        return wires[-1]

    yield make
    for w in wires:
        w.close()


class TestEffectFrame:
    def test_empty_detection(self):
        assert _frame(1).empty
        assert not _frame(1, deliveries=[(0, ("a", "in"), {}, 0.0, 0.0)]).empty
        assert not _frame(1, credits=[(("a", "in"), 5.0)]).empty


class TestFramePacker:
    def test_frames_round_trip(self):
        packer = _packer()
        frames = [
            EffectFrame("P0", 7,
                        deliveries=[(0, ("P1", "in"), 0xABCDEF, 12.5,
                                     3.25),
                                    (1, ("P2", "in"),
                                     (1 << 48) - 1, 0.1, 0.0)],
                        credits=[(("P1", "in"), 99.75)]),
            EffectFrame("P0", 8),  # empty service frame
        ]
        kind, out, ack = packer.unpack(
            packer.pack_frames(frames, ack=41), "P0")
        assert kind == "frames" and ack == 41
        assert len(out) == 2
        assert out[0].sender == "P0" and out[0].pass_no == 7
        assert out[0].deliveries == frames[0].deliveries
        assert out[0].credits == frames[0].credits
        assert out[1].empty and out[1].pass_no == 8

    def test_floats_round_trip_exactly(self):
        packer = _packer()
        ns = 1234.000000000000227373675443232059478759765625
        frames = [EffectFrame("P0", 1,
                              deliveries=[(0, ("P1", "in"), 1, ns, ns)],
                              credits=[(("P2", "in"), ns)])]
        _, out, _ = packer.unpack(packer.pack_frames(frames, 0), "P0")
        _, _, word, arrive, rx = out[0].deliveries[0]
        assert (arrive, rx) == (ns, ns)
        assert out[0].credits[0] == (("P2", "in"), ns)

    def test_ack_record(self):
        packer = _packer()
        assert packer.unpack(packer.pack_ack(17), "P0") == ("ack", 17)


class TestFrameConduit:
    def test_batches_until_flush_interval(self, wire):
        w = wire(flush_interval=4)
        for k in range(1, 4):
            w.conduit.push(_frame(k))
        assert w.received() == []       # 3 of 4 buffered
        w.conduit.push(_frame(4))
        (record,) = w.received()        # full batch flushed as ONE record
        kind, frames, ack = record
        assert kind == "frames"
        assert [f.pass_no for f in frames] == [1, 2, 3, 4]
        assert w.conduit.messages_sent == 1

    def test_explicit_flush_drains_partial_batch(self, wire):
        w = wire(flush_interval=16)
        w.conduit.push(_frame(1))
        w.conduit.flush()
        assert len(w.received()) == 1
        w.conduit.flush()                # idempotent on empty buffer
        assert w.received() == []
        assert w.conduit.messages_sent == 1

    def test_piggybacked_ack_uses_hook(self, wire):
        w = wire(flush_interval=1)
        w.conduit.ack_source = lambda: 42
        w.conduit.push(_frame(1))
        assert w.received()[0][2] == 42

    def test_window_blocks_unacked_runahead(self, wire):
        conduit = wire(flush_interval=2, window=8).conduit
        assert conduit.window_open(8)
        assert not conduit.window_open(9)
        conduit.note_ack(5)
        assert conduit.window_open(13)
        conduit.note_ack(3)              # stale acks never move backwards
        assert conduit.acked_through == 5

    def test_flush_interval_must_be_positive(self, wire):
        with pytest.raises(ValueError):
            wire(flush_interval=0)

    def test_flush_and_window_accounting(self, wire):
        w = wire(flush_interval=2)
        w.conduit.ack_source = lambda: 5
        w.conduit.push(EffectFrame(
            "P0", 1, deliveries=[(0, ("P1", "in"), 7, 1.0, 0.5)]))
        w.conduit.push(EffectFrame("P0", 2))
        ((kind, frames, ack),) = w.received()
        assert kind == "frames" and ack == 5
        assert frames[0].deliveries == [(0, ("P1", "in"), 7, 1.0, 0.5)]
        assert w.conduit.effects_sent == 1
        assert w.conduit.pushed_through == 2
        assert not w.conduit.window_open(w.conduit.window + 1)
        w.conduit.note_ack(2)
        assert w.conduit.window_open(w.conduit.window + 1)

    def test_full_buffer_abandons_on_wait_step(self, wire):
        """A backpressured channel refuses the record; the conduit
        spins ``wait_step`` until told to abandon the batch."""
        steps = []
        w = wire(max_pending=1 << 12, flush_interval=1,
                 wait_step=lambda: steps.append(1) or len(steps) >= 3)
        while w.tx.try_write(b"x" * 1024):  # nobody drains the peer
            pass
        w.conduit.push(EffectFrame(
            "P0", 1, deliveries=[(1, ("P2", "in"), 0, 0.0, 0.0)]))
        assert len(steps) == 3  # spun until told to abandon
        assert w.conduit.buffer == []
        assert w.conduit.messages_sent == 0

    def test_send_ack_round_trips(self, wire):
        w = wire()
        w.conduit.send_ack(9)
        assert w.received() == [("ack", 9)]


class TestFrameInbox:
    def test_offer_take_tracks_applied_watermark(self):
        inbox = FrameInbox("peer")
        inbox.offer([_frame(1), _frame(2)])
        assert inbox.has(1) and inbox.has(2) and not inbox.has(3)
        assert inbox.take(1).pass_no == 1
        assert inbox.applied_through == 1
        inbox.take(2)
        assert inbox.applied_through == 2
        assert not inbox.has(1)

    def test_standalone_ack_owed_when_reverse_idle(self):
        inbox = FrameInbox("peer", ack_every=3)
        inbox.offer([_frame(k) for k in range(1, 4)])
        inbox.take(1)
        inbox.take(2)
        assert inbox.standalone_ack_due() is None
        inbox.take(3)
        assert inbox.standalone_ack_due() == 3
        inbox.note_ack_sent(3)
        assert inbox.standalone_ack_due() is None
