"""Unit tests for the frame message layer: the binary frame codec, the
conduit's one-record-per-frame writes over a real socket pair, and the
worker's receive side (arrival-order inbox, pass-number check, torn
final record).

The packer is lossless by construction; these tests pin the invariants
the backend's bit-identity rests on — exact float/word round trips and
one record per pushed frame.
"""

import multiprocessing as mp
import socket
import struct

import pytest

from repro.errors import SimulationError
from repro.libdn import ChannelSpec, codec_for
from repro.parallel import (Conduit, EffectFrame, FramePacker,
                            ProcessBackend, SocketChannel)
from repro.parallel.socket_transport import DEFAULT_MAX_PENDING
from repro.parallel.worker import PartitionWorker, close_all

from .conftest import build_star_sim


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
    frames arriving at the other."""

    def __init__(self, max_pending=DEFAULT_MAX_PENDING,
                 **conduit_kwargs):
        a, b = socket.socketpair()
        self.packer = _packer()
        self.tx = SocketChannel(a, "peer", max_pending=max_pending)
        self.rx = SocketChannel(b, "peer")
        self.conduit = Conduit(self.tx, self.packer, **conduit_kwargs)

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
        frame = EffectFrame(
            "P0", 7,
            deliveries=[(0, ("P1", "in"), 0xABCDEF, 12.5, 3.25),
                        (1, ("P2", "in"), (1 << 48) - 1, 0.1, 0.0)],
            credits=[(("P1", "in"), 99.75)])
        assert packer.unpack(packer.pack(frame), "P0") == frame

    def test_empty_service_frame_round_trip(self):
        packer = _packer()
        out = packer.unpack(packer.pack(EffectFrame("P0", 8)), "P0")
        assert out.empty and out.pass_no == 8 and out.sender == "P0"

    def test_floats_round_trip_exactly(self):
        packer = _packer()
        ns = 1234.000000000000227373675443232059478759765625
        frame = EffectFrame("P0", 1,
                            deliveries=[(0, ("P1", "in"), 1, ns, ns)],
                            credits=[(("P2", "in"), ns)])
        out = packer.unpack(packer.pack(frame), "P0")
        _, _, word, arrive, rx = out.deliveries[0]
        assert (arrive, rx) == (ns, ns)
        assert out.credits[0] == (("P2", "in"), ns)


class TestFrameConduit:
    def test_one_record_per_pushed_frame(self, wire):
        w = wire()
        w.conduit.push(EffectFrame(
            "peer", 1, deliveries=[(0, ("P1", "in"), 7, 1.0, 0.5)]))
        w.conduit.push(_frame(2))
        first, second = w.received()   # written at push, in order
        assert first.deliveries == [(0, ("P1", "in"), 7, 1.0, 0.5)]
        assert second.pass_no == 2 and second.empty
        assert w.conduit.messages_sent == 2
        assert w.conduit.effects_sent == 1
        w.conduit.flush()               # nothing staged: a no-op
        assert w.received() == []

    def test_full_buffer_abandons_on_wait_step(self, wire):
        """A backpressured channel refuses the record; the conduit
        spins ``wait_step`` until told to abandon the frame."""
        steps = []
        w = wire(max_pending=1 << 12,
                 wait_step=lambda: steps.append(1) or len(steps) >= 3)
        while w.tx.try_write(b"x" * 1024):  # nobody drains the peer
            pass
        w.conduit.push(EffectFrame(
            "P0", 1, deliveries=[(1, ("P2", "in"), 0, 0.0, 0.0)]))
        assert len(steps) == 3  # spun until told to abandon
        assert w.conduit.messages_sent == 0


def _record(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


@pytest.fixture
def base_worker():
    """The star design's ``base`` worker built in this process, with
    the test holding the other end of its pair — the end its one peer
    (``fpga1``) would."""
    sim = build_star_sim(1)
    options = ProcessBackend()._worker_options(sim)
    peer = options["fpga1"]["ends"]["base"]
    ctl, coordinator = mp.Pipe()
    worker = PartitionWorker(sim, "base", 10, 100, ctl, options["base"])
    yield worker, peer
    close_all([ctl, coordinator, *(end for o in options.values()
                                   for end in o["ends"].values())])


class TestWorkerReceive:
    def test_frames_apply_in_arrival_order(self, base_worker):
        worker, peer = base_worker
        pack = worker.packer.pack
        peer.sendall(_record(pack(EffectFrame("fpga1", 1)))
                     + _record(pack(EffectFrame("fpga1", 2))))
        worker._apply_frame("fpga1", 1)
        worker._apply_frame("fpga1", 2)
        assert not worker.inboxes["fpga1"]

    @pytest.mark.parametrize("sent", [[2], [1, 3], [1, 1]],
                             ids=["early", "skipped", "repeated"])
    def test_unexpected_pass_number_is_typed_error(self, base_worker,
                                                   sent):
        worker, peer = base_worker
        for k in sent:
            peer.sendall(_record(
                worker.packer.pack(EffectFrame("fpga1", k))))
        with pytest.raises(SimulationError, match="out of order"):
            for k in range(1, len(sent) + 1):
                worker._apply_frame("fpga1", k)

    def test_torn_final_record_discarded_and_peer_dead(self,
                                                       base_worker):
        worker, peer = base_worker
        whole = _record(worker.packer.pack(EffectFrame("fpga1", 1)))
        torn = _record(worker.packer.pack(EffectFrame("fpga1", 2)))[:-3]
        peer.sendall(whole + torn)
        peer.close()
        chan = worker.conduits["fpga1"].channel
        while not chan.closed:
            worker._drain(chan)
        assert [f.pass_no for f in worker.inboxes["fpga1"]] == [1]
        assert "fpga1" in worker._dead_peers
        assert chan not in worker._wait_conns
