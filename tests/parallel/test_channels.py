"""Unit tests for the frame message layer: the binary frame codec, the
worker's one-record-per-frame writes over a real socket pair, its
receive side (arrival-order inbox, pass-number check, torn final
record), and the schedule's bound of one frame in flight per stream.

The packer is lossless by construction; these tests pin the invariants
the backend's bit-identity rests on — exact float/word round trips,
one record per emitted frame, and no write ever queueing behind an
earlier one.
"""

import multiprocessing as mp
import struct

import pytest

from repro.errors import SimulationError
from repro.fireripper import FAST, FireRipper, NoCPartitionSpec, PartitionSpec
from repro.libdn import ChannelSpec, codec_for
from repro.parallel import (EffectFrame, FramePacker, ProcessBackend,
                            SocketChannel, fork_available)
from repro.parallel.worker import PartitionWorker, close_all
from repro.platform import QSFP_AURORA
from repro.targets.soc import make_ring_noc_soc

from .conftest import build_star_sim, farm_backend


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
        assert out == EffectFrame("P0", 8)

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
        chan = worker.channels["fpga1"]
        while not chan.closed:
            worker._drain(chan)
        assert [f.pass_no for f in worker.inboxes["fpga1"]] == [1]
        assert "fpga1" in worker._dead_peers
        assert chan not in worker._wait_conns


class TestFrameConduit:
    """The worker's stream to one peer: every pass writes one record
    per peer, effects or not."""

    def test_one_record_per_pushed_frame(self, base_worker):
        worker, peer = base_worker
        link = next(link for link in worker.sim.links
                    if link.dst[0] == "fpga1")
        worker.router.begin_pass(1)
        worker.router.deliver_remote(link, 7, 1.0, 0.5)
        worker._emit_frames(True)
        worker.router.begin_pass(2)
        worker._emit_frames(True)
        worker.router.begin_pass(3)     # a service pass: written, not
        worker._emit_frames(False)      # counted as a message
        rx = SocketChannel(peer, "base")
        first, second, service = (worker.packer.unpack(record, "base")
                                  for record in rx.drain())
        assert first.deliveries == [(worker.sim.links.index(link),
                                     link.dst, 7, 1.0, 0.5)]
        assert second == EffectFrame("base", 2)
        assert service == EffectFrame("base", 3)
        assert worker.fragment()["wire_stats"] == {
            "messages_sent": 2, "effects_sent": 1}
        worker._flush_all()             # nothing staged: a no-op
        assert rx.drain() == []


@pytest.fixture
def staged_writes(monkeypatch, tmp_path):
    """Every record write, a forked worker's included, logged to a file
    as the number of bytes it found still staged ahead of it."""
    log = tmp_path / "writes"
    log.touch()
    write = SocketChannel.write

    def spy(chan, payload):
        with open(log, "a") as out:
            out.write(f"{len(chan._tx)}\n")
        return write(chan, payload)

    monkeypatch.setattr(SocketChannel, "write", spy)
    return lambda: [int(n) for n in log.read_text().split()]


def _credited_ring(jit: bool):
    """Three partitions of a 2-tile ring with one credit per channel:
    every pass's frames carry deliveries one way and credits back."""
    spec = PartitionSpec(mode=FAST,
                         noc=NoCPartitionSpec.make([[0], [1]]))
    sim = FireRipper(spec).compile(
        make_ring_noc_soc(2, messages_per_tile=2)).build_simulation(
        QSFP_AURORA, record_outputs=True, channel_capacity=1)
    sim.stepjit = jit
    return sim


@pytest.mark.skipif(not fork_available(),
                    reason="process backend needs fork")
class TestOneFrameInFlight:
    """The wavefront schedule lets a stream run one frame ahead of its
    reader, so the previous frame has always left the sender by the
    time the next is written: no write finds bytes staged."""

    @pytest.mark.parametrize("jit", [True, False], ids=["jit", "interp"])
    def test_credited_ring_never_stages_behind_a_write(self,
                                                       staged_writes,
                                                       jit):
        sim = _credited_ring(jit)
        ProcessBackend().run(sim, 200)
        assert {v.startswith("compiled")
                for v in sim.last_jit_report.values()} == {jit}
        writes = staged_writes()
        assert len(writes) >= 6 * 200  # six streams, a write a pass
        assert set(writes) == {0}

    def test_farm_run_never_stages_behind_a_write(self, staged_writes):
        farm_backend().run(build_star_sim(2), 200)
        writes = staged_writes()
        assert len(writes) >= 4 * 200  # four streams
        assert set(writes) == {0}
