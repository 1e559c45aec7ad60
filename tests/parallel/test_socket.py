"""The process backend's socket wire: channel framing, staged writes,
backend selection, and bit-identity with the in-process loop.

The wire's correctness claim: the carrier must be invisible.  These
tests pin the invariants that rests on — length-prefixed records
surviving arbitrary fragmentation, torn streams detected as peer death
rather than corrupt frames, and a record larger than the kernel buffer
staged and delivered whole.
"""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.errors import EnvSettingError, SimulationError, UnknownBackendError
from repro.fireripper import (EXACT, FireRipper, PartitionGroup,
                              PartitionSpec)
from repro.parallel import (
    BACKEND_ALIASES,
    VALID_BACKENDS,
    ProcessBackend,
    SocketChannel,
    fork_available,
    normalize_backend,
)
from repro.platform import QSFP_AURORA

from .conftest import build_star_sim, make_star_circuit, stim_source

_LEN = struct.Struct("<I")


def _record(payload: bytes) -> bytes:
    return _LEN.pack(len(payload)) + payload


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestSocketChannel:
    def test_roundtrip_multiple_records(self, pair):
        a, b = pair
        tx, rx = SocketChannel(a, "rx"), SocketChannel(b, "tx")
        for payload in (b"alpha", b"", b"x" * 5000):
            tx.write(payload)
        got = []
        deadline = time.monotonic() + 5.0
        while len(got) < 3 and time.monotonic() < deadline:
            tx.try_flush()
            got += rx.drain()
        assert got == [b"alpha", b"", b"x" * 5000]

    def test_partial_reads_reassemble(self, pair):
        """A record delivered one byte at a time still comes out
        whole — the length prefix drives reassembly."""
        a, b = pair
        rx = SocketChannel(b, "tx")
        wire = _record(b"fragmented-token") + _record(b"second")
        got = []
        for i in range(len(wire)):
            a.sendall(wire[i:i + 1])
            got += rx.drain()
        assert got == [b"fragmented-token", b"second"]
        assert not rx.closed

    def test_disconnect_mid_record_sets_closed(self, pair):
        """A peer dying mid-record closes the channel; the torn tail
        is never surfaced as a (corrupt) record."""
        a, b = pair
        rx = SocketChannel(b, "tx")
        torn = _record(b"complete") + _record(b"never-finished")[:7]
        a.sendall(torn)
        a.close()
        got = []
        deadline = time.monotonic() + 5.0
        while not rx.closed and time.monotonic() < deadline:
            got += rx.drain()
        assert got == [b"complete"]
        assert rx.closed

    def test_drain_after_close_returns_nothing(self, pair):
        a, b = pair
        rx = SocketChannel(b, "tx")
        a.close()
        while not rx.closed:
            rx.drain()
        assert rx.drain() == []

    def test_record_larger_than_the_kernel_buffer_arrives_whole(
            self, pair):
        """A write is never refused: what the kernel does not take
        stays staged, and the record arrives whole while the writer
        flushes and the peer drains."""
        a, b = pair
        tx, rx = SocketChannel(a, "rx"), SocketChannel(b, "tx")
        payload = bytes(range(256)) * (1 << 14)  # 4 MiB
        tx.write(payload)
        assert tx._tx  # the kernel buffer took only a prefix
        got = []
        deadline = time.monotonic() + 10.0
        while not got and time.monotonic() < deadline:
            got += rx.drain()
            tx.try_flush()
        assert got == [payload]
        assert tx.try_flush() and not tx._tx

    def test_write_to_dead_peer_drops_silently(self, pair):
        """Writes to an already-closed channel are accepted and
        dropped — dead-peer accounting belongs to the worker, not the
        carrier."""
        a, b = pair
        tx = SocketChannel(a, "rx")
        b.close()
        deadline = time.monotonic() + 5.0
        while not tx.closed and time.monotonic() < deadline:
            try:
                tx.write(b"z" * 4096)
            except OSError:
                break
        tx.closed = True
        staged = len(tx._tx)
        tx.write(b"after-death")
        assert len(tx._tx) == staged


class TestBackendSelection:
    def test_unknown_backend_argument_raises(self):
        sim = build_star_sim()
        with pytest.raises(UnknownBackendError) as err:
            sim.run(20, backend="process-sock")
        assert "valid backends: auto, inproc, process" \
            in str(err.value)

    def test_unknown_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        sim = build_star_sim()
        with pytest.raises(UnknownBackendError, match="REPRO_BACKEND"):
            sim.run(20)

    def test_aliases_normalize(self):
        """The retired transport-tier spellings all mean the one
        process backend; nothing else sneaks in."""
        assert VALID_BACKENDS == ("auto", "inproc", "process")
        for spelling in ("proc", "shm", "socket", "process-shm",
                         "process-socket"):
            assert normalize_backend(spelling) == "process"
        assert set(BACKEND_ALIASES.values()) == set(VALID_BACKENDS)
        assert normalize_backend(" Process ") == "process"
        with pytest.raises(UnknownBackendError):
            normalize_backend(None)

    def test_unparsable_env_timeout_names_variable_and_value(
            self, monkeypatch):
        """A bad setting fails typed at dispatch, not as a bare
        ``ValueError`` from inside the run."""
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_HEARTBEAT_TIMEOUT", "soon")
        with pytest.raises(EnvSettingError,
                           match="REPRO_HEARTBEAT_TIMEOUT='soon'") as err:
            build_star_sim().run(20)
        assert (err.value.variable, err.value.value) == (
            "REPRO_HEARTBEAT_TIMEOUT", "soon")


@pytest.mark.skipif(not fork_available(),
                    reason="socket backend needs fork")
class TestSocketBackend:
    CYCLES = 300

    def test_detail_matches_inproc(self):
        reference = build_star_sim(3).run(self.CYCLES, backend="inproc")
        sim = build_star_sim(3)
        result = sim.run(self.CYCLES, backend="process")
        assert sim.last_run_backend == "process"
        assert result.detail == reference.detail

    def test_unix_family_survives_long_partition_names(self):
        """Pair ends are anonymous unix-domain sockets, so a group name
        far beyond ``sun_path`` (~100 bytes) still links: no partition
        name ever becomes a socket address."""
        base = "soc_" + "x" * 150
        spec = PartitionSpec(mode=EXACT, base_name=base, groups=[
            PartitionGroup.make("fpga1", ["leaf0"])])
        design = FireRipper(spec).compile(make_star_circuit(1))

        def build():
            return design.build_simulation(
                QSFP_AURORA, sources={(base, "io_in"): stim_source()})

        reference = build().run(60, backend="inproc")
        sim = build()
        assert list(sim.partitions)[0] == base
        result = ProcessBackend().run(sim, 60)
        assert result.detail == reference.detail

    def test_env_selects_socket_backend(self, monkeypatch):
        """A retired spelling in ``REPRO_BACKEND`` still selects the
        process backend."""
        monkeypatch.setenv("REPRO_BACKEND", "process-socket")
        sim = build_star_sim()
        sim.run(60)
        assert sim.last_run_backend == "process"

    def test_killed_worker_surfaces_and_cleans_up(self):
        import multiprocessing as mp

        from repro.errors import WorkerError

        backend = ProcessBackend(worker_faults={"fpga1": ("kill", 3)})
        with pytest.raises(WorkerError) as err:
            backend.run(build_star_sim(), self.CYCLES)
        assert err.value.partition == "fpga1"
        assert mp.active_children() == []

    def test_stop_callback_rejected(self):
        sim = build_star_sim()
        with pytest.raises(SimulationError, match="stop callback"):
            sim.run(40, backend="process-socket",
                    stop=lambda s: False)
