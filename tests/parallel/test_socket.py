"""The process backend's socket wire: channel framing, rendezvous,
backpressure, backend selection, and bit-identity with the in-process
loop.

The wire's correctness claim: the carrier must be invisible.  These
tests pin the invariants that rests on — length-prefixed records
surviving arbitrary fragmentation, torn streams detected as peer death
rather than corrupt frames, the pre-bound listener rendezvous
connecting every linked pair exactly once, and ``max_pending``
backpressure feeding the conduit's wait-step loop instead of
deadlocking it.
"""

from __future__ import annotations

import os
import shutil
import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    EnvSettingError,
    SimulationError,
    SocketSetupError,
    UnknownBackendError,
)
from repro.fireripper import (EXACT, FireRipper, PartitionGroup,
                              PartitionSpec)
from repro.parallel import (
    BACKEND_ALIASES,
    VALID_BACKENDS,
    ProcessBackend,
    SocketChannel,
    connect_with_backoff,
    establish_channels,
    fork_available,
    make_listeners,
    normalize_backend,
    socket_available,
)
from repro.parallel import socket_transport
from repro.parallel.socket_transport import socket_timeouts
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
            assert tx.try_write(payload)
        got = []
        deadline = time.monotonic() + 5.0
        while len(got) < 3 and time.monotonic() < deadline:
            tx.try_flush()
            got += rx.drain()
        assert got == [b"alpha", b"", b"x" * 5000]
        assert rx.records_in == 3
        assert tx.records_out == 3

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

    def test_backpressure_refuses_then_recovers(self, pair):
        """With the peer not draining, staged bytes hit max_pending
        and try_write refuses — the signal the conduit's wait-step
        loop spins on.  Draining the peer un-sticks it."""
        a, b = pair
        tx = SocketChannel(a, "rx", max_pending=1 << 12)
        payload = b"y" * 1024
        accepted = 0
        while tx.try_write(payload):
            accepted += 1
            assert accepted < 10_000, "backpressure never engaged"
        rx = SocketChannel(b, "tx")
        drained = []
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            drained += rx.drain()
            try:
                if tx.try_flush():
                    break
            except OSError:
                pytest.fail("peer is alive; flush must not raise")
        assert tx.try_write(payload)
        drained += rx.drain()
        assert set(drained) == {payload}

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
                tx.try_write(b"z" * 4096)
            except OSError:
                break
        tx.closed = True
        assert tx.try_write(b"after-death")


class TestConnectBackoff:
    def test_connect_failure_raises_setup_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            unused = probe.getsockname()
        with pytest.raises(SocketSetupError, match="cannot connect"):
            connect_with_backoff(socket.AF_INET, unused, timeout=0.3)

    def test_backoff_rides_out_late_listener(self):
        """The listener appearing after the first attempts still gets
        connected — setup-time reconnection with bounded backoff."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            address = probe.getsockname()
        ready = threading.Event()

        def listen_late():
            time.sleep(0.15)
            server = socket.socket()
            server.bind(address)
            server.listen(1)
            ready.set()
            conn, _ = server.accept()
            conn.close()
            server.close()

        t = threading.Thread(target=listen_late, daemon=True)
        t.start()
        sock = connect_with_backoff(socket.AF_INET, address,
                                    timeout=5.0)
        sock.close()
        t.join(5.0)
        assert ready.is_set()


@pytest.mark.skipif(not socket_available(),
                    reason="socket transport unavailable")
class TestRendezvous:
    def test_listeners_only_for_owners(self):
        listeners, addresses, tmpdir = make_listeners(
            {"a": 2, "c": 1}, "tcp")
        try:
            assert set(listeners) == {"a", "c"}
            assert set(addresses) == {"a", "c"}
            assert tmpdir is None
        finally:
            for sock in listeners.values():
                sock.close()

    def test_bind_failure_leaves_no_directory_behind(self, tmp_path,
                                                     monkeypatch):
        """The second owner's bind fails (its socket file already
        exists); the rendezvous tmpdir created for the first must not
        outlive the error."""
        made = []
        real_mkdtemp = socket_transport.tempfile.mkdtemp

        def mkdtemp(**kwargs):
            made.append(real_mkdtemp(dir=tmp_path, **kwargs))
            open(os.path.join(made[-1], "1.sock"), "w").close()
            return made[-1]

        monkeypatch.setattr(socket_transport.tempfile, "mkdtemp",
                            mkdtemp)
        with pytest.raises(SocketSetupError, match="cannot bind"):
            make_listeners({"a": 1, "b": 1}, "unix")
        assert len(made) == 1 and not os.path.exists(made[0])

    def test_unix_probe_ignores_inet(self, monkeypatch):
        """A unix-family run must not be refused because AF_INET is
        the family that is missing (and vice versa)."""
        real_socket = socket.socket

        def no_inet(family=socket.AF_INET, *args, **kwargs):
            if family == socket.AF_INET:
                raise OSError("no loopback networking")
            return real_socket(family, *args, **kwargs)

        monkeypatch.setattr(socket_transport.socket, "socket", no_inet)
        assert socket_available("unix")
        assert not socket_available("tcp")
        monkeypatch.setenv("REPRO_SOCKET_FAMILY", "unix")
        assert socket_available()

    @pytest.mark.skipif(not fork_available(),
                        reason="rendezvous needs forked workers")
    @pytest.mark.parametrize("family", ["tcp", "unix"])
    def test_three_way_rendezvous(self, family):
        """a<->b, a<->c, b<->c fully connected via forked processes
        standing in for workers (each fork gets its own listener
        copies, as in a real spawn); every pair ends up with exactly
        one channel and records flow both ways."""
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        order = ["a", "b", "c"]
        owners = {"a": 2, "b": 1}
        listeners, addresses, tmpdir = make_listeners(owners, family)
        connect_timeout, read_timeout = socket_timeouts()
        plan = {"family": family, "listeners": listeners,
                "addresses": addresses,
                "connect_timeout": connect_timeout,
                "read_timeout": read_timeout}

        def run(name, conn):
            i = order.index(name)
            chans = establish_channels(name, order[:i],
                                       order[i + 1:], plan)
            for peer, chan in chans.items():
                assert chan.try_write(f"{name}->{peer}".encode())
            got = {}
            deadline = time.monotonic() + read_timeout
            while len(got) < len(chans) \
                    and time.monotonic() < deadline:
                for peer, chan in chans.items():
                    chan.try_flush()
                    for rec in chan.drain():
                        got[peer] = rec.decode()
            conn.send((name, got))
            conn.recv()  # hold channels open until everyone reported
            for chan in chans.values():
                chan.close()

        pipes = {n: ctx.Pipe() for n in order}
        procs = [ctx.Process(target=run, args=(n, pipes[n][1]),
                             daemon=True) for n in order]
        for p in procs:
            p.start()
        for sock in listeners.values():
            sock.close()
        results = {}
        for name in order:
            got_name, got = pipes[name][0].recv()
            results[got_name] = got
        for name in order:
            pipes[name][0].send("done")
        for p in procs:
            p.join(30.0)
            assert p.exitcode == 0
        if tmpdir is not None:
            shutil.rmtree(tmpdir)
        for name in order:
            peers = [p for p in order if p != name]
            assert sorted(results[name]) == peers
            for peer in peers:
                assert results[name][peer] == f"{peer}->{name}"


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

    @pytest.mark.parametrize("variable", [
        "REPRO_HEARTBEAT_TIMEOUT", "REPRO_SOCKET_CONNECT_TIMEOUT",
        "REPRO_SOCKET_READ_TIMEOUT"])
    def test_unparsable_env_timeout_names_variable_and_value(
            self, monkeypatch, variable):
        """A bad setting fails typed at dispatch, not as a bare
        ``ValueError`` from inside the run."""
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv(variable, "soon")
        with pytest.raises(EnvSettingError,
                           match=f"{variable}='soon'") as err:
            build_star_sim().run(20)
        assert (err.value.variable, err.value.value) == (variable,
                                                         "soon")

    def test_unknown_socket_family_is_setup_error(self):
        with pytest.raises(SocketSetupError, match="carrier-pigeon"):
            ProcessBackend(socket_family="carrier-pigeon")


@pytest.mark.skipif(not (fork_available() and socket_available()),
                    reason="socket backend needs fork + sockets")
class TestSocketBackend:
    CYCLES = 300

    def test_detail_matches_inproc(self):
        reference = build_star_sim(3).run(self.CYCLES, backend="inproc")
        sim = build_star_sim(3)
        result = sim.run(self.CYCLES, backend="process")
        assert sim.last_run_backend == "process"
        assert result.detail == reference.detail

    def test_unix_family_matches(self):
        reference = build_star_sim().run(self.CYCLES,
                                         backend="inproc")
        backend = ProcessBackend(socket_family="unix")
        result = backend.run(build_star_sim(), self.CYCLES)
        assert result.detail == reference.detail

    def test_unix_family_survives_long_partition_names(self):
        """Socket files are named by partition position, so a group
        name far beyond ``sun_path`` (~100 bytes) still rendezvouses."""
        base = "soc_" + "x" * 150  # the star's listener owner
        spec = PartitionSpec(mode=EXACT, base_name=base, groups=[
            PartitionGroup.make("fpga1", ["leaf0"])])
        design = FireRipper(spec).compile(make_star_circuit(1))

        def build():
            return design.build_simulation(
                QSFP_AURORA, sources={(base, "io_in"): stim_source()})

        reference = build().run(60, backend="inproc")
        sim = build()
        assert list(sim.partitions)[0] == base
        result = ProcessBackend(socket_family="unix").run(sim, 60)
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
