"""Stream-socket carrier of the process backend's data plane.

Cross-partition effect frames travel as length-prefixed binary records
(coded by :class:`~repro.parallel.channels.FramePacker` — lossless by
construction, so the carrier is invisible in the results) over TCP or
Unix-domain stream sockets, within one host and across farm hosts
alike:

* :func:`make_listeners` — the coordinator binds one rendezvous
  listener per partition that has a higher-order linked peer *before*
  forking, so children inherit live listening sockets and a connect can
  never race the bind.
* :func:`connect_with_backoff` — bounded exponential-backoff connect
  with a configurable deadline (``REPRO_SOCKET_CONNECT_TIMEOUT``);
  setup-time transients (a peer still forking) retry, a dead address
  raises :class:`~repro.errors.SocketSetupError`.
* :func:`establish_channels` — the worker-side rendezvous: connect to
  every lower-order peer (sending a hello record naming ourselves),
  then accept from every higher-order one (reading theirs).  Connects
  complete against the listen backlog without the acceptor scheduling,
  so the two phases cannot deadlock across workers.
* :class:`SocketChannel` — one established peer stream.  Non-blocking
  both ways: ``drain`` reads whatever bytes are available and returns
  only *complete* records (partial reads simply stay buffered; a peer
  vanishing mid-frame surfaces as ``closed`` with the torn record
  discarded), writes stage into a bounded pending buffer so a slow
  peer backpressures the sender instead of growing memory.

Sockets signal peer death natively (EOF / ``ECONNRESET``) and have a
file descriptor a blocked worker can select on next to its control
pipe.  Family via ``REPRO_SOCKET_FAMILY`` (``tcp`` default, ``unix``
for same-box runs).
"""

from __future__ import annotations

import os
import shutil
import socket
import struct
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from ..errors import SocketSetupError, env_number

_LEN = struct.Struct("<I")

DEFAULT_CONNECT_TIMEOUT = 10.0
DEFAULT_READ_TIMEOUT = 30.0
#: staged-write cap: a peer this many bytes behind backpressures us
DEFAULT_MAX_PENDING = 1 << 20


def default_family() -> str:
    """The socket family name ``REPRO_SOCKET_FAMILY`` selects (tcp
    when unset)."""
    return os.environ.get(
        "REPRO_SOCKET_FAMILY", "").strip().lower() or "tcp"


def socket_available(family_name: Optional[str] = None) -> bool:
    """True when stream sockets of ``family_name`` (default: the
    ``REPRO_SOCKET_FAMILY`` family) are usable on this host."""
    family = resolve_family(family_name or default_family())
    try:
        sock = socket.socket(family, socket.SOCK_STREAM)
    except OSError:
        return False
    sock.close()
    return True


def socket_timeouts() -> Tuple[float, float]:
    """(connect, read) timeouts in seconds, environment-overridable."""
    return (env_number("REPRO_SOCKET_CONNECT_TIMEOUT",
                       DEFAULT_CONNECT_TIMEOUT),
            env_number("REPRO_SOCKET_READ_TIMEOUT",
                       DEFAULT_READ_TIMEOUT))


def resolve_family(name: str) -> int:
    if name == "tcp":
        return socket.AF_INET
    if name == "unix":
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover
            raise SocketSetupError(
                "unix-domain sockets are unavailable on this platform")
        return socket.AF_UNIX
    raise SocketSetupError(
        f"unknown socket family {name!r} (tcp or unix)")


def _tune(sock: socket.socket) -> None:
    if sock.family == socket.AF_INET:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def make_listeners(owners: Dict[str, int], family_name: str,
                   directory: Optional[str] = None):
    """Bind one rendezvous listener per owner (pre-fork, so every
    child inherits it already listening).

    ``owners`` maps owner name -> expected connection count (the listen
    backlog).  Returns ``(listeners, addresses, tmpdir)`` where
    ``tmpdir`` is the created unix-socket directory to remove at
    cleanup (None for TCP); a failed bind removes it before raising.
    Unix socket files are named by the owner's position, never by its
    (user-chosen, arbitrarily long) name: ``sun_path`` holds ~100 bytes.
    """
    family = resolve_family(family_name)
    tmpdir = None
    if family != socket.AF_INET and directory is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-sock-")
        directory = tmpdir
    listeners: Dict[str, socket.socket] = {}
    addresses: Dict[str, object] = {}
    try:
        for index, (owner, backlog) in enumerate(owners.items()):
            sock = socket.socket(family, socket.SOCK_STREAM)
            listeners[owner] = sock
            if family == socket.AF_INET:
                sock.bind(("127.0.0.1", 0))
                addresses[owner] = sock.getsockname()
            else:
                path = os.path.join(directory, f"{index}.sock")
                sock.bind(path)
                addresses[owner] = path
            sock.listen(max(1, backlog))
    except OSError as exc:
        for sock in listeners.values():
            sock.close()
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
        raise SocketSetupError(f"cannot bind rendezvous listener: {exc}")
    return listeners, addresses, tmpdir


def connect_with_backoff(family: int, address,
                         timeout: Optional[float] = None
                         ) -> socket.socket:
    """Connect, retrying with bounded exponential backoff until
    ``timeout`` (default ``REPRO_SOCKET_CONNECT_TIMEOUT``) elapses."""
    if timeout is None:
        timeout = socket_timeouts()[0]
    deadline = time.monotonic() + timeout
    delay = 0.001
    last: Optional[OSError] = None
    while True:
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.settimeout(max(0.05, min(1.0, timeout)))
            sock.connect(address)
            _tune(sock)
            sock.settimeout(None)
            return sock
        except OSError as exc:
            sock.close()
            last = exc
            if time.monotonic() + delay > deadline:
                raise SocketSetupError(
                    f"cannot connect to {address!r} within "
                    f"{timeout:g}s: {last}")
            time.sleep(delay)
            delay = min(delay * 2, 0.25)


def _send_hello(sock: socket.socket, name: str, timeout: float) -> None:
    payload = name.encode()
    sock.settimeout(timeout)
    try:
        sock.sendall(_LEN.pack(len(payload)) + payload)
    except OSError as exc:
        raise SocketSetupError(f"hello send to peer failed: {exc}")
    finally:
        sock.settimeout(None)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    got = bytearray()
    while len(got) < n:
        chunk = sock.recv(n - len(got))
        if not chunk:
            raise SocketSetupError(
                "peer closed the connection during the hello handshake")
        got += chunk
    return bytes(got)


def _recv_hello(sock: socket.socket, timeout: float) -> str:
    sock.settimeout(timeout)
    try:
        (n,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
        name = _recv_exact(sock, n).decode()
    except socket.timeout:
        raise SocketSetupError(
            f"no hello from an accepted peer within {timeout:g}s")
    except OSError as exc:
        raise SocketSetupError(f"hello receive failed: {exc}")
    finally:
        sock.settimeout(None)
    return name


def establish_channels(name: str, peers_before: List[str],
                       peers_after: List[str], plan: dict
                       ) -> Dict[str, "SocketChannel"]:
    """Worker-side rendezvous: one :class:`SocketChannel` per linked
    peer.  ``plan`` carries ``family``, the global ``listeners`` map
    (we close every listener we inherited but do not own), per-owner
    ``addresses``, and the two timeouts."""
    family = resolve_family(plan["family"])
    listeners: Dict[str, socket.socket] = plan.get("listeners", {})
    for owner, listener in listeners.items():
        if owner != name:
            try:
                listener.close()
            except OSError:
                pass
    connect_timeout = plan.get("connect_timeout") \
        or socket_timeouts()[0]
    read_timeout = plan.get("read_timeout") or socket_timeouts()[1]
    channels: Dict[str, SocketChannel] = {}
    # phase 1: connect to every lower-order peer's listener.  These
    # complete against the listen backlog without the acceptor
    # scheduling, so no connect can wait on another worker's phase 2.
    for peer in peers_before:
        sock = connect_with_backoff(family, plan["addresses"][peer],
                                    timeout=connect_timeout)
        _send_hello(sock, name, read_timeout)
        channels[peer] = SocketChannel(sock, peer)
    # phase 2: accept one connection per higher-order peer; the hello
    # record names the connector (accept order is arbitrary)
    listener = listeners.get(name)
    if peers_after:
        if listener is None:
            raise SocketSetupError(
                f"worker {name!r} expects {len(peers_after)} "
                "connection(s) but was given no listener")
        expected = set(peers_after)
        listener.settimeout(read_timeout)
        for _ in peers_after:
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                raise SocketSetupError(
                    f"worker {name!r} still waiting on "
                    f"{sorted(expected)} after {read_timeout:g}s")
            _tune(sock)
            peer = _recv_hello(sock, read_timeout)
            if peer not in expected:
                sock.close()
                raise SocketSetupError(
                    f"unexpected hello from {peer!r} "
                    f"(expected one of {sorted(expected)})")
            expected.discard(peer)
            channels[peer] = SocketChannel(sock, peer)
    if listener is not None:
        try:
            listener.close()
        except OSError:
            pass
    return channels


class SocketChannel:
    """One established peer stream of length-prefixed packed records.

    Non-blocking.  ``fileno`` makes the channel selectable alongside
    control pipes in ``multiprocessing.connection.wait``.  Reads
    buffer partial records until the rest arrives; a clean or torn EOF
    sets ``closed`` (native peer-death detection).  Writes stage into
    ``_tx`` and drain opportunistically; once ``max_pending`` bytes
    are staged the channel refuses new records, which is the
    backpressure signal the conduit's wait-step loop spins on.
    """

    def __init__(self, sock: socket.socket, peer: str = "",
                 max_pending: int = DEFAULT_MAX_PENDING):
        self.sock = sock
        self.peer = peer
        self.max_pending = max_pending
        sock.setblocking(False)
        self._rx = bytearray()
        self._tx = bytearray()
        self.closed = False
        self.records_in = 0
        self.records_out = 0

    def fileno(self) -> int:
        return self.sock.fileno()

    # -- read side -----------------------------------------------------------

    def drain(self) -> List[bytes]:
        """Read every available byte; return the complete records."""
        while not self.closed:
            try:
                chunk = self.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.closed = True
                break
            if not chunk:
                self.closed = True
                break
            self._rx += chunk
        out: List[bytes] = []
        rx = self._rx
        off, n = 0, len(rx)
        while n - off >= _LEN.size:
            (length,) = _LEN.unpack_from(rx, off)
            if n - off - _LEN.size < length:
                break  # partial record: keep buffering
            start = off + _LEN.size
            out.append(bytes(rx[start:start + length]))
            off = start + length
        if off:
            del rx[:off]
        self.records_in += len(out)
        return out

    # -- write side ----------------------------------------------------------

    def try_write(self, payload: bytes) -> bool:
        """Stage one record unless backpressured; True when accepted.
        A record written to a dead peer is accepted and dropped — the
        caller's dead-peer accounting owns that case."""
        if self.closed:
            return True
        if self._tx:
            self.try_flush()
            if len(self._tx) >= self.max_pending:
                return False
        self._tx += _LEN.pack(len(payload)) + payload
        self.records_out += 1
        self.try_flush()
        return True

    def try_flush(self) -> bool:
        """Push staged bytes out; True when the backlog fully
        drained.  A peer that vanished raises ``OSError`` (the
        worker's dead-peer handling catches it)."""
        while self._tx:
            try:
                sent = self.sock.send(self._tx)
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                self.closed = True
                raise
            if sent <= 0:  # pragma: no cover - defensive
                return False
            del self._tx[:sent]
        return True

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - teardown race
            pass
