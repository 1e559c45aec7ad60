"""Stream-socket carrier of the process backend's data plane.

Cross-partition effect frames travel as length-prefixed binary records
(coded by :class:`~repro.parallel.channels.FramePacker` — lossless by
construction, so the carrier is invisible in the results) over one
connected stream-socket pair per linked partition pair.  The
coordinator makes every pair with ``socket.socketpair()`` before it
forks (``ProcessBackend._worker_options``), so there is no rendezvous:
each worker inherits its own ends, keyed by peer, and closes the rest.

:class:`SocketChannel` wraps one end.  It is non-blocking both ways:
``drain`` reads whatever bytes are available and returns only
*complete* records (partial reads simply stay buffered; a peer
vanishing mid-frame surfaces as ``closed`` with the torn record
discarded); a write stages its record and sends what the kernel
takes, and whatever it does not take waits for the next flush.  The
wavefront schedule bounds a stream to one frame in flight (see
``worker``), so the staging buffer holds at most one record and needs
no cap.  Sockets signal peer death natively (EOF / ``ECONNRESET``) and
have a file descriptor a blocked worker can select on next to its
control connection.
"""

from __future__ import annotations

import socket
import struct
from typing import List

_LEN = struct.Struct("<I")


class SocketChannel:
    """One established peer stream of length-prefixed packed records.

    Non-blocking.  ``fileno`` makes the channel selectable alongside
    control connections in ``multiprocessing.connection.wait``.  Reads
    buffer partial records until the rest arrives; a clean or torn EOF
    sets ``closed`` (native peer-death detection).  Writes stage into
    ``_tx`` and drain opportunistically; a blocked worker flushes the
    rest before it waits.
    """

    def __init__(self, sock: socket.socket, peer: str = ""):
        self.sock = sock
        self.peer = peer
        sock.setblocking(False)
        self._rx = bytearray()
        self._tx = bytearray()
        self.closed = False
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
        return out

    # -- write side ----------------------------------------------------------

    def write(self, payload: bytes) -> None:
        """Stage one record and send what the kernel takes.  A record
        written to a dead peer is dropped — the caller's dead-peer
        accounting owns that case."""
        if self.closed:
            return
        self._tx += _LEN.pack(len(payload)) + payload
        self.try_flush()
        self.records_out += 1

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
