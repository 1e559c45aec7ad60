"""Tokens and latency-insensitive channels.

A *token* carries one target cycle's worth of values for every port mapped
to a channel.  Channels are unbounded FIFOs: the bound a real LI-BDN
places on in-flight tokens is the harness's ``channel_capacity`` credit
window (priced by the timing overlay), not a queue limit here.

Internally a channel queue holds *packed words* — one Python int per
token, laid out by the spec's :class:`~repro.libdn.codec.TokenCodec` —
so moving a token is a reference copy, not a dict copy.  The dict API
(:meth:`Channel.put` / :meth:`Channel.head` / :meth:`Channel.get`)
encodes/decodes at the boundary; hot paths use the ``*_word`` variants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Sequence, Tuple

from ..errors import SimulationError
from .codec import TokenCodec, codec_for

#: One target cycle's values for a channel: port name -> value.
Token = Dict[str, int]


@dataclass(frozen=True)
class ChannelSpec:
    """Static description of an LI-BDN channel.

    Args:
        name: channel name, unique within a host.
        ports: ``(port_name, width)`` pairs aggregated into this channel.
        deps: for *output* channels, the names of the input channels that
            feed these ports combinationally (empty for source channels).
    """

    name: str
    ports: Tuple[Tuple[str, int], ...]
    deps: FrozenSet[str] = frozenset()

    @property
    def width(self) -> int:
        """Total payload width in bits (the partition-interface width the
        paper's performance sweeps vary)."""
        return sum(w for _, w in self.ports)

    @property
    def port_names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.ports)

    @staticmethod
    def make(name: str, ports: Sequence[Tuple[str, int]],
             deps: Sequence[str] = ()) -> "ChannelSpec":
        return ChannelSpec(name, tuple(ports), frozenset(deps))


def zeros_token(spec: ChannelSpec) -> Token:
    """An all-zero token for ``spec`` (used for fast-mode seed tokens)."""
    return {name: 0 for name in spec.port_names}


class Channel:
    """FIFO of packed token words for one :class:`ChannelSpec`."""

    __slots__ = ("spec", "codec", "queue")

    def __init__(self, spec: ChannelSpec):
        self.spec = spec
        self.codec: TokenCodec = codec_for(spec)
        self.queue: Deque[int] = deque()

    @property
    def name(self) -> str:
        return self.spec.name

    def put(self, token: Token) -> None:
        self.queue.append(self.codec.encode(token))

    def put_word(self, word: int) -> None:
        self.queue.append(word)

    def has_token(self) -> bool:
        return bool(self.queue)

    def head(self) -> Token:
        if not self.queue:
            raise SimulationError(f"channel {self.name!r} is empty")
        return self.codec.decode(self.queue[0])

    def get(self) -> Token:
        if not self.queue:
            raise SimulationError(f"channel {self.name!r} is empty")
        return self.codec.decode(self.queue.popleft())

    def __len__(self) -> int:
        return len(self.queue)

    def __repr__(self) -> str:
        return f"Channel({self.name!r}, depth={len(self.queue)})"
