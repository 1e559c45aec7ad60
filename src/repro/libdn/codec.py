"""Packed token codec: one Python int per channel token.

A token used to travel as a ``{port: value}`` dict, copied at every hop
(source -> channel -> outbox -> link -> channel -> poke).  The codec
derives a fixed bit layout from a :class:`ChannelSpec` — port ``i``
occupies ``width_i`` bits at the offset that is the sum of the widths
before it — and packs the whole token into a single arbitrary-precision
Python int.  Ints are immutable, so every hop after the initial encode
is a reference copy, and the serialized form on a wire is just the
fixed-width byte string of the word (``nbytes`` per token).

This is the software analogue of what the paper's partition interfaces
do in hardware: a channel *is* its concatenated port bits, and peers
with a different port naming/order re-pack by bit moves
(:func:`repack_plan` / :func:`repack`), not by dict rebuilding.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, TYPE_CHECKING

from ..errors import SimulationError, TransportError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .token import ChannelSpec, Token

#: One bit-move of a repack: (src_offset, mask, dst_offset).
Move = Tuple[int, int, int]


class TokenCodec:
    """Bit layout of one :class:`ChannelSpec`: encode/decode/peek."""

    __slots__ = ("spec", "fields", "width", "nbytes")

    def __init__(self, spec: "ChannelSpec"):
        fields = []
        offset = 0
        for port, width in spec.ports:
            fields.append((port, offset, (1 << width) - 1))
            offset += width
        self.spec = spec
        #: ``(port, offset, mask)`` per port, in spec order.
        self.fields: Tuple[Tuple[str, int, int], ...] = tuple(fields)
        self.width = offset
        #: serialized size of one token (at least one byte so zero-width
        #: channels still occupy a frame slot)
        self.nbytes = max(1, (offset + 7) // 8)

    def encode(self, token: "Token") -> int:
        """Pack a dict token into a word; values are masked to their
        port width, extra keys are ignored, missing ports raise."""
        word = 0
        try:
            for port, offset, mask in self.fields:
                word |= (token[port] & mask) << offset
        except KeyError:
            missing = sorted(p for p, _, _ in self.fields if p not in token)
            raise SimulationError(
                f"channel {self.spec.name!r}: token missing ports {missing}"
            )
        return word

    def decode(self, word: int) -> "Token":
        """Unpack a word into a fresh ``{port: value}`` dict."""
        return {port: (word >> offset) & mask
                for port, offset, mask in self.fields}

    def __repr__(self) -> str:
        return f"TokenCodec({self.spec.name!r}, width={self.width})"


#: Codecs are immutable and derived purely from the (frozen, hashable)
#: spec, so every channel built from the same spec shares one instance.
_CODECS: Dict[object, TokenCodec] = {}


def codec_for(spec: "ChannelSpec") -> TokenCodec:
    codec = _CODECS.get(spec)
    if codec is None:
        codec = _CODECS[spec] = TokenCodec(spec)
    return codec


def repack_plan(src: TokenCodec, dst: TokenCodec,
                rename: Optional[Dict[str, str]] = None):
    """Compile the bit moves that translate a ``src``-layout word into a
    ``dst``-layout word, applying the link's port ``rename`` map.

    Returns ``None`` when the layouts coincide (the common case: peers
    declare the same ports in the same order) and a tuple of
    :data:`Move` entries otherwise.  A destination port no source port
    feeds is a wiring mistake, not a layout: it raises
    :class:`~repro.errors.TransportError` naming the ports (the harness
    builds every link's plan at construction, so a mis-wired link never
    reaches its first token).
    """
    rename = rename or {}
    dst_fields = {port: (offset, mask) for port, offset, mask in dst.fields}
    moves = []
    fed = set()
    for port, offset, mask in src.fields:
        target = rename.get(port, port)
        if target not in dst_fields:
            continue  # a source port the peer does not declare is dropped
        d_offset, d_mask = dst_fields[target]
        moves.append((offset, mask & d_mask, d_offset))
        fed.add(target)
    if len(fed) != len(dst_fields):
        raise TransportError(
            f"destination ports {sorted(set(dst_fields) - fed)} of "
            f"channel {dst.spec.name!r} are fed by no source port "
            f"(channel {src.spec.name!r} sends "
            f"{[rename.get(p, p) for p, _, _ in src.fields]})")
    # identity iff every src field maps to the same offset with its full
    # mask: the word can then be forwarded untouched (src bits beyond
    # the dst width cannot exist — the word is bounded by src.width)
    if (len(moves) == len(src.fields) == len(dst.fields)
            and all(s_off == d_off and mv_mask == s_mask
                    for (s_off, mv_mask, d_off), (_, _, s_mask)
                    in zip(moves, src.fields))):
        return None  # identity: forward the word untouched
    return tuple(moves)


def repack(word: int, plan) -> int:
    """Apply a :func:`repack_plan` (``None`` means identity)."""
    if plan is None:
        return word
    out = 0
    for s_off, mask, d_off in plan:
        out |= ((word >> s_off) & mask) << d_off
    return out
