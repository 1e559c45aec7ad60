"""Latency-insensitive bounded dataflow network (LI-BDN) machinery.

This layer reproduces the decoupling FireSim's Golden Gate compiler adds in
hardware (Fig. 1 of the paper): token channels on every I/O boundary, one
finite-state machine per output channel that fires when the combinationally
connected input channels hold valid tokens, and a ``fireFSM`` that advances
the target a cycle once every input token is present and every output has
fired.  :class:`LIBDNHost` wraps one RTL :class:`~repro.rtl.Simulator`;
:class:`FAME5Host` multiplexes N copies of a module through shared channels
the way the FAME-5 transform threads duplicate modules.
"""

from .codec import TokenCodec, codec_for, repack, repack_plan
from .token import Channel, ChannelSpec, Token, zeros_token
from .wrapper import LIBDNHost
from .fame5 import FAME5Host

__all__ = [
    "Channel",
    "ChannelSpec",
    "Token",
    "TokenCodec",
    "codec_for",
    "repack",
    "repack_plan",
    "zeros_token",
    "LIBDNHost",
    "FAME5Host",
]
