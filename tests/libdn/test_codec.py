"""Packed token codec: round trips, repack plans, channel integration.

Hypothesis drives arbitrary port layouts (names, widths — including
zero-width ports) through encode/decode/repack; the codec is the
foundation of the packed token plane, so the bar is exact value
preservation, not spot checks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, TransportError
from repro.libdn import (
    Channel,
    ChannelSpec,
    TokenCodec,
    codec_for,
    repack,
    repack_plan,
)

# -- strategies ---------------------------------------------------------------

port_names = st.lists(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=4),
    min_size=1, max_size=6, unique=True)


@st.composite
def layouts(draw):
    """An arbitrary channel spec: unique port names, widths 0..64."""
    names = draw(port_names)
    widths = draw(st.lists(st.integers(0, 64), min_size=len(names),
                           max_size=len(names)))
    return ChannelSpec.make("ch", list(zip(names, widths)))


@st.composite
def layout_and_token(draw):
    spec = draw(layouts())
    token = {name: draw(st.integers(0, (1 << width) - 1 if width else 0))
             for name, width in spec.ports}
    return spec, token


# -- round trips --------------------------------------------------------------

class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(layout_and_token())
    def test_token_word_token(self, case):
        spec, token = case
        codec = codec_for(spec)
        assert codec.decode(codec.encode(token)) == token

    @settings(max_examples=200, deadline=None)
    @given(layouts(), st.data())
    def test_word_token_word(self, spec, data):
        codec = codec_for(spec)
        word = data.draw(st.integers(0, (1 << codec.width) - 1
                                     if codec.width else 0))
        assert codec.encode(codec.decode(word)) == word

    @settings(max_examples=100, deadline=None)
    @given(layout_and_token(), st.integers(1, 1 << 70))
    def test_encode_masks_oversized_values(self, case, extra):
        spec, token = case
        codec = codec_for(spec)
        loose = {name: value + (extra << width)
                 for (name, width), value
                 in zip(spec.ports, token.values())}
        # values beyond the port width never leak into neighbours
        assert codec.decode(codec.encode(loose)) == token

    def test_missing_port_raises_with_names(self):
        spec = ChannelSpec.make("ch", [("a", 4), ("b", 4), ("c", 4)])
        with pytest.raises(SimulationError, match=r"\['b', 'c'\]"):
            codec_for(spec).encode({"a": 1})

    def test_zero_width_channel_is_one_byte(self):
        spec = ChannelSpec.make("ch", [("a", 0)])
        codec = codec_for(spec)
        assert codec.width == 0
        assert codec.nbytes == 1
        assert codec.encode({"a": 0}) == 0
        assert codec.decode(0) == {"a": 0}

    def test_codec_is_shared_per_spec(self):
        spec = ChannelSpec.make("ch", [("a", 8)])
        assert codec_for(spec) is codec_for(
            ChannelSpec.make("ch", [("a", 8)]))


# -- repack -------------------------------------------------------------------

class TestRepack:
    def test_identity_plan_is_none(self):
        spec = ChannelSpec.make("ch", [("a", 8), ("b", 3)])
        src = codec_for(spec)
        dst = codec_for(ChannelSpec.make("peer", [("a", 8), ("b", 3)]))
        assert repack_plan(src, dst) is None

    @settings(max_examples=200, deadline=None)
    @given(layout_and_token(), st.randoms(use_true_random=False))
    def test_shuffled_rename_matches_dict_path(self, case, rng):
        """repack == decode -> rename -> encode, for any permutation of
        the destination layout under any rename map."""
        spec, token = case
        src = codec_for(spec)
        ports = list(spec.ports)
        rng.shuffle(ports)
        rename = {name: f"{name}x" for name, _ in ports}
        dst_spec = ChannelSpec.make(
            "peer", [(rename[name], width) for name, width in ports])
        dst = codec_for(dst_spec)
        plan = repack_plan(src, dst, rename)
        expected = dst.encode(
            {rename[k]: v for k, v in token.items()})
        assert repack(src.encode(token), plan) == expected

    def test_unfed_destination_port_is_incompatible(self):
        """No plan exists: a typed error names the unfed ports."""
        src = codec_for(ChannelSpec.make("ch", [("a", 8)]))
        dst = codec_for(ChannelSpec.make("peer", [("a", 8), ("b", 8)]))
        with pytest.raises(TransportError, match=r"\['b'\].*'peer'"):
            repack_plan(src, dst)
        with pytest.raises(TransportError, match=r"\['a', 'b'\]"):
            repack_plan(src, dst, {"a": "z"})

    def test_dropped_source_port_still_repacks(self):
        src = codec_for(ChannelSpec.make("ch", [("a", 8), ("b", 8)]))
        dst = codec_for(ChannelSpec.make("peer", [("b", 8)]))
        plan = repack_plan(src, dst)
        word = src.encode({"a": 0xAA, "b": 0xBB})
        assert repack(word, plan) == 0xBB

    def test_narrowing_rename_masks(self):
        src = codec_for(ChannelSpec.make("ch", [("a", 8)]))
        dst = codec_for(ChannelSpec.make("peer", [("n", 4)]))
        plan = repack_plan(src, dst, {"a": "n"})
        assert repack(src.encode({"a": 0xFF}), plan) == 0x0F


# -- channel integration ------------------------------------------------------

class TestChannelWords:
    def test_word_api_round_trips_through_dict_api(self):
        spec = ChannelSpec.make("ch", [("lo", 4), ("hi", 4)])
        ch = Channel(spec)
        ch.put_word(0xA5)
        ch.put({"lo": 1, "hi": 2})
        assert len(ch) == ch.total_enqueued == 2
        assert ch.head() == {"lo": 5, "hi": 0xA}
        assert ch.head_word() == ch.get_word() == 0xA5
        assert ch.get() == {"lo": 1, "hi": 2}
        assert not ch.has_token()
