"""Channels and tokens."""

import pytest

from repro.errors import SimulationError
from repro.libdn import Channel, ChannelSpec, zeros_token


def _spec(deps=()):
    return ChannelSpec.make("ch", [("a", 4), ("b", 8)], deps)


class TestChannelSpec:
    def test_width_sums_ports(self):
        assert _spec().width == 12

    def test_port_names(self):
        assert _spec().port_names == ("a", "b")

    def test_deps_frozen(self):
        spec = _spec(deps=["x"])
        assert spec.deps == frozenset({"x"})

    def test_zeros_token(self):
        assert zeros_token(_spec()) == {"a": 0, "b": 0}


class TestChannel:
    def test_fifo_order(self):
        ch = Channel(_spec())
        ch.put({"a": 1, "b": 2})
        ch.put({"a": 3, "b": 4})
        assert ch.head() == {"a": 1, "b": 2}
        assert ch.get() == {"a": 1, "b": 2}
        assert ch.get() == {"a": 3, "b": 4}

    def test_empty_get(self):
        ch = Channel(_spec())
        with pytest.raises(SimulationError):
            ch.get()
        with pytest.raises(SimulationError):
            ch.head()

    def test_missing_port_rejected(self):
        ch = Channel(_spec())
        with pytest.raises(SimulationError):
            ch.put({"a": 1})

    def test_enqueue_counter(self):
        ch = Channel(_spec())
        ch.put({"a": 0, "b": 0})
        ch.get()
        ch.put({"a": 0, "b": 0})
        assert ch.total_enqueued == 2
