"""Metric instruments, the service registry, and a run's metrics read
off its modelled state."""

import json
from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fireripper import EXACT, FAST, FireRipper, PartitionGroup, \
    PartitionSpec
from repro.platform import QSFP_AURORA
from repro.reliability import capture_state, restore_state
from repro.targets import make_comb_pair_circuit
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    metrics_snapshot,
)
from repro.telemetry.metrics import DEFAULT_BUCKETS

_NUMBERS = st.integers(-100, 200) | st.floats(-1e6, 1e6)
_BOUNDS = st.just(DEFAULT_BUCKETS) | st.lists(
    st.integers(-10, 80) | st.floats(-10, 80), min_size=1, max_size=8,
    unique=True).map(sorted).map(tuple)


def _loop_observe(bounds, values):
    """The bucket rule ``Histogram.observe`` had before it bisected:
    the first bound the value does not exceed, else the overflow."""
    buckets, count, total = [0] * (len(bounds) + 1), 0, 0.0
    for value in values:
        for i, bound in enumerate(bounds):
            if value <= bound:
                buckets[i] += 1
                break
        else:
            buckets[-1] += 1
        count += 1
        total += value
    return buckets, count, total


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("tokens", "p0")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_gauge_keeps_last_value(self):
        g = Gauge("depth", "p0")
        g.set(4)
        g.set(1)
        assert g.value == 1

    def test_histogram_buckets_count_and_sum(self):
        h = Histogram("depth", "p0", bounds=(1, 4))
        for v in (1, 2, 3, 9):
            h.observe(v)
        assert h.buckets == [1, 2, 1]  # <=1, <=4, overflow
        assert h.count == 4
        assert h.sum == 15
        assert h.as_dict()["bounds"] == [1, 4]

    @given(st.data())
    def test_one_bucket_rule(self, data):
        """``observe`` lands every value where the old loop did: on a
        bound, between bounds, past the last one, negative, int or
        float — and count and sum follow."""
        bounds = data.draw(_BOUNDS)
        values = data.draw(st.lists(
            st.sampled_from(bounds) | st.just(bounds[-1] + 1)
            | st.just(-abs(bounds[0]) - 1) | _NUMBERS, max_size=40))
        h = Histogram("depth", "p0", bounds=bounds)
        for value in values:
            h.observe(value)
        assert (h.buckets, h.count, h.sum) == _loop_observe(bounds, values)


class TestRegistry:
    def test_same_key_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("tokens", "p0") is reg.counter("tokens", "p0")
        assert reg.counter("tokens", "p0") is not reg.counter(
            "tokens", "p1")
        # kind is part of the key: a gauge never aliases a counter
        assert reg.gauge("tokens", "p0") is not reg.counter(
            "tokens", "p0")

    def test_instruments_are_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z", "p1").inc(2)
        reg.counter("a", "p0").inc(1)
        reg.histogram("h", "p0").observe(3)
        assert [key for key, _ in reg.instruments()] == [
            ("counter", "a", "p0"), ("counter", "z", "p1"),
            ("histogram", "h", "p0")]


def _build(mode=FAST, **sinks):
    spec = PartitionSpec(mode=mode, groups=[
        PartitionGroup.make("fpga1", ["right"])])
    design = FireRipper(spec).compile(make_comb_pair_circuit())
    return design.build_simulation(QSFP_AURORA, **sinks)


class TestRunMetrics:
    """``detail["telemetry"]["metrics"]`` is read off the links and the
    units, not counted a second time."""

    @pytest.mark.parametrize("mode", [FAST, EXACT])
    @pytest.mark.parametrize("jit", [True, False])
    def test_metrics_are_the_link_and_unit_state(self, mode, jit):
        sim = _build(mode, telemetry=Telemetry(sample_every=25))
        sim.stepjit = jit
        sim.channel_capacity = None if mode == FAST else 0
        metrics = sim.run(90).detail["telemetry"]["metrics"]
        counters, hists = metrics["counters"], metrics["histograms"]
        assert metrics["gauges"] == {}
        assert list(counters) == sorted(
            counters, key=lambda key: tuple(key.split("|")))
        for name in sim.partitions:
            out = [l for l in sim.links if l.src[0] == name]
            into = [l for l in sim.links if l.dst[0] == name]
            assert counters.get(f"tokens_tx|{name}", 0.0) \
                == sum(l.tokens for l in out)
            assert counters.get(f"credit_stalls|{name}", 0.0) \
                == sum(l.stalls for l in out)
            received = sum(sum(l.depth_hist.values()) for l in into)
            assert counters.get(f"tokens_rx|{name}", 0.0) == received
            if received:
                buckets = [0] * (len(DEFAULT_BUCKETS) + 1)
                for link in into:
                    for depth, count in link.depth_hist.items():
                        buckets[bisect_left(DEFAULT_BUCKETS, depth)] \
                            += count
                assert hists[f"rx_depth|{name}"]["buckets"] == buckets
                assert hists[f"rx_depth|{name}"]["count"] == received
        # only base has unlinked outputs: one per cycle each
        assert counters["bridge_outputs|base"] >= 90
        assert "bridge_outputs|fpga1" not in counters
        assert all(value for value in counters.values())

    def test_a_restore_without_telemetry_keeps_the_link_counts(self):
        """A checkpoint captured with no telemetry attached, restored
        onto a sampled build: the run's ``tokens_tx`` counts every
        token its links carried, not just the ones since the restore."""
        first = _build()
        first.run(40)
        state = json.loads(json.dumps(capture_state(first)))
        resumed = _build(telemetry=Telemetry(sample_every=20))
        restore_state(resumed, state)
        metrics = resumed.run(80).detail["telemetry"]["metrics"]
        for name in resumed.partitions:
            tokens = sum(l.tokens for l in resumed.links
                         if l.src[0] == name)
            assert tokens > 40
            assert metrics["counters"][f"tokens_tx|{name}"] == tokens
        assert metrics == metrics_snapshot(resumed)
