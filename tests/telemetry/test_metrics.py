"""Metric instruments and the partition-scoped registry."""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
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

    def test_value_reads_without_creating(self):
        reg = MetricsRegistry()
        assert reg.value("counter", "never_touched", "p0") == 0.0
        assert reg.partitions() == []
        reg.counter("tokens", "p0").inc(7)
        assert reg.value("counter", "tokens", "p0") == 7.0

    def test_partitions_lists_owners(self):
        reg = MetricsRegistry()
        reg.counter("a", "p1").inc()
        reg.gauge("b", "p0").set(1)
        assert reg.partitions() == ["p0", "p1"]

    def test_snapshot_is_sorted_and_json_able(self):
        reg = MetricsRegistry()
        reg.counter("z", "p1").inc(2)
        reg.counter("a", "p0").inc(1)
        reg.histogram("h", "p0").observe(3)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a|p0", "z|p1"]
        assert json.loads(json.dumps(snap)) == snap

    def test_snapshot_part_filter(self):
        reg = MetricsRegistry()
        reg.counter("a", "p0").inc(1)
        reg.counter("a", "p1").inc(2)
        snap = reg.snapshot(part="p1")
        assert snap["counters"] == {"a|p1": 2.0}

    def test_load_snapshot_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("tokens", "p0").inc(3)
        reg.gauge("depth", "p1").set(5)
        reg.histogram("h", "p0", bounds=(2, 8)).observe(6)
        restored = MetricsRegistry()
        restored.load_snapshot(reg.snapshot())
        assert restored.snapshot() == reg.snapshot()

    def test_load_snapshot_part_filter_merges_one_worker(self):
        """The coordinator's merge path: loading with ``part=`` takes
        only that partition's instruments from a worker snapshot."""
        worker = MetricsRegistry()
        worker.counter("tokens", "p0").inc(1)
        worker.counter("tokens", "p1").inc(9)  # not p0's to contribute
        parent = MetricsRegistry()
        parent.load_snapshot(worker.snapshot(), part="p0")
        assert parent.value("counter", "tokens", "p0") == 1.0
        assert parent.partitions() == ["p0"]


class TestNullRegistry:
    def test_disabled_and_absorbs_everything(self):
        assert NULL_METRICS.enabled is False
        assert isinstance(NULL_METRICS, NullMetricsRegistry)
        NULL_METRICS.counter("tokens", "p0").inc(5)
        NULL_METRICS.gauge("depth").set(3)
        NULL_METRICS.histogram("h").observe(1)
        assert NULL_METRICS.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        assert NULL_METRICS.value("counter", "tokens", "p0") == 0.0
