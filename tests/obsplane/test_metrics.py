"""The service's view of the one instrument model: histogram
quantiles, per-tenant counters, and the Prometheus text exposition."""

from __future__ import annotations

import re

import pytest

from repro.service import ServiceConfig, SimulationService
from repro.service.scheduler import (
    COUNTER_METRICS,
    LATENCY_BUCKETS,
    METRIC_FAMILIES,
)
from repro.telemetry import Histogram, MetricsRegistry, render_prometheus


def latency_histogram():
    return Histogram("execution", "t", LATENCY_BUCKETS)


class TestLatencyHistogram:
    def test_empty_quantiles_are_zero(self):
        hist = latency_histogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.count == 0 and hist.sum == 0.0

    def test_observe_and_snapshot(self):
        hist = latency_histogram()
        for value in (0.002, 0.002, 0.05, 1.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(1.054)
        assert 0.0 < hist.quantile(0.50) <= hist.quantile(0.95) \
            <= hist.quantile(0.99)

    def test_quantiles_bracket_the_landing_bucket(self):
        hist = latency_histogram()
        for _ in range(100):
            hist.observe(0.05)  # lands in (0.02, 0.1]
        assert 0.02 < hist.quantile(0.5) <= 0.1
        assert 0.02 < hist.quantile(0.99) <= 0.1

    def test_overflow_lands_in_inf_bucket(self):
        hist = latency_histogram()
        hist.observe(LATENCY_BUCKETS[-1] * 10)
        assert hist.buckets[-1] == 1
        # the honest answer for an overflowed quantile: >= last edge
        assert hist.quantile(0.5) == LATENCY_BUCKETS[-1]


@pytest.fixture
def service(tmp_path):
    """An unstarted service: its registry and scrape surfaces work
    without the worker pool."""
    return SimulationService(ServiceConfig(
        workers=2, runs_dir=tmp_path / "runs"))


def observe(service, phase, tenant, seconds):
    service.metrics.histogram(phase, tenant,
                              LATENCY_BUCKETS).observe(seconds)


class TestServiceMetrics:
    def test_counters_per_tenant(self, service):
        service.metrics.counter("submitted", "alice").inc()
        service.metrics.counter("submitted", "alice").inc()
        service.metrics.counter("cache_hits", "bob").inc()
        snap = service.stats()["metrics"]
        assert snap["counters"]["submitted"] == {"alice": 2}
        assert snap["counters"]["cache_hits"] == {"bob": 1}
        assert snap["tenants"] == ["alice", "bob"]
        # the flat totals are a view of the same registry
        assert service.counters["submitted"] == 2
        assert service.counters["cache_hits"] == 1

    def test_latency_snapshot_by_phase_then_tenant(self, service):
        observe(service, "queue_wait", "alice", 0.01)
        observe(service, "execution", "alice", 0.2)
        snap = service.stats()["metrics"]
        assert set(snap["latency"]) == {"queue_wait", "execution"}
        assert snap["latency"]["queue_wait"]["alice"]["count"] == 1

    def test_gauges_ride_the_snapshot(self, service):
        snap = service.stats()["metrics"]
        assert snap["gauges"]["active_jobs"] == 0
        assert snap["gauges"]["workers"] == 2

    def test_render_prometheus_text(self, service):
        service.metrics.counter("submitted", "alice").inc(3)
        service.metrics.counter("cache_hits", "bob").inc()
        observe(service, "execution", "alice", 0.05)
        text = service.metrics_text()
        assert text.endswith("\n")
        assert '# TYPE repro_service_jobs_submitted_total counter' \
            in text
        assert 'repro_service_jobs_submitted_total{tenant="alice"} 3' \
            in text
        assert 'repro_service_cache_hits_total{tenant="bob"} 1' \
            in text
        assert "repro_service_queue_depth 0" in text
        assert "repro_service_active_jobs 0" in text
        assert "repro_service_workers 2" in text
        assert "# TYPE repro_service_latency_seconds histogram" \
            in text
        base = 'phase="execution",tenant="alice"'
        assert (f'repro_service_latency_seconds_bucket{{{base},'
                f'le="+Inf"}} 1') in text
        assert f"repro_service_latency_seconds_count{{{base}}} 1" \
            in text

    def test_histogram_buckets_are_cumulative(self, service):
        observe(service, "execution", "t", 0.002)  # le=0.005 bucket
        observe(service, "execution", "t", 0.05)   # le=0.1 bucket
        text = service.metrics_text()
        base = 'phase="execution",tenant="t"'
        assert (f'repro_service_latency_seconds_bucket{{{base},'
                f'le="0.005"}} 1') in text
        assert (f'repro_service_latency_seconds_bucket{{{base},'
                f'le="0.1"}} 2') in text
        assert (f'repro_service_latency_seconds_bucket{{{base},'
                f'le="+Inf"}} 2') in text

    def test_every_counter_renders_even_when_zero(self, service):
        text = service.metrics_text()
        for metric in COUNTER_METRICS.values():
            assert f"# TYPE {metric} counter" in text
            assert f"{metric} 0" in text

    def test_hostile_tenant_label_is_escaped(self):
        """A tenant straight from a POST body cannot forge a sample
        line: ``\\``, ``"`` and newline are escaped per the text
        format, and unescaping the label gives the tenant back."""
        tenant = 'a"} 9\nfake_metric{x="y\\'
        registry = MetricsRegistry()
        registry.counter("submitted", tenant).inc()
        text = render_prometheus(registry, METRIC_FAMILIES, "tenant")
        samples = [line for line in text.splitlines()
                   if line and not line.startswith("#")]
        assert not any(line.startswith("fake_metric")
                       for line in samples)
        (line,) = [s for s in samples if "submitted" in s]
        match = re.fullmatch(
            r'repro_service_jobs_submitted_total'
            r'\{tenant="((?:[^"\\]|\\.)*)"\} 1', line)
        assert match is not None
        unescaped = re.sub(
            r"\\(.)", lambda m: "\n" if m.group(1) == "n"
            else m.group(1), match.group(1))
        assert unescaped == tenant
