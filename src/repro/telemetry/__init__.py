"""Telemetry — *aggregates*: metrics registry, time-series sampling,
run registry, regression gating.

Where :mod:`repro.observability` keeps *records* — "what happened",
one event at a time (traces, the event log, postmortems) — this
package keeps the aggregates: "how much, and compared to what":

* :mod:`~repro.telemetry.metrics` — the one instrument model:
  counters, gauges and histograms scoped by partition (a simulation)
  or tenant (the service) behind a
  :class:`~repro.telemetry.metrics.MetricsRegistry` (null by default
  for a simulation, like the tracer), plus the Prometheus text
  rendering behind ``GET /metrics``,
* :mod:`~repro.telemetry.sampler` — a cycle-keyed
  :class:`~repro.telemetry.sampler.Sampler` emitting deterministic
  per-partition time-series, bit-identical between the in-process loop
  and the process backend (per-worker series ride the existing pipes
  and are merged by the coordinator), plus the
  :class:`~repro.telemetry.sampler.LiveStatus` file ``repro watch``
  polls,
* :mod:`~repro.telemetry.runs` — the persistent
  :class:`~repro.telemetry.runs.RunRegistry` under ``results/runs/``
  and the ``repro compare`` diff (rate delta + FMR attribution),
* :mod:`~repro.telemetry.regression` — the regression detector behind
  ``repro regress`` and the CI ``bench-regression`` gate.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    render_prometheus,
)
from .regression import (
    GateReport,
    Violation,
    check_bench_files,
    check_rates,
    check_run,
    load_baseline,
    measure_canonical,
    run_gate,
    save_baseline,
)
from .runs import (
    RunComparison,
    RunRegistry,
    compare_runs,
    config_fingerprint,
    format_comparison,
    run_record,
)
from .sampler import (
    LiveStatus,
    NULL_TELEMETRY,
    NullTelemetry,
    SAMPLE_FIELDS,
    Sampler,
    Telemetry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "render_prometheus",
    "SAMPLE_FIELDS",
    "Sampler",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "LiveStatus",
    "RunRegistry",
    "RunComparison",
    "run_record",
    "compare_runs",
    "format_comparison",
    "config_fingerprint",
    "GateReport",
    "Violation",
    "measure_canonical",
    "check_rates",
    "check_run",
    "check_bench_files",
    "load_baseline",
    "save_baseline",
    "run_gate",
]
