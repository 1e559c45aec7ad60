"""Telemetry — *aggregates*: metric instruments, time-series sampling,
run registry, the modelled-rate gate.

Where :mod:`repro.observability` keeps *records* — "what happened",
one event at a time (traces, the event log, postmortems) — this
package keeps the aggregates: "how much, and compared to what":

* :mod:`~repro.telemetry.metrics` — the one instrument model:
  counters, gauges and histograms scoped by one label, held by the
  service's :class:`~repro.telemetry.metrics.MetricsRegistry`, plus
  the Prometheus text rendering behind ``GET /metrics``,
* :mod:`~repro.telemetry.sampler` — a simulation's
  :class:`~repro.telemetry.sampler.Telemetry` (null by default, like
  the tracer): a cycle-keyed
  :class:`~repro.telemetry.sampler.Sampler` emitting deterministic
  per-partition time-series, bit-identical between the in-process loop
  and the process backend (per-worker series ride the existing pipes
  and are merged by the coordinator), the run's metrics read off the
  modelled state (:func:`~repro.telemetry.sampler.metrics_snapshot`),
  plus the
  :class:`~repro.telemetry.sampler.LiveStatus` file ``repro watch``
  polls,
* :mod:`~repro.telemetry.runs` — the persistent
  :class:`~repro.telemetry.runs.RunRegistry` under ``results/runs/``
  and the ``repro compare`` diff (rate delta + FMR attribution),
* :mod:`~repro.telemetry.regression` — the exact modelled-rate gate
  behind ``repro regress``.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from .regression import (
    GateReport,
    Violation,
    check_rates,
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
    metrics_snapshot,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
    "SAMPLE_FIELDS",
    "Sampler",
    "Telemetry",
    "metrics_snapshot",
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
    "load_baseline",
    "save_baseline",
    "run_gate",
]
