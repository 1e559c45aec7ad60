"""Every metric the ledger reports: unit, better-direction, bound.

``BENCHMARK.json`` at the repo root is the driver-facing subset: its
contract wants every listed metric from every workload, so it carries
the metrics defined on all six (``CONTRACT_E2E`` / ``CONTRACT_LAYERS``)
and the smoke test pins the two tables against each other.  The
workload-specific rest is reported by ``python -m benchmarks.e2e``.

Host time and simulated time never mix: ``*_s``, ``*_ms``, ``*_us``,
``*_ns`` and ``*_per_s`` are host time; ``platform.*`` and
``libdn.tokens_transferred`` are simulated statistics (``EXACT``) and
must repeat bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

LOWER, HIGHER = "lower", "higher"


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    #: share of the base value by which the metric may worsen before
    #: ``compare`` calls it a regression (end-to-end metrics only)
    bound: Optional[float] = None
    #: the samples are back-to-back compute windows, which have a hard
    #: floor: value each child at its fast decile, not its median (see
    #: ``stats``)
    floor: bool = False


#: the twelve end-to-end metrics.  The bounds are about three times
#: the worst run-to-run spread seen on the 2-core shared host the
#: benchmark was written on (README, "How a timing is valued"); the
#: driver allows at most 0.25.
E2E: Dict[str, Metric] = {
    "setup_s": Metric("s", LOWER, 0.25),
    "rebuild_s": Metric("s", LOWER, 0.25),
    "job_s": Metric("s", LOWER, 0.25),
    "sim_cycles_per_s": Metric("cyc/s", HIGHER, 0.25, floor=True),
    "sim_window_ms_tail": Metric("ms", LOWER, 0.20),
    "peak_rss_mb": Metric("MB", LOWER, 0.10),
    "proc_pipe_cycles_per_s": Metric("cyc/s", HIGHER, 0.15, floor=True),
    "proc_shm_cycles_per_s": Metric("cyc/s", HIGHER, 0.15, floor=True),
    "proc_socket_cycles_per_s": Metric("cyc/s", HIGHER, 0.15, floor=True),
    "job_cold_ms": Metric("ms", LOWER, 0.25),
    "job_cached_ms": Metric("ms", LOWER, 0.25),
    "jobs_per_s": Metric("jobs/s", HIGHER, 0.15),
}

#: defined on all six workloads (see README: on ``service_mix`` the
#: service's own latencies are read under these names too).  The window
#: tail is defined on all six as well, but on a shared host it measures
#: the host's slow phases, so no driver bound rides on it.
CONTRACT_E2E = ("setup_s", "rebuild_s", "job_s", "sim_cycles_per_s",
                "peak_rss_mb")

#: per-layer metrics every workload's traced pass yields
CONTRACT_LAYERS: Dict[str, Metric] = {
    "firrtl.parse_s": Metric("s", LOWER),
    "firrtl.text_bytes": Metric("B", LOWER),
    "fireripper.compile_s": Metric("s", LOWER),
    "fireripper.partitions": Metric("count", LOWER),
    "fireripper.boundary_bits": Metric("bit", LOWER),
    "rtl.elaborate_s": Metric("s", LOWER),
    "rtl.mono_cycles_per_s": Metric("cyc/s", HIGHER),
    "harness.partition_overhead_x": Metric("x", LOWER),
    "harness.build_s": Metric("s", LOWER),
    "harness.schedule_s": Metric("s", LOWER),
    "harness.stepjit_codegen_s": Metric("s", LOWER),
    "harness.first_run_s": Metric("s", LOWER),
    "harness.run_s": Metric("s", LOWER),
    "harness.run_call_overhead_ms": Metric("ms", LOWER),
    "harness.step_us_per_cycle": Metric("us", LOWER),
    "harness.interp_us_per_cycle": Metric("us", LOWER),
    "harness.jit_speedup_x": Metric("x", HIGHER),
    "harness.jit_partitions": Metric("count", HIGHER),
    "harness.interp_partitions": Metric("count", LOWER),
    "harness.fused_units": Metric("count", HIGHER),
    "libdn.tokens_transferred": Metric("count", LOWER),
    "libdn.tokens_per_s": Metric("1/s", HIGHER),
    "libdn.codec_encode_ns": Metric("ns", LOWER),
    "libdn.codec_repack_ns": Metric("ns", LOWER),
    "platform.modelled_rate_hz": Metric("Hz", HIGHER),
    "platform.fmr": Metric("x", LOWER),
    "platform.fmr_compute": Metric("x", LOWER),
    "platform.fmr_serdes": Metric("x", LOWER),
    "platform.fmr_link_wait": Metric("x", LOWER),
    "platform.fmr_credit_stall": Metric("x", LOWER),
    "platform.fmr_sync": Metric("x", LOWER),
    "bench.digest_s": Metric("s", LOWER),
    "bench.ledger_residual_pct": Metric("%", LOWER),
    "bench.trace_overhead_pct": Metric("%", LOWER),
}

#: per-layer metrics only the workload that crosses the layer yields
LAYERS: Dict[str, Metric] = {
    **CONTRACT_LAYERS,
    # ring8_split_process
    "parallel.pipe.us_per_cycle": Metric("us", LOWER),
    "parallel.shm.us_per_cycle": Metric("us", LOWER),
    "parallel.socket.us_per_cycle": Metric("us", LOWER),
    "parallel.pipe.spawn_ms": Metric("ms", LOWER),
    "parallel.shm.spawn_ms": Metric("ms", LOWER),
    "parallel.socket.spawn_ms": Metric("ms", LOWER),
    "parallel.vs_inproc_x": Metric("x", LOWER),
    # service_mix
    "service.normalize_us": Metric("us", LOWER),
    "service.fingerprint_us": Metric("us", LOWER),
    "service.cache_lookup_ms": Metric("ms", LOWER),
    "service.queue_wait_ms": Metric("ms", LOWER),
    "service.execution_ms": Metric("ms", LOWER),
    "service.overhead_ms": Metric("ms", LOWER),
    "service.http_roundtrip_ms": Metric("ms", LOWER),
    "service.executions": Metric("count", LOWER),
    "service.cache_hits": Metric("count", HIGHER),
    "service.coalesced": Metric("count", HIGHER),
    "telemetry.run_record_ms": Metric("ms", LOWER),
    "telemetry.archive_ms": Metric("ms", LOWER),
    "telemetry.latest_ms": Metric("ms", LOWER),
    "telemetry.record_bytes": Metric("B", LOWER),
    # ring8_profiled
    "observability.traced_slowdown_x": Metric("x", LOWER),
    "observability.events_per_cycle": Metric("1/cyc", LOWER),
    "telemetry.samples": Metric("count", LOWER),
}

#: metrics that are counts or simulated statistics: two runs of one
#: commit (or of two commits claiming a simulator-only gain) compare
#: with ``==``
EXACT = frozenset(
    name for name in LAYERS
    if name.startswith("platform.")
    or LAYERS[name].unit in ("count", "bit", "B")
) - {"telemetry.record_bytes"}  # carries a wall-clock timestamp's digits
