"""Observability-overhead benchmark: free when off, near the JIT when
on.

**Off.**  Every emit site in the interpreter/wrapper/link layers guards
on the tracer's (and telemetry's) ``enabled`` flag, and the compiled
step plane emits nothing at all for a null sink, so an untraced run
(``tracer=None``) and an explicit :class:`NullTracer` run execute the
identical path — this bench pins that a null sink stays under a 5%
overhead versus the untraced run, for the tracer and for the telemetry
layer (in-process *and* under the process backend, where the guard
also sits on the workers' hot path).  Those are whole cold runs,
min-of-repeats to shed scheduler noise.

**On.**  A live sink keeps its partition on the compiled step plane
(the emit sites are generated into the step function), so its cost is
measured against the clean JIT run of the same design: a warm window
on the 8-tile streaming ring ``bench_e2e``'s ``ring8_profiled`` runs
(three partitions whose registers never reach a fixed point — a
design with RTL work per cycle, where the comb pair has none), once
with the ``RecordingTracer`` ring and once with the 50-cycle sampler
that ``repro profile`` / ``simulate --metrics`` attach.  Gated at the
ROADMAP's recording <= 2x and sampling <= 25%.

The measured numbers merge into ``results/BENCH_trace_overhead.json``.

**Around the simulation.**  The service's counters and latency
histograms are always on (one registry, no null surface to compare
against), so what is left to price on its hot path — the cache-hit
submit: fingerprint probe, archived-record load, terminal job — is the
JSONL event log, three fsync-free appends per hit.  Its cost is
reported (``logged_overhead_pct``), not bounded.  An untimed
cross-check pins that the whole surface actually *works* under the
service (events logged, ``/metrics`` scrapes, the corr id joins job
record to archived run) so the committed numbers can never come from a
silently disabled sink.  Those merge into
``results/BENCH_service_metrics.json``, gated by ``repro regress``
(:data:`repro.telemetry.regression.BENCH_CHECKS`).
"""

import asyncio
import json
import time
from pathlib import Path

from repro.fireripper import (
    EXACT,
    FAST,
    FireRipper,
    NoCPartitionSpec,
    PartitionGroup,
    PartitionSpec,
)
from repro.firrtl import print_circuit
from repro.observability import NullTracer, RecordingTracer, read_events
from repro.parallel import fork_available
from repro.platform import QSFP_AURORA
from repro.service import ServiceConfig, ServiceThread, SimulationService
from repro.targets import make_comb_pair_circuit
from repro.targets.programs import (
    ADDR_IN_POP,
    ADDR_IN_VALID,
    ADDR_OUT_PUSH,
    ADDR_OUT_READY,
    assemble,
)
from repro.targets.soc import make_ring_noc_soc
from repro.telemetry import NullTelemetry, RunRegistry, Telemetry

CYCLES = 400
REPEATS = 7
MAX_NULL_OVERHEAD = 0.05
#: live sinks against the clean JIT: warm-up, then one timed window
WARM_CYCLES = 100
WINDOW_CYCLES = 1000
MAX_RECORDING_VS_JIT = 2.0
MAX_SAMPLING_VS_JIT = 0.25
#: cache-hit submits per timing, timings per variant
SUBMITS = 40
SERVICE_REPEATS = 5

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _merge_results(payload: dict,
                   name: str = "BENCH_trace_overhead.json") -> None:
    """Merge ``payload`` into a shared results file (the tests
    writing one file each own a disjoint set of keys)."""
    path = RESULTS / name
    RESULTS.mkdir(parents=True, exist_ok=True)
    existing = {}
    if path.is_file():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = {}
    existing.update(payload)
    path.write_text(json.dumps(existing, indent=2) + "\n")


def _compile_pair():
    spec = PartitionSpec(mode=EXACT, groups=[
        PartitionGroup.make("fpga1", ["right"])])
    return FireRipper(spec).compile(make_comb_pair_circuit())


def _min_seconds(design, sinks, warm=0, cycles=CYCLES,
                 backend="inproc"):
    """Best-of-N wall time of one timed ``run`` per sink set (each
    entry of ``sinks`` makes the ``tracer=`` / ``telemetry=`` keywords
    of one variant): a whole cold run, or with ``warm`` a window after
    that many warm-up cycles.

    Variants are *interleaved* (one run of each per repeat) so clock
    drift and allocator state hit them equally — running each variant's
    repeats back to back biases whichever went first.  Every
    partition must have run its compiled step function: a sink that
    evicts one to the interpreter is the regression this bench exists
    to catch.
    """
    best = [float("inf")] * len(sinks)
    for _ in range(REPEATS):
        for i, make_sinks in enumerate(sinks):
            sim = design.build_simulation(QSFP_AURORA, **make_sinks())
            if warm:
                sim.run(warm, backend=backend)
            t0 = time.perf_counter()
            sim.run(warm + cycles, backend=backend)
            best[i] = min(best[i], time.perf_counter() - t0)
            assert all(v.startswith("compiled")
                       for v in sim.last_jit_report.values()), \
                sim.last_jit_report
    return best


NULL_TELEMETRY_VARIANTS = [dict, lambda: {"telemetry": NullTelemetry()}]


def test_null_tracer_overhead_under_5pct():
    design = _compile_pair()
    untraced, null = _min_seconds(
        design, [dict, lambda: {"tracer": NullTracer()}])

    null_overhead = null / untraced - 1.0
    payload = {
        "cycles": CYCLES,
        "repeats": REPEATS,
        "untraced_s": untraced,
        "null_tracer_s": null,
        "null_overhead_pct": null_overhead * 100.0,
        "bound_pct": MAX_NULL_OVERHEAD * 100.0,
    }
    _merge_results(payload)
    print(f"\nnull-tracer overhead: {null_overhead * 100.0:+.2f}% "
          f"(bound {MAX_NULL_OVERHEAD * 100.0:.0f}%)")
    assert null_overhead < MAX_NULL_OVERHEAD, payload


def test_null_metrics_overhead_under_5pct():
    """A disabled telemetry session must be free on both backends."""
    design = _compile_pair()
    plain, null = _min_seconds(design, NULL_TELEMETRY_VARIANTS)
    null_overhead = null / plain - 1.0

    payload = {
        "metrics_cycles": CYCLES,
        "metrics_repeats": REPEATS,
        "plain_s": plain,
        "null_metrics_s": null,
        "null_metrics_overhead_pct": null_overhead * 100.0,
    }
    if fork_available():
        proc_plain, proc_null = _min_seconds(
            design, NULL_TELEMETRY_VARIANTS, backend="process")
        proc_overhead = proc_null / proc_plain - 1.0
        payload.update({
            "process_plain_s": proc_plain,
            "process_null_metrics_s": proc_null,
            "process_null_overhead_pct": proc_overhead * 100.0,
        })
    _merge_results(payload)
    print(f"\nnull-metrics overhead: {null_overhead * 100.0:+.2f}% "
          f"(bound {MAX_NULL_OVERHEAD * 100.0:.0f}%)"
          + (f"; process-backend null: "
             f"{payload['process_null_overhead_pct']:+.2f}%"
             if "process_null_overhead_pct" in payload else ""))
    assert null_overhead < MAX_NULL_OVERHEAD, payload
    if "process_null_overhead_pct" in payload:
        assert payload["process_null_overhead_pct"] \
            < MAX_NULL_OVERHEAD * 100.0, payload


def _compile_streaming_ring():
    """The 8-tile ring of ``ring8_profiled``: every tile pushes an
    ever-increasing value whenever its queue has room and the hub pops
    and checksums forever, split 2 x 4 tiles + base, fast-mode."""
    stream = assemble([
        ("LI", "r3", 1),
        "loop:",
        ("LD", "r4", "r0", ADDR_OUT_READY),
        ("BEQ", "r4", "r0", "loop"),
        ("ST", "r3", "r0", ADDR_OUT_PUSH),
        ("ADDI", "r3", "r3", 7),
        ("JMP", "loop"),
    ])
    drain = assemble([
        ("LI", "r3", 0),
        "loop:",
        ("LD", "r4", "r0", ADDR_IN_VALID),
        ("BEQ", "r4", "r0", "loop"),
        ("LD", "r5", "r0", ADDR_IN_POP),
        ("ADD", "r3", "r3", "r5"),
        ("OUT", "r3"),
        ("JMP", "loop"),
    ])
    spec = PartitionSpec(mode=FAST, noc=NoCPartitionSpec.make(
        [[0, 1, 2, 3], [4, 5, 6, 7]]))
    return FireRipper(spec).compile(
        make_ring_noc_soc(8, [stream] * 8, drain))


def test_live_sinks_stay_near_the_jit():
    design = _compile_streaming_ring()
    clean, recording, sampling = _min_seconds(design, [
        dict,
        lambda: {"tracer": RecordingTracer(capacity=4096)},
        lambda: {"telemetry": Telemetry(sample_every=50)}],
        warm=WARM_CYCLES, cycles=WINDOW_CYCLES)
    payload = {
        "jit_window_cycles": WINDOW_CYCLES,
        "jit_clean_s": clean,
        "jit_recording_s": recording,
        "jit_sampling_s": sampling,
        "recording_vs_jit_x": recording / clean,
        "sampling_vs_jit_pct": (sampling / clean - 1.0) * 100.0,
        "recording_vs_jit_bound_x": MAX_RECORDING_VS_JIT,
        "sampling_vs_jit_bound_pct": MAX_SAMPLING_VS_JIT * 100.0,
    }
    _merge_results(payload)
    print(f"\nrecording tracer: {payload['recording_vs_jit_x']:.2f}x "
          f"the clean JIT (bound {MAX_RECORDING_VS_JIT:.0f}x); "
          f"sampling every 50 cycles: "
          f"{payload['sampling_vs_jit_pct']:+.2f}% "
          f"(bound {MAX_SAMPLING_VS_JIT * 100.0:.0f}%)")
    assert payload["recording_vs_jit_x"] <= MAX_RECORDING_VS_JIT, payload
    assert payload["sampling_vs_jit_pct"] \
        <= MAX_SAMPLING_VS_JIT * 100.0, payload


def _job_config():
    return {"kind": "simulate",
            "circuit_text": print_circuit(make_comb_pair_circuit()),
            "extract": ["right"], "mode": "fast", "cycles": 60}


async def _time_cache_hits(config: ServiceConfig) -> float:
    """Seconds per cache-hit submit: one cold execution warms the
    cache, then ``SUBMITS`` identical submits ride the hit path."""
    service = SimulationService(config)
    await service.start()
    try:
        job_config = _job_config()
        job = await service.submit(job_config)
        if job.state != "done":
            await service.wait(job.job_id)
        t0 = time.perf_counter()
        for _ in range(SUBMITS):
            await service.submit(job_config)
        return (time.perf_counter() - t0) / SUBMITS
    finally:
        await service.shutdown()


def test_event_log_cost_on_the_cache_hit_path(tmp_path):
    def variants():
        return [
            ("metrics", ServiceConfig(
                workers=1, runs_dir=tmp_path / "metrics")),
            ("logged", ServiceConfig(
                workers=1, runs_dir=tmp_path / "logged",
                event_log=tmp_path / "ev.jsonl")),
        ]

    best = {name: float("inf") for name, _ in variants()}
    for _ in range(SERVICE_REPEATS):
        for name, config in variants():
            seconds = asyncio.run(_time_cache_hits(config))
            best[name] = min(best[name], seconds)

    logged_overhead = best["logged"] / best["metrics"] - 1.0
    _merge_results({
        "submits": SUBMITS,
        "repeats": SERVICE_REPEATS,
        "metrics_submit_s": best["metrics"],
        "logged_submit_s": best["logged"],
        "logged_overhead_pct": logged_overhead * 100.0,
    }, "BENCH_service_metrics.json")
    print(f"\ncache-hit submit: {best['metrics'] * 1e6:.1f}µs, "
          f"event-logged {logged_overhead * 100.0:+.2f}%")


def test_full_plane_functions_under_service(tmp_path):
    """Untimed cross-check: the numbers above describe a surface that
    demonstrably works — events land, /metrics scrapes, the corr id
    joins the job to its archived run and trace spans."""
    config = ServiceConfig(workers=1, runs_dir=tmp_path / "runs",
                           event_log=tmp_path / "ev.jsonl",
                           trace_events=64)
    thread = ServiceThread(config)
    try:
        client = thread.client()
        record = client.wait(
            client.submit(_job_config())["job_id"])
        hit = client.wait(
            client.submit(_job_config(),
                          tenant="reader")["job_id"])
        metrics_text = client.metrics()
    finally:
        thread.stop()

    assert record["state"] == "done"
    assert hit["source"] == "cache"
    entries = list(read_events(tmp_path / "ev.jsonl"))
    run_record = RunRegistry(tmp_path / "runs").load(
        record["run_id"])
    obs = run_record["obs"]
    scrape_ok = (
        'repro_service_cache_hits_total{tenant="reader"} 1'
        in metrics_text
        and 'phase="execution"' in metrics_text)
    payload = {
        "events_logged": len(entries),
        "trace_spans_archived": len(obs.get("trace_events", [])),
        "metrics_scrape_ok": bool(scrape_ok),
        "corr_joined": bool(obs.get("corr_id")
                            == record["corr_id"]),
    }
    _merge_results(payload, "BENCH_service_metrics.json")
    print(f"\nfull plane: {payload['events_logged']} events, "
          f"{payload['trace_spans_archived']} archived spans, "
          f"scrape_ok={payload['metrics_scrape_ok']}, "
          f"corr_joined={payload['corr_joined']}")
    assert payload["events_logged"] >= 8
    assert payload["trace_spans_archived"] > 0
    assert payload["metrics_scrape_ok"]
    assert payload["corr_joined"]
