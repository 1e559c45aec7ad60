"""One repetition of one workload, in a fresh interpreter.

``python -m benchmarks.e2e.child JOB.json`` reads the inputs the driver
generated, runs the workload through the public entry points only, and
writes its samples to the path the job names.  Every ``repro`` module
the run needs is imported here, before any clock starts; the circuit
text is parsed inside the clock, as it is for a CLI or service user.

A child reports samples under the final metric names (one list per
metric, pooled by the driver), the simulated statistics that must
repeat exactly, an attempted/failed count over runs, segments, jobs
and correctness checks, and — in the traced pass — the per-layer
numbers and the spans they came from.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.fireripper import (
    FireRipper,
    NoCPartitionSpec,
    PartitionGroup,
    PartitionSpec,
)
from repro.firrtl import parse_circuit
from repro.fuzz import functional_digest
from repro.harness.monolithic import MonolithicSimulation
from repro.harness.stepjit import compile_step_functions
from repro.libdn.codec import codec_for, repack, repack_plan
from repro.observability.tracer import RecordingTracer
from repro.platform import QSFP_AURORA
from repro.telemetry import Telemetry

from .spans import Recorder, self_time_by_name

now = time.perf_counter


class Ops:
    """Attempted/failed over runs, segments, jobs and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def done(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def peak_rss_mb() -> float:
    """High-water mark of this process or the largest worker it
    forked.  Read when the job (or the service's stream) ends, so the
    windows and checks that follow do not count."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, forked) / 1024.0


def sha256_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def partition_spec(partition: dict) -> PartitionSpec:
    if "noc" in partition:
        return PartitionSpec(mode=partition["mode"],
                             noc=NoCPartitionSpec.make(partition["noc"]))
    groups = [PartitionGroup.make(f"fpga{i}", paths)
              for i, paths in enumerate(partition["extract"])]
    return PartitionSpec(mode=partition["mode"], groups=groups)


def build(design, profiled: bool = False):
    hooks = {}
    if profiled:
        # what `repro profile` / `simulate --metrics` attach
        hooks = {"tracer": RecordingTracer(capacity=4096),
                 "telemetry": Telemetry(sample_every=50)}
    return design.build_simulation(QSFP_AURORA, host_freq_mhz=30.0,
                                   record_outputs=True, **hooks)


def first_cycle(inputs: dict, rec: Recorder):
    """Circuit text to the first target cycle: what ``setup_s`` and
    ``rebuild_s`` time."""
    with rec.span("firrtl.parse"):
        circuit = parse_circuit(inputs["text"])
    with rec.span("fireripper.compile"):
        design = FireRipper(
            partition_spec(inputs["partition"])).compile(circuit)
    with rec.span("harness.build"):
        sim = build(design, inputs["profiled"])
    with rec.span("harness.first_run"):
        sim.run(1, backend=inputs["backend"])
    return circuit, design, sim


def run_windows(sim, inputs: dict, scale: dict, rec: Recorder):
    """Seconds per window of ``window_cycles``."""
    cycles = inputs["window_cycles"]
    cursor = sim.frontier_cycle()
    seconds = []
    for _ in range(scale["windows"]):
        cursor += cycles
        with rec.span("harness.window"):
            t0 = now()
            sim.run(cursor, backend="inproc")
            seconds.append(now() - t0)
    return seconds


def without_sampler(digest: dict) -> dict:
    """The functional digest minus the telemetry series, which only a
    profiled build carries."""
    detail = {k: v for k, v in digest["detail"].items()
              if k != "telemetry"}
    return {**digest, "detail": detail}


def check_against_reference(design, inputs: dict, scale: dict,
                            ops: Ops) -> None:
    """The workload's build equals a reference build of the same
    design over the first cycles: the interpreter (``stepjit=False``)
    for a JIT build; for the profiled build, which the tracer already
    sends to the interpreter, its clean JIT twin."""
    cycles = scale["check_cycles"]
    subject = build(design, inputs["profiled"])
    reference = build(design)
    reference.stepjit = inputs["profiled"]
    got = functional_digest(
        subject, subject.run(cycles, backend="inproc"))
    want = functional_digest(
        reference, reference.run(cycles, backend="inproc"))
    ops.done(2)
    ops.check(without_sampler(got) == without_sampler(want),
              f"first {cycles} cycles differ from the "
              f"{'clean twin' if inputs['profiled'] else 'interpreter'}")


def check_against_monolithic(circuit, sim, ops: Ops) -> None:
    """Exact-mode outputs equal the unpartitioned design's at the same
    target cycle."""
    for (part, chan), log in sim.output_log.items():
        mono = MonolithicSimulation(circuit)
        for cycle in sorted({1, 10, 100, 1000, len(log) - 1}):
            if not 0 < cycle < len(log):
                continue
            mono.run(cycle - mono.sim.cycle)
            ops.check(
                all(mono.sim.peek(port) == value
                    for port, value in log[cycle].items()),
                f"{part}/{chan} at cycle {cycle} differs from "
                "MonolithicSimulation")


def run_tiers(design, inputs: dict, scale: dict, rec: Recorder,
              ops: Ops, samples: dict, layers: dict) -> None:
    """Segment rate of each process tier, spawn and merge included,
    and each tier's equality with the in-process run."""
    for tier in inputs["tiers"]:
        backend, stem, cycles = (tier["backend"], tier["stem"],
                                 tier["cycles"])
        sim = build(design)
        # compiled once in the parent: forked workers inherit the
        # fused kernels instead of rebuilding them per segment
        sim.ensure_schedule()
        compile_step_functions(sim)
        rates = []
        for _ in range(scale["segments"]):
            target = sim.frontier_cycle() + cycles
            with rec.span(f"parallel.{stem}.segment"):
                t0 = now()
                result = sim.run(target, backend=backend)
                rates.append(cycles / (now() - t0))
        ops.done(len(rates))
        samples[f"proc_{stem}_cycles_per_s"] = rates
        reference = build(design)
        want = functional_digest(
            reference, reference.run(target, backend="inproc"))
        ops.done()
        ops.check(functional_digest(sim, result) == want,
                  f"{backend} differs from inproc at cycle {target}")
        if rec.enabled:
            layers[f"parallel.{stem}.us_per_cycle"] = \
                1e6 / statistics.median(rates)
            with rec.span(f"parallel.{stem}.spawn"):
                t0 = now()
                sim.run(target + 1, backend=backend)
                layers[f"parallel.{stem}.spawn_ms"] = (now() - t0) * 1e3
            ops.done()


def widest_link_codecs(design, sim):
    """(source codec, repack plan) of the widest cross-partition
    channel — the token the codec layer works hardest on."""
    def codecs(link):
        src = next(s for s in design.plan.channels[link.src[0]].out_specs
                   if s.name == link.src[1])
        dst = next(s for s in design.plan.channels[link.dst[0]].in_specs
                   if s.name == link.dst[1])
        return codec_for(src), codec_for(dst), link.rename

    src, dst, rename = max(map(codecs, sim.links),
                           key=lambda found: found[0].width)
    return src, repack_plan(src, dst, rename)


def per_call_ns(fn, *args, calls: int = 2000) -> float:
    t0 = now()
    for _ in range(calls):
        fn(*args)
    return (now() - t0) / calls * 1e9


def sim_layers(rec: Recorder, inputs: dict, circuit, design, sim,
               result, window_s, tokens_in_windows: int) -> dict:
    """The per-layer numbers of a sim workload's traced pass."""
    own = self_time_by_name(rec.spans)
    job = next(s for s in rec.spans if s["name"] == "job")
    layers = {
        "firrtl.parse_s": own["firrtl.parse"],
        "firrtl.text_bytes": len(inputs["text"].encode()),
        "fireripper.compile_s": own["fireripper.compile"],
        "fireripper.partitions": len(design.partitions),
        "fireripper.boundary_bits": design.plan.total_boundary_width(),
        "harness.build_s": own["harness.build"],
        "harness.first_run_s": own["harness.first_run"],
        "harness.run_s": own["harness.run"],
        "bench.digest_s": own["bench.digest"],
        # the phases of the job sum to the job
        "bench.ledger_residual_pct":
            100.0 * abs(own["job"]) / (job["end"] - job["start"]),
    }

    window_cycles = inputs["window_cycles"]
    step_s = statistics.median(window_s) / window_cycles
    layers["harness.step_us_per_cycle"] = step_s * 1e6
    layers["libdn.tokens_transferred"] = result.tokens_transferred
    layers["libdn.tokens_per_s"] = tokens_in_windows / sum(window_s)

    # the unpartitioned design is the ceiling
    t0 = now()
    mono = MonolithicSimulation(circuit)
    layers["rtl.elaborate_s"] = now() - t0
    t0 = now()
    mono.run(window_cycles)
    mono_rate = window_cycles / (now() - t0)
    layers["rtl.mono_cycles_per_s"] = mono_rate
    layers["harness.partition_overhead_x"] = mono_rate * step_s

    # run(frontier+1): what every run() call pays before it steps
    overhead = []
    for _ in range(5):
        t0 = now()
        sim.run(sim.frontier_cycle() + 1, backend="inproc")
        overhead.append(now() - t0)
    layers["harness.run_call_overhead_ms"] = \
        statistics.median(overhead) * 1e3
    verdicts = list(sim.last_jit_report.values())
    layers["harness.jit_partitions"] = sum(
        v.startswith("compiled") for v in verdicts)
    layers["harness.interp_partitions"] = sum(
        not v.startswith("compiled") for v in verdicts)
    layers["harness.fused_units"] = sum(
        int(n) for v in verdicts
        for n in re.findall(r"\((\d+) fused-kernel\)", v))

    # a fresh clean build: schedule and codegen on their own, then the
    # interpreter over a short window
    twin = build(design)
    t0 = now()
    twin.ensure_schedule()
    layers["harness.schedule_s"] = now() - t0
    t0 = now()
    compile_step_functions(twin)
    layers["harness.stepjit_codegen_s"] = now() - t0
    short = min(window_cycles, 500)
    twin.stepjit = False
    twin.run(100, backend="inproc")
    t0 = now()
    twin.run(100 + short, backend="inproc")
    interp_s = (now() - t0) / short
    layers["harness.interp_us_per_cycle"] = interp_s * 1e6
    layers["harness.jit_speedup_x"] = interp_s / step_s

    if sim.links:
        src, plan = widest_link_codecs(design, sim)
        token = {port: mask for port, _, mask in src.fields}
        layers["libdn.codec_encode_ns"] = per_call_ns(src.encode, token)
        layers["libdn.codec_repack_ns"] = per_call_ns(
            repack, src.encode(token), plan)

    # simulated time: the partition that sets the modelled rate
    fmr = result.detail["fmr"]
    slowest = max(fmr, key=fmr.get)
    layers["platform.modelled_rate_hz"] = result.rate_hz
    layers["platform.fmr"] = fmr[slowest]
    for part, value in result.detail["fmr_breakdown"][slowest].items():
        layers[f"platform.fmr_{part}"] = value

    if inputs["profiled"]:
        clean = build(design)
        clean.run(100, backend="inproc")
        t0 = now()
        clean.run(100 + window_cycles, backend="inproc")
        layers["observability.traced_slowdown_x"] = \
            step_s / ((now() - t0) / window_cycles)
        layers["observability.events_per_cycle"] = \
            sim.tracer.total_emitted / sim.frontier_cycle()
        layers["telemetry.samples"] = sum(
            len(points) for points in
            sim.result().detail["telemetry"]["series"].values())
    return layers


def run_sim(inputs: dict, scale: dict, rec: Recorder, ops: Ops,
            check: bool = True) -> dict:
    """A sim workload: cold text -> first cycle -> job, steady-state
    windows, the same text again warm, then (``check``) the
    cross-check."""
    backend = inputs["backend"]
    samples, layers = {}, {}

    started = now()
    with rec.span("job"):
        circuit, design, sim = first_cycle(inputs, rec)
        samples["setup_s"] = [now() - started]
        with rec.span("harness.run"):
            result = sim.run(inputs["job_cycles"], backend=backend)
        with rec.span("bench.digest"):
            digest = sha256_of(functional_digest(sim, result))
    samples["job_s"] = [now() - started]
    samples["peak_rss_mb"] = [peak_rss_mb()]
    ops.done(2)
    exact = {"digest_sha256": digest,
             "platform.modelled_rate_hz": result.rate_hz,
             "libdn.tokens_transferred": result.tokens_transferred}

    if backend == "inproc":
        window_sim = sim
    else:
        # the same design in-process is the reference the process
        # backend is read against, and must equal
        window_sim = build(design)
        reference = window_sim.run(inputs["job_cycles"], backend="inproc")
        ops.done()
        ops.check(
            sha256_of(functional_digest(window_sim, reference)) == digest,
            f"{backend} differs from inproc at the job's last cycle")
    tokens_before = window_sim.result().tokens_transferred
    window_s = run_windows(window_sim, inputs, scale, rec)
    ops.done(len(window_s))
    samples["window_ms"] = [s * 1e3 for s in window_s]
    samples["sim_cycles_per_s"] = [
        inputs["window_cycles"] / s for s in window_s]
    tokens_in_windows = \
        window_sim.result().tokens_transferred - tokens_before

    started = now()
    first_cycle(inputs, Recorder(False))
    samples["rebuild_s"] = [now() - started]
    ops.done()

    tiers = "tiers" in inputs and scale["segments"] > 0
    if tiers:
        run_tiers(design, inputs, scale, rec, ops, samples, layers)
    if check and inputs["partition"]["mode"] == "exact":
        check_against_monolithic(circuit, sim, ops)
    elif check:
        check_against_reference(design, inputs, scale, ops)
    if rec.enabled:
        layers.update(sim_layers(
            rec, inputs, circuit, design, window_sim, result,
            window_s, tokens_in_windows))
        if tiers:
            layers["parallel.vs_inproc_x"] = (
                statistics.median(samples["sim_cycles_per_s"])
                / statistics.median(samples["proc_pipe_cycles_per_s"]))
    return {"samples": samples, "exact": exact, "layers": layers}


def run_service(inputs: dict, scale: dict, rec: Recorder, ops: Ops,
                runs_dir: str) -> dict:
    """The service workload: a closed loop of two clients against a
    two-worker ``ServiceThread`` — cold jobs, a stream of repeats,
    then colliding pairs — and the cached-record identity check."""
    from benchmarks.bench_service import IDENTITY_KEYS
    from repro.service import (
        ServiceConfig,
        ServiceThread,
        execute_config,
        normalize_config,
    )
    from repro.telemetry import RunRegistry, config_fingerprint
    from repro.telemetry.runs import run_record

    def config(index: int) -> dict:
        return {"kind": "simulate", "circuit_text": inputs["text"],
                "extract": inputs["partition"]["extract"],
                "mode": inputs["partition"]["mode"],
                "cycles": inputs["job_cycles"] + index,
                "backend": "inproc"}

    stream = inputs["stream"]
    cold, cached, collided = [], [], []  # (latency seconds, record)
    barrier = threading.Barrier(2, timeout=120)

    def submit(client, spans: Recorder, submission: dict, sink: list,
               wait: bool):
        with spans.span("service.job"):
            t0 = now()
            with spans.span("service.http_submit"):
                record = client.submit(
                    config(submission["config"]),
                    tenant=submission["tenant"],
                    priority=submission["priority"])
            if wait:
                with spans.span("service.http_wait"):
                    record = client.wait(record["job_id"], timeout=120)
            sink.append((now() - t0, record))

    def client_loop(index: int, client) -> None:
        # a recorder is not thread-safe: the traced pass keeps the
        # first client's spans and the second runs the null recorder
        spans = rec if index == 0 else Recorder(False)
        for submission in stream["cold"][index::2]:
            submit(client, spans, submission, cold, wait=True)
        barrier.wait()  # repeats only hit once every cold job is in
        for submission in stream["cached"][index::2]:
            submit(client, spans, submission, cached, wait=False)
        for pair in stream["collide"]:
            barrier.wait()  # both clients submit the config at once
            submit(client, spans, pair[index], collided, wait=True)

    samples, layers = {}, {}
    started = now()
    thread = ServiceThread(ServiceConfig(workers=2, runs_dir=runs_dir))
    try:
        clients = [thread.client(), thread.client()]
        before = clients[0].stats()["counters"]
        samples["setup_s"] = [now() - started]
        stream_started = now()
        with ThreadPoolExecutor(2) as pool:
            for future in [pool.submit(client_loop, i, c)
                           for i, c in enumerate(clients)]:
                future.result()
        stream_s = now() - stream_started
        counters = clients[0].stats()["counters"]
        if rec.enabled:
            roundtrips = []
            for _ in range(50):
                t0 = now()
                clients[0].health()
                roundtrips.append(now() - t0)
            layers["service.http_roundtrip_ms"] = \
                statistics.median(roundtrips) * 1e3
    finally:
        thread.stop()

    for _, record in cold + collided:
        ops.check(record.get("state") == "done",
                  f"job {record.get('job_id')}: {record.get('state')} "
                  f"{record.get('error')}")
    for _, record in cached:
        ops.check(record.get("state") == "done"
                  and record.get("source") == "cache",
                  f"repeat {record.get('job_id')} was not a cache hit")
    samples["peak_rss_mb"] = [peak_rss_mb()]
    answered = cold + cached + collided
    jobs = len(answered)
    cycles = sum(r["config"]["cycles"] for _, r in answered)
    samples["job_cold_ms"] = [s * 1e3 for s, _ in cold]
    samples["job_cached_ms"] = [s * 1e3 for s, _ in cached]
    samples["jobs_per_s"] = [jobs / stream_s]
    # the same latencies under the names every workload reports: a
    # cold job is the service user's text -> result, a repeat is the
    # same text again with warm caches, the stream delivers target
    # cycles per host second, and its windows are the repeat jobs
    samples["job_s"] = [s for s, _ in cold]
    samples["rebuild_s"] = [s for s, _ in cached]
    samples["sim_cycles_per_s"] = [cycles / stream_s]
    samples["window_ms"] = samples["job_cached_ms"]
    moved = {key: counters[key] - before[key]
             for key in ("executions", "cache_hits", "coalesced")}

    # a cached record equals a fresh execution, field for field; config
    # 0 is a cold job at every scale, so expect.json holds at each
    registry = RunRegistry(runs_dir)
    normalized = normalize_config(config(0))
    fingerprint = config_fingerprint(normalized)
    archived = registry.latest(fingerprint)
    t0 = now()
    with rec.span("service.execute_direct"):
        outcome = execute_config(normalized, should_stop=lambda: False)
    direct_s = now() - t0
    ops.done()
    fresh = json.loads(json.dumps(
        run_record(outcome.result, config=normalized)))
    ops.check(archived is not None and all(
        archived[key] == fresh[key] for key in IDENTITY_KEYS),
        "cached record differs from a fresh execute_config")
    exact = {
        "digest_sha256": sha256_of(
            {key: fresh[key] for key in IDENTITY_KEYS}),
        "platform.modelled_rate_hz": outcome.result.rate_hz,
        "libdn.tokens_transferred": outcome.result.tokens_transferred,
        **{f"service.{key}": value for key, value in moved.items()},
    }

    if rec.enabled:
        raw = config(0)
        layers["service.normalize_us"] = \
            per_call_ns(normalize_config, raw, calls=200) / 1e3
        layers["service.fingerprint_us"] = \
            per_call_ns(config_fingerprint, normalized, calls=200) / 1e3
        for field in ("cache_lookup", "queue_wait", "execution"):
            layers[f"service.{field}_ms"] = statistics.median(
                r[f"{field}_s"] for _, r in cold) * 1e3
        layers["service.overhead_ms"] = (
            statistics.median(samples["job_cold_ms"]) - direct_s * 1e3)
        for key, value in moved.items():
            layers[f"service.{key}"] = value
        t0 = now()
        run_record(outcome.result, config=normalized)
        layers["telemetry.run_record_ms"] = (now() - t0) * 1e3
        t0 = now()
        path = registry.archive(outcome.result, name="bench",
                                config={"bench": "archive probe"})
        layers["telemetry.archive_ms"] = (now() - t0) * 1e3
        layers["telemetry.record_bytes"] = path.stat().st_size
        lookups = []
        for _ in range(20):
            t0 = now()
            registry.latest(fingerprint)
            lookups.append(now() - t0)
        layers["telemetry.latest_ms"] = \
            statistics.median(lookups) * 1e3
        # the layers under one cold job: the same config family run
        # directly, phase by phase
        direct = dict(inputs, job_cycles=inputs["job_cycles"]
                      + 2 * len(stream["collide"]))
        layers.update(run_sim(direct, scale, rec, ops)["layers"])
    return {"samples": samples, "exact": exact, "layers": layers}


def main(argv) -> int:
    job = json.loads(Path(argv[0]).read_text())
    inputs, scale = job["inputs"], job["scale"]
    rec = Recorder(job["trace"], job["workload"])
    ops = Ops()
    if job["kind"] == "service":
        out = run_service(inputs, scale, rec, ops, job["runs_dir"])
    else:
        out = run_sim(inputs, scale, rec, ops, job["check"])
    out["ops"] = {"attempted": ops.attempted, "failures": ops.failures}
    out["spans"] = rec.spans
    Path(job["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
