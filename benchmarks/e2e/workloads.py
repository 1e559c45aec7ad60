"""The six named workloads and their seeded inputs.

Everything the program under test sees is generated here, in the
driver process, before any clock starts: circuit *text* (as CLI and
service users hand it over), the partition selection, cycle counts and
the service's job stream.  ``--seed`` reaches the per-tile stream
strides, the service config order, tenants, priorities and which client
leads each colliding pair; ``widepair1024_exact`` has no generated part.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List

from repro.firrtl import print_circuit
from repro.targets.programs import (
    ADDR_IN_POP,
    ADDR_IN_VALID,
    ADDR_OUT_PUSH,
    ADDR_OUT_READY,
    assemble,
    sender_program,
    sink_program,
)
from repro.targets.soc import make_ring_noc_soc, make_wide_pair

DEFAULT_SEED = 7
TENANTS = ("alice", "bob", "carol")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sim" | "split" | "service"
    #: one line for BENCHMARK.json (at most 200 characters)
    brief: str
    #: what runs and why it is here, as the issue that defined the
    #: benchmark put it; every ledger carries both
    what: str
    why: str
    job_cycles: int = 0
    window_cycles: int = 0


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "ring24_stream", "sim",
        "5-partition 24-tile ring whose tiles never halt: the fused RTL "
        "kernels and the step loop do all the steady-state work, so "
        "kernel and step-plan changes show here",
        "`make_ring_noc_soc(24)` with every tile running a never-halting "
        "stream program and the hub a never-halting drain (assembled in "
        "the bench with `targets.programs.assemble`), NoC-partition-mode "
        "4x6 tiles + base = 5 partitions, fast-mode, QSFP, inproc, JIT "
        "on; `job_cycles=10000`, then 12 windows x 1000 cycles",
        "the ROADMAP's \"5-partition, 10k-cycle job\"; registers never "
        "reach a fixed point, so the fused RTL kernels and the step loop "
        "do all the steady-state work and set-up is ~45 % of `job_s`. "
        "Kernel / step-plan work shows here.",
        job_cycles=10000, window_cycles=1000),
    Workload(
        "ring24_boot", "sim",
        "same design with the Sec. V-A boot programs: quiescent after "
        "~100 cycles, so windows measure the skip-and-replay tier and "
        "job_s is ~90% set-up; compile-side changes show here",
        "the Sec. V-A recipe exactly as `bench_stepjit._build_24core` "
        "builds it (2 messages per tile, then HALT), same spec; "
        "`job_cycles=10000`, then 12 windows x 5000 cycles",
        "same layers used differently: after ~100 cycles every partition "
        "is quiescent, so the windows measure the skip-and-replay tier "
        "and `job_s` is ~90 % set-up. A kernel change that wins on "
        "`ring24_stream` but breaks fixed-point detection, or a "
        "compile-side change, shows here.",
        job_cycles=10000, window_cycles=5000),
    Workload(
        "widepair1024_exact", "sim",
        "two adders behind a 1024-bit exact-mode boundary: per-cycle cost "
        "is LI-BDN FSM, codec/repack and timing overlay, so token-plane "
        "changes show here and kernel or compiler changes should not",
        "`make_wide_pair(1024, comb_boundary=True)`, `right` extracted, "
        "exact-mode (two crossings per cycle, a dep-carrying base unit "
        "that gets no fused kernel), inproc, JIT on; "
        "`job_cycles=100000`, 12 windows x 10000",
        "set-up ~10 ms and RTL is two adders, so per-cycle cost is LI-BDN "
        "FSM + 1024-bit codec/repack + timing overlay. Token-plane "
        "changes show here; kernel and compiler changes are predicted "
        "*not* to. Also the cycle-exactness check against "
        "`MonolithicSimulation`.",
        job_cycles=100000, window_cycles=10000),
    Workload(
        "ring8_profiled", "sim",
        "3-partition 8-tile ring built with the tracer and telemetry "
        "sampling that repro profile attaches: today every partition "
        "falls to the interpreter; hook-specialised codegen must move it",
        "8-tile streaming ring, 2x4 tiles + base = 3 partitions, "
        "fast-mode, inproc, built with "
        "`tracer=RecordingTracer(capacity=4096)` and "
        "`telemetry=Telemetry(sample_every=50)` (what `repro profile` / "
        "`simulate --metrics` attach); `job_cycles=2000`, 12 windows x "
        "400",
        "today `partition_jit_reason` sends every partition to the "
        "interpreter here; ROADMAP item 2 (hook-specialised codegen) "
        "must move `sim_cycles_per_s` on this workload and on no other.",
        job_cycles=2000, window_cycles=400),
    Workload(
        "ring8_split_process", "split",
        "lock-step 2-partition split on the pipe, shm and socket process "
        "tiers: one round trip per target cycle, so the conduit, not the "
        "kernel, sets the rate; the row that keeps or deletes a tier",
        "8-tile streaming ring, one NoC group of 8 + base = 2 partitions "
        "(fits 2 cores), fast-mode; schedule and JIT compiled once in "
        "the parent, then per tier (`process`, `process-shm`, "
        "`process-socket`) 5 segments of `sim.run(frontier+N)` with "
        "N=2000/1000/2000, plus the same design inproc as the reference",
        "a lock-step 2-partition split does one round trip per target "
        "cycle, so the conduit, not the kernel, sets the rate; this is "
        "the row ROADMAP item 3 needs to keep or delete a transport "
        "tier. Skipped (reported `skipped`, not failed) when "
        "`len(os.sched_getaffinity(0)) < 2`.",
        job_cycles=2000, window_cycles=1000),
    Workload(
        "service_mix", "service",
        "closed loop of cold, cached and colliding jobs against a "
        "2-worker ServiceThread: the only workload where service, "
        "telemetry archive/lookup and firrtl.parse dominate",
        "`ServiceThread(ServiceConfig(workers=2, runs_dir=tmp))` over "
        "HTTP; closed loop, 2 client threads, 3 tenants; 8 distinct "
        "configs of the 8-tile ring (explicit `extract` groups, "
        "`cycles=2000+i`, `backend=\"inproc\"`) each submitted once "
        "cold, then a seeded shuffled stream of 200 repeats (cache "
        "hits), then 8 further never-seen configs each submitted by "
        "both clients at once (single-flight coalescing); 200 unrelated "
        "records are archived before the clock starts so the lookup is "
        "not against an empty registry",
        "the only workload where `service`, `telemetry` (archive, "
        "lookup) and `firrtl.parse` dominate; same circuit with "
        "different `cycles` is the traffic a fingerprint-keyed *plan* "
        "cache (ROADMAP item 1) would serve.",
        job_cycles=2000, window_cycles=400),
)}

#: the workloads ``BENCHMARK.json`` lists.  Its driver makes 22 runs
#: per workload inside a fixed total, so four leave each run 30 s —
#: what a shared 2-core host needs for a steady value.  Left to the
#: ledger: ``ring8_split_process``, whose lock-step job keeps both
#: cores busy at once and so measures the host's scheduler (its
#: ``job_s`` spread 14-28 % between runs of one commit), and
#: ``ring24_boot``, which shares design and set-up path with
#: ``ring24_stream``.
CONTRACT_WORKLOADS = ("ring24_stream", "widepair1024_exact",
                      "ring8_profiled", "service_mix")

#: 24 tiles over 4 FPGAs, six routers each (the Sec. V-A split)
RING24_GROUPS = [list(range(i * 6, (i + 1) * 6)) for i in range(4)]

#: (backend name, metric stem, segment cycles)
TIERS = (("process", "pipe", 2000),
         ("process-shm", "shm", 1000),
         ("process-socket", "socket", 2000))


@dataclass(frozen=True)
class Scale:
    """How much work one run does."""

    #: fresh children per workload, at least
    reps: int = 3
    #: more children are launched until this much time has passed, so
    #: a cheap workload gets more samples of every metric
    seconds: float = 0.0
    #: job and window cycle counts are divided by this
    cycle_div: int = 1
    windows: int = 12
    #: segments per process tier per child; 0 leaves the tiers out
    segments: int = 5
    cold_jobs: int = 8
    cached_jobs: int = 200
    archived_records: int = 200
    check_cycles: int = 500


FULL = Scale()
QUICK = Scale(reps=1, cycle_div=20, windows=3, segments=1, cold_jobs=2,
              cached_jobs=10, archived_records=20, check_cycles=50)


def budgeted(seconds: float) -> Scale:
    """The driver-facing scale: as many children as fit into
    ``seconds`` (three at least), half the cold jobs, and the process
    tiers left to the full ledger (the cold path and the job still run
    on ``process``)."""
    return replace(FULL, seconds=seconds, segments=0, cold_jobs=4)


def _stream_program(stride: int) -> List[int]:
    """Push an ever-increasing value whenever the queue has room."""
    return assemble([
        ("LI", "r3", 1),
        "loop:",
        ("LD", "r4", "r0", ADDR_OUT_READY),
        ("BEQ", "r4", "r0", "loop"),
        ("ST", "r3", "r0", ADDR_OUT_PUSH),
        ("ADDI", "r3", "r3", stride),
        ("JMP", "loop"),
    ])


def _drain_program() -> List[int]:
    """Pop and checksum forever."""
    return assemble([
        ("LI", "r3", 0),
        "loop:",
        ("LD", "r4", "r0", ADDR_IN_VALID),
        ("BEQ", "r4", "r0", "loop"),
        ("LD", "r5", "r0", ADDR_IN_POP),
        ("ADD", "r3", "r3", "r5"),
        ("OUT", "r3"),
        ("JMP", "loop"),
    ])


def _streaming_ring(tiles: int, rng: random.Random) -> str:
    programs = [_stream_program(rng.randint(1, 63)) for _ in range(tiles)]
    return print_circuit(
        make_ring_noc_soc(tiles, programs, _drain_program()))


def _ring_extract(tile_ids) -> List[str]:
    """Explicit instance paths of a router group (the service takes no
    NoC-partition-mode shorthand)."""
    return [f"{kind}{i}" for i in tile_ids
            for kind in ("router", "conv", "tile")]


def _service_stream(rng: random.Random, scale: Scale) -> dict:
    def submission(config_index: int) -> dict:
        return {"config": config_index,
                "tenant": rng.choice(TENANTS),
                "priority": rng.randrange(3)}

    cold = list(range(scale.cold_jobs))
    rng.shuffle(cold)
    cached = [rng.randrange(scale.cold_jobs)
              for _ in range(scale.cached_jobs)]
    # the colliding configs follow the cold ones in the config table;
    # each is submitted by both clients at once, the seed picks who
    # carries which tenant
    collide = list(range(scale.cold_jobs, 2 * scale.cold_jobs))
    rng.shuffle(collide)
    return {
        "cold": [submission(i) for i in cold],
        "cached": [submission(i) for i in cached],
        "collide": [[submission(i), submission(i)] for i in collide],
    }


def make_inputs(workload: Workload, seed: int, scale: Scale) -> dict:
    """The JSON-able inputs one child of ``workload`` runs on."""
    rng = random.Random(f"{workload.name}/{seed}")
    job_cycles = max(workload.job_cycles // scale.cycle_div, 100)
    inputs = {
        "job_cycles": job_cycles,
        "window_cycles": max(workload.window_cycles // scale.cycle_div, 20),
        "backend": "inproc",
        "profiled": False,
    }
    name = workload.name
    if name == "ring24_stream":
        inputs["text"] = _streaming_ring(24, rng)
        inputs["partition"] = {"mode": "fast", "noc": RING24_GROUPS}
    elif name == "ring24_boot":
        programs = [sender_program(2, stride=rng.randint(1, 63))
                    for _ in range(24)]
        inputs["text"] = print_circuit(
            make_ring_noc_soc(24, programs, sink_program(48)))
        inputs["partition"] = {"mode": "fast", "noc": RING24_GROUPS}
    elif name == "widepair1024_exact":
        inputs["text"] = print_circuit(
            make_wide_pair(1024, comb_boundary=True))
        inputs["partition"] = {"mode": "exact", "extract": [["right"]]}
    elif name == "ring8_profiled":
        inputs["text"] = _streaming_ring(8, rng)
        inputs["partition"] = {"mode": "fast",
                               "noc": [[0, 1, 2, 3], [4, 5, 6, 7]]}
        inputs["profiled"] = True
    elif name == "ring8_split_process":
        inputs["text"] = _streaming_ring(8, rng)
        inputs["partition"] = {"mode": "fast", "noc": [list(range(8))]}
        inputs["backend"] = "process"
        inputs["tiers"] = [
            {"backend": backend, "stem": stem,
             "cycles": max(cycles // scale.cycle_div, 20)}
            for backend, stem, cycles in TIERS]
    elif name == "service_mix":
        inputs["text"] = _streaming_ring(8, rng)
        inputs["partition"] = {"mode": "fast", "extract": [
            _ring_extract(range(0, 4)), _ring_extract(range(4, 8))]}
        # config i of the table runs job_cycles + i cycles
        inputs["stream"] = _service_stream(rng, scale)
    else:
        raise KeyError(name)
    return inputs
