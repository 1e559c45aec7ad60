"""Compiled step plane benchmark: JIT vs interpreter per-cycle rate.

Measures the wavefront hot loop with the compiled step functions
(`repro.harness.stepjit`) on and off, on the Sec. V-A 24-core ring-NoC
case study plus three mill-generated ring scenarios, and writes
``results/BENCH_stepjit.json``.  ``repro regress`` pins four claims
from the committed artifact:

* **speedup floor** — the 24-core case study must run at least
  ``speedup_floor`` (5x) faster per target cycle with the JIT on.  The
  measured margin is much larger: the fused RTL kernels evaluate only
  each output's live cone with locals end-to-end, and the quiescence
  tier skips the kernel call entirely while a partition's registers are
  at a fixed point under repeating inputs — both exact, neither
  available to the interpreter.
* **identity** — the JIT-on and JIT-off runs of every measured
  configuration produce bit-identical functional digests (tokens,
  per-partition cycles, the full FMR ``detail``, recorded outputs).
* **hardened floor** — an 8-tile ring whose links all carry the
  reliable layer over a seeded fault schedule compiles like a clean one
  (``link.transmit`` is a call-out in the generated code) and must run
  at least ``hardened_speedup_floor`` (2x) faster than the interpreter,
  digest-identical (``detail["reliability"]`` included).  The margin is
  smaller than the clean case by construction: both sides spend most of
  a cycle inside the same layer and injector.

* **streaming floor** — the case study is the boot recipe: quiescent
  after ~100 cycles, so its margin is the skip tier's.  The ledger's
  ``ring24_stream`` design (same ring, tiles that never halt) never
  reaches a fixed point, so every target cycle runs every fused kernel:
  it must run at least ``streaming_speedup_floor`` (5x) faster than the
  interpreter, digest-identical.  This is the row the kernel
  generator's netlist passes move; the size of its largest kernel is
  recorded beside it (``kernel_statements``, ``kernel_source_bytes``).

Methodology: for each configuration one JIT and one interpreter
simulation are built, both warmed past compile/caching effects
(``WARMUP`` cycles — kernel codegen is a one-time cost amortized over a
run, and the honest comparison is the steady-state rate), then timed
over ``REPS`` interleaved windows of ``WINDOW`` cycles so OS noise hits
both sides alike.  Per-side rate is the median window; digests compare
final cumulative state, so every timed cycle is also identity-checked.
"""

import json
import statistics
import time
from pathlib import Path

from benchmarks.e2e.child import partition_spec
from benchmarks.e2e.workloads import FULL, WORKLOADS, make_inputs
from repro.fireripper import FAST, FireRipper, NoCPartitionSpec, PartitionSpec
from repro.firrtl import parse_circuit
from repro.fuzz import GeneratorKnobs, functional_digest, generate_scenario, make_sim
from repro.platform import QSFP_AURORA
from repro.reliability import FaultSpec, harden_links
from repro.targets.soc import make_ring_noc_soc

SEED = 7
WARMUP = 100
WINDOW = 700
REPS = 3
SPEEDUP_FLOOR = 5.0
HARDENED_SPEEDUP_FLOOR = 2.0
STREAMING_SPEEDUP_FLOOR = 5.0
MILL_TILES = ((2, "small"), (4, "medium"), (6, "large"))

RESULTS = Path(__file__).resolve().parent.parent / "results"


def _build_24core():
    """The Sec. V-A mini case study: 24 TinyCore tiles on a ring NoC,
    split across 4 FPGAs + base (same recipe as
    ``repro.experiments.casestudy_24core``, fixed tiles)."""
    from repro.experiments.casestudy_24core import _make_ring_soc_with_bug
    from repro.targets.programs import sender_program, sink_program

    n_tiles, per_tile = 24, 2
    programs = [sender_program(per_tile) for _ in range(n_tiles)]
    circuit = _make_ring_soc_with_bug(
        n_tiles, programs, sink_program(n_tiles * per_tile), False)
    groups = [list(range(i * 6, (i + 1) * 6)) for i in range(4)]
    spec = PartitionSpec(mode=FAST, noc=NoCPartitionSpec.make(groups))
    return FireRipper(spec).compile(circuit).build_simulation(
        QSFP_AURORA, host_freq_mhz=30.0, record_outputs=True)


def _build_hardened_ring8():
    """8 TinyCore tiles on a ring NoC, 2 FPGAs of 4 + base, every link
    hardened over a seeded drop/corrupt/spike schedule."""
    spec = PartitionSpec(mode=FAST, noc=NoCPartitionSpec.make(
        [[0, 1, 2, 3], [4, 5, 6, 7]]))
    sim = FireRipper(spec).compile(
        make_ring_noc_soc(8, messages_per_tile=2)).build_simulation(
            QSFP_AURORA, host_freq_mhz=30.0, record_outputs=True)
    harden_links(sim, FaultSpec(seed=SEED, drop_rate=0.02,
                                corrupt_rate=0.02, spike_rate=0.02))
    return sim


def _build_streaming24():
    """The ledger's ``ring24_stream`` workload, from its own inputs:
    24 tiles that stream forever, 4x6 tiles + base."""
    inputs = make_inputs(WORKLOADS["ring24_stream"], SEED, FULL)
    design = FireRipper(partition_spec(inputs["partition"])).compile(
        parse_circuit(inputs["text"]))
    return design.build_simulation(
        QSFP_AURORA, host_freq_mhz=30.0, record_outputs=True)


def _largest_kernel(sim):
    """Size of the largest fused kernel the JIT run compiled."""
    kernels = [fn for part in sim.partitions.values()
               for _, unit in part.units
               for fn in getattr(unit, "_stepjit_kernels", None) or ()
               if fn is not None]
    fn = max(kernels, key=lambda k: len(k._stepjit_source))
    return {"kernel": fn._stepjit_stats["kernel"],
            "kernel_statements": fn._stepjit_stats["statements"],
            "kernel_source_bytes": len(fn._stepjit_source)}


def _measure(build, warmup=WARMUP, window=WINDOW, reps=REPS):
    """Interleaved JIT/interpreter windows over one pair of sims."""
    sim_jit, sim_int = build(), build()
    sim_jit.stepjit, sim_int.stepjit = True, False
    cursor = warmup
    sim_jit.run(cursor)
    sim_int.run(cursor)
    jit_rates, int_rates = [], []
    for _ in range(reps):
        cursor += window
        t0 = time.perf_counter()
        r_jit = sim_jit.run(cursor)
        jit_rates.append(window / (time.perf_counter() - t0))
        t0 = time.perf_counter()
        r_int = sim_int.run(cursor)
        int_rates.append(window / (time.perf_counter() - t0))
    identical = functional_digest(sim_jit, r_jit) \
        == functional_digest(sim_int, r_int)
    jit_rate = statistics.median(jit_rates)
    int_rate = statistics.median(int_rates)
    return {
        "partitions": len(sim_jit.partitions),
        "cycles_timed": window * reps,
        "jit_cycles_per_s": round(jit_rate),
        "interp_cycles_per_s": round(int_rate),
        "speedup": round(jit_rate / int_rate, 2),
        "jit_rates": [round(r) for r in jit_rates],
        "interp_rates": [round(r) for r in int_rates],
        "fused_kernel_partitions": sum(
            "fused-kernel" in v and not v.startswith("interpreted")
            and "(0 fused-kernel)" not in v
            for v in sim_jit.last_jit_report.values()),
        "detail_bit_identical": identical,
        **_largest_kernel(sim_jit),
    }


def _mill_case(tiles):
    knobs = GeneratorKnobs(shapes=("ring",), max_tiles=tiles,
                           min_cycles=60, max_cycles=60)
    scenario = generate_scenario(SEED, 0, knobs)
    return lambda: make_sim(scenario)


def test_stepjit_speedup(paper_scale):
    window = WINDOW * (3 if paper_scale else 1)
    case = _measure(_build_24core, window=window)

    mill = {}
    for tiles, tag in MILL_TILES:
        mill[tag] = _measure(_mill_case(tiles), window=window)
    hardened = _measure(_build_hardened_ring8, window=window)
    streaming = _measure(_build_streaming24, window=window)

    payload = {
        "seed": SEED,
        "warmup_cycles": WARMUP,
        "window_cycles": window,
        "reps": REPS,
        "speedup_floor": SPEEDUP_FLOOR,
        "case_study_24core": case,
        "mill_sizes": mill,
        "speedup": case["speedup"],
        "detail_bit_identical": case["detail_bit_identical"] and all(
            m["detail_bit_identical"] for m in mill.values()),
        "hardened_ring8": hardened,
        "hardened_speedup": hardened["speedup"],
        "hardened_speedup_floor": HARDENED_SPEEDUP_FLOOR,
        "hardened_bit_identical": hardened["detail_bit_identical"],
        "streaming_ring24": streaming,
        "streaming_speedup": streaming["speedup"],
        "streaming_speedup_floor": STREAMING_SPEEDUP_FLOOR,
        "streaming_bit_identical": streaming["detail_bit_identical"],
        "kernel_statements": streaming["kernel_statements"],
        "kernel_source_bytes": streaming["kernel_source_bytes"],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "BENCH_stepjit.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    print(f"\nstep-JIT 24-core: {case['jit_cycles_per_s']} cyc/s vs "
          f"{case['interp_cycles_per_s']} cyc/s interpreted "
          f"({case['speedup']}x)")
    for tag, m in mill.items():
        print(f"  mill {tag}: {m['speedup']}x "
              f"({m['partitions']} partitions)")
    print(f"  hardened ring8: {hardened['jit_cycles_per_s']} cyc/s vs "
          f"{hardened['interp_cycles_per_s']} cyc/s interpreted "
          f"({hardened['speedup']}x)")
    print(f"  streaming ring24: {streaming['jit_cycles_per_s']} cyc/s vs "
          f"{streaming['interp_cycles_per_s']} cyc/s interpreted "
          f"({streaming['speedup']}x; {streaming['kernel']} is "
          f"{streaming['kernel_statements']} statements, "
          f"{streaming['kernel_source_bytes']} B)")

    assert payload["detail_bit_identical"]
    assert case["speedup"] >= SPEEDUP_FLOOR
    # the mill scenarios are trend-watching (smaller designs amortize
    # less per kernel call) but must never regress past the interpreter
    assert all(m["speedup"] > 1.0 for m in mill.values())
    assert hardened["detail_bit_identical"]
    assert hardened["fused_kernel_partitions"] == hardened["partitions"]
    assert hardened["speedup"] >= HARDENED_SPEEDUP_FLOOR
    assert streaming["detail_bit_identical"]
    assert streaming["fused_kernel_partitions"] == streaming["partitions"]
    assert streaming["speedup"] >= STREAMING_SPEEDUP_FLOOR
