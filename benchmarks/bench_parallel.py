"""Process-backend benchmarks: sweep-level speedup, token plane, wire.

Measured numbers land in ``results/BENCH_parallel_speedup.json``.  One
claim is pinned there:

* **Regenerating the paper is faster with ``--jobs``.**  The whole
  figure set (``python -m repro.experiments``, every entry of
  ``EXPERIMENTS``) through :func:`repro.parallel.fanout` must beat the
  sequential run wall-clock (>1x) — the one thing ``parallel/pool.py``
  exists to speed up, measured on the work it speeds up (a sweep of
  millisecond points costs less than forking the pool).  On a
  single-core runner there is nothing to overlap onto, so nothing is
  reported.
  The per-point in-process vs process-backend wall-clock is recorded
  too (on one core the process backend pays IPC for no gain; with one
  core per partition it is the paper's whole premise).  The
  in-simulation message counters (``ProcessBackend.last_wire_stats``)
  are recorded alongside: the lock-step LI-BDN wavefront writes one
  record per peer per pass, so effects carried per record is a
  property of the topology's boundary width.

The backend's *correctness* under every configuration is pinned by
``tests/parallel`` (bit-identity with the in-process harness); this
module only measures.
"""

import contextlib
import io
import json
import multiprocessing as mp
import os
import time
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS
from repro.experiments.runner import main as experiments_main
from repro.fireripper import EXACT, FireRipper, PartitionGroup, PartitionSpec
from repro.firrtl import ModuleBuilder, make_circuit
from repro.harness import FunctionSource
from repro.parallel import ProcessBackend, fork_available
from repro.platform import QSFP_AURORA

N_LEAVES = 4          # base + 4 FPGAs
CYCLES = 120
REPEATS = 3
FIGURE_SET_REPEATS = 2  # alternating --jobs 1 / --jobs N, best of each
JOBS = min(4, os.cpu_count() or 1)

RESULTS = Path(__file__).resolve().parent.parent / "results"

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process backend needs fork")


def _write(payload):
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "BENCH_parallel_speedup.json").write_text(
        json.dumps(payload, indent=2) + "\n")


def _timed(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- simulation layer ---------------------------------------------------------

def _star_circuit(n_leaves=N_LEAVES):
    """Base + ``n_leaves`` registered leaf partitions, each closing a
    cross-partition feedback loop through the top."""
    children = []
    for k in range(n_leaves):
        cb = ModuleBuilder(f"Leaf{k}")
        i0 = cb.input("i0", 16)
        reg = cb.reg("state", 16, init=(37 * (k + 1)) & 0xFFFF)
        cb.connect(cb.output("o0", 16), reg)
        cb.connect(reg, reg.read() + i0.read())
        children.append(cb.build())
    tb = ModuleBuilder("Top")
    stim = tb.input("stim", 8)
    for k in range(n_leaves):
        r = tb.reg(f"r{k}", 16, init=(k + 1) * 7)
        inst = tb.inst(f"leaf{k}", children[k])
        tb.connect(inst["i0"], r)
        tb.connect(r, inst["o0"].read() ^ stim.read())
        tb.connect(tb.output(f"obs{k}", 16), inst["o0"])
    return make_circuit(tb.build(), children)


def _design(n_leaves=N_LEAVES):
    spec = PartitionSpec(mode=EXACT, groups=[
        PartitionGroup.make(f"fpga{k + 1}", [f"leaf{k}"])
        for k in range(n_leaves)])
    return FireRipper(spec).compile(_star_circuit(n_leaves))


def _build(design, seed=1):
    return design.build_simulation(
        QSFP_AURORA,
        sources={("base", "io_in"): FunctionSource(
            lambda c: {"stim": (seed * 31 + c) & 0xFF})})


def _regenerate(jobs):
    """Wall seconds of ``python -m repro.experiments --jobs N``: the
    whole figure set, its tables discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        assert experiments_main(["--jobs", str(jobs)]) == 0
        return time.perf_counter() - t0


def test_multi_partition_sweep_speedup_with_jobs():
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip("fewer than 2 cores: --jobs has nothing to overlap "
                    "onto, so no speedup is reported")
    design = _design()

    # per-point wall-clock, both backends, plus the wire counters
    inproc_s = _timed(
        lambda: _build(design).run(CYCLES, backend="inproc"))
    backend = ProcessBackend()
    process_s = _timed(lambda: backend.run(_build(design), CYCLES))
    messages = sum(s["messages_sent"]
                   for s in backend.last_wire_stats.values())
    effects = sum(s["effects_sent"]
                  for s in backend.last_wire_stats.values())

    # the figure set, sequential vs fanned across --jobs workers
    sequential_s = parallel_s = float("inf")
    for _ in range(FIGURE_SET_REPEATS):
        sequential_s = min(sequential_s, _regenerate(1))
        parallel_s = min(parallel_s, _regenerate(JOBS))
    speedup = sequential_s / parallel_s
    payload = {
        "partitions": N_LEAVES + 1,
        "cycles": CYCLES,
        "host_cores": cores,
        "inproc_point_s": inproc_s,
        "process_point_s": process_s,
        "process_messages": messages,
        "process_effects_carried": effects,
        "figure_set": len(EXPERIMENTS),
        "jobs": JOBS,
        "figures_sequential_s": sequential_s,
        "figures_jobs_s": parallel_s,
        "jobs_speedup": speedup,
    }
    _write(payload)
    print(f"\n{N_LEAVES + 1}-partition point: {inproc_s:.3f}s inproc "
          f"vs {process_s:.3f}s process backend "
          f"({messages} messages carrying {effects} effects); "
          f"figure set of {len(EXPERIMENTS)}: {sequential_s:.1f}s "
          f"sequential vs {parallel_s:.1f}s with --jobs {JOBS} "
          f"({speedup:.2f}x on {cores} cores)")
    assert effects >= messages  # every message earns its syscall
    assert speedup > 1.0, payload
    assert mp.active_children() == []


# -- token plane --------------------------------------------------------------
#
# Measured numbers land in ``results/BENCH_token_plane.json``; the
# ``bench-tokenplane`` CI job feeds them to ``repro regress``.  Two
# claims are pinned:
#
# * the packed codec moves tokens >= 5x faster than dict tokens did,
# * both backends produce bit-identical ``SimulationResult.detail``.

import pickle
from collections import deque

from repro.libdn import ChannelSpec, codec_for
from repro.libdn.codec import repack, repack_plan

TOKENS = 100_000


def _write_token_plane(payload):
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / "BENCH_token_plane.json"
    merged = json.loads(path.read_text()) if path.exists() else {}
    merged.update(payload)
    path.write_text(json.dumps(merged, indent=2) + "\n")


def _hop_times(n_ports, width):
    """Seconds to move TOKENS tokens across one cross-partition hop —
    enqueue, the link's port rename, wire serialization, dequeue at the
    peer — on the dict plane vs the packed plane.  The consume-side
    env writes are excluded: both planes do identical per-port work
    there; the codec replaced the *movement*."""
    spec = ChannelSpec.make(
        "io", [(f"io_{i}", width) for i in range(n_ports)])
    dst_spec = ChannelSpec.make(
        "in", [(f"p_{i}", width) for i in range(n_ports)])
    codec, dst_codec = codec_for(spec), codec_for(dst_spec)
    rename = {f"io_{i}": f"p_{i}" for i in range(n_ports)}
    plan = repack_plan(codec, dst_codec, rename)
    token = {f"io_{i}": (0xABCD1234 * (i + 1)) & ((1 << width) - 1)
             for i in range(n_ports)}
    word = codec.encode(token)
    q1, q2 = deque(), deque()

    def dict_plane():
        for _ in range(TOKENS):
            q1.append(dict(token))
            t = q1.popleft()
            mapped = {rename.get(k, k): v for k, v in t.items()}
            wire = pickle.dumps(mapped)
            q2.append(dict(pickle.loads(wire)))
            q2.popleft()

    def packed_plane():
        nbytes = dst_codec.nbytes
        for _ in range(TOKENS):
            q1.append(word)
            w = q1.popleft()
            mapped = repack(w, plan)
            wire = mapped.to_bytes(nbytes, "little")
            q2.append(int.from_bytes(wire, "little"))
            q2.popleft()

    return _timed(dict_plane), _timed(packed_plane)


def test_token_plane_packed_codec_beats_dict_tokens():
    results = {}
    for n_ports, width in [(3, 32), (8, 32), (16, 32)]:
        dict_s, packed_s = _hop_times(n_ports, width)
        results[f"{n_ports}x{width}"] = {
            "dict_s": dict_s,
            "packed_s": packed_s,
            "speedup": dict_s / packed_s,
        }
    worst = min(r["speedup"] for r in results.values())
    payload = {
        "tokens_per_hop_run": TOKENS,
        "codec_hops": results,
        "packed_codec_speedup": worst,
    }
    _write_token_plane(payload)
    for name, r in results.items():
        print(f"\ncodec hop {name}: dict {r['dict_s']:.3f}s vs packed "
              f"{r['packed_s']:.3f}s ({r['speedup']:.1f}x)")
    assert worst >= 5.0, payload


def test_token_plane_bit_identity():
    design = _design(2)
    r_inproc = _build(design).run(CYCLES, backend="inproc")
    r_process = ProcessBackend().run(_build(design), CYCLES)
    identical = r_inproc.detail == r_process.detail
    payload = {
        "identity_partitions": 3,
        "identity_cycles": CYCLES,
        "detail_bit_identical": identical,
    }
    _write_token_plane(payload)
    print(f"\ninproc-vs-process detail bit-identity over {CYCLES} "
          f"cycles: {identical}")
    assert identical
    assert mp.active_children() == []

