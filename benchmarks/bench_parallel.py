"""Process-backend benchmark: sweep-level speedup and the wire.

Measured numbers land in ``results/BENCH_parallel_speedup.json``.  One
claim is pinned there:

* **Regenerating the paper is faster with ``--jobs``.**  The whole
  figure set (``python -m repro.experiments``, every entry of
  ``EXPERIMENTS``) through :func:`repro.parallel.fanout` must beat the
  sequential run wall-clock (>1x) — the one thing ``parallel/pool.py``
  exists to speed up, measured on the work it speeds up (a sweep of
  millisecond points costs less than forking a child per point).  On a
  single-core runner there is nothing to overlap onto, so nothing is
  reported.
  The per-point in-process vs process-backend wall-clock is recorded
  too (on one core the process backend pays IPC for no gain; with one
  core per partition it is the paper's whole premise).  The
  in-simulation message counters (``ProcessBackend.last_wire_stats``)
  are recorded alongside: the lock-step LI-BDN wavefront writes one
  record per peer per pass (counted only in passes a worker begins
  short of its target, so the count repeats run to run), and effects
  carried per record is a property of the topology's boundary width.

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
