"""Step-JIT differential replay of the committed regression corpus.

Every repro in ``tests/fuzz/corpus/`` is replayed twice — compiled step
functions on and off — and the full functional digest (tokens, per-
partition cycles, the complete FMR ``detail`` breakdown, and the
recorded output stream) must match bit for bit.  The same holds on
the process backend, which exercises the worker-side compile path
(its own partition only) and the socket wire under the JIT.

The same scenarios are replayed over hardened links (drop + corrupt +
spike + one flap, recovered by the reliable layer) and over raw faulted
ones (corrupted payloads delivered, then the ``DeadlockError`` a drop
ends in): ``link.transmit`` is a call-out in the generated code, so
every partition still compiles and the event list (``link_retry``
included), ``detail["telemetry"]``, ``detail["reliability"]``, the
digest and a deadlock's postmortem all equal the interpreter's.

These are the tests the bit-exactness contract in
``repro.harness.stepjit`` points at: the generated code may reorder
nothing observable, on any backend.
"""

import json
from pathlib import Path

import pytest

from repro.errors import DeadlockError
from repro.fuzz import functional_digest, load_repro, make_sim
from repro.observability import RecordingTracer
from repro.parallel.coordinator import fork_available
from repro.platform import ETHERNET_100G, SwitchFabric
from repro.telemetry import Telemetry

# the hardened (drop + corrupt + spike + one flap) and raw-faulted link
# preparations of the fixed-design differentials
from ..harness.test_stepjit import _harden, _inject

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.json"))

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the process backend needs os.fork")


def _replay(path, backend, stepjit):
    scenario, _ = load_repro(path)
    sim = make_sim(scenario)
    sim.stepjit = stepjit
    result = sim.run(scenario.cycles, backend=backend)
    return sim, result, functional_digest(sim, result)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_exists_and_jit_matches_interpreter(path):
    sim_jit, _, dig_jit = _replay(path, "inproc", True)
    sim_int, _, dig_int = _replay(path, "inproc", False)
    assert dig_jit == dig_int
    # the off-side really ran interpreted, and the on-side really
    # compiled at least one partition (otherwise this differential
    # would be vacuous)
    assert all(v.startswith("disabled")
               for v in sim_int.last_jit_report.values())
    assert any(v.startswith("compiled")
               for v in sim_jit.last_jit_report.values())


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_detail_bit_identical(path):
    """`detail` (the FMR span breakdown) compared field by field, so a
    drift names the partition and component instead of a dict diff."""
    _, r_jit, _ = _replay(path, "inproc", True)
    _, r_int, _ = _replay(path, "inproc", False)
    assert r_jit.detail.keys() == r_int.detail.keys()
    for pname in r_int.detail:
        assert r_jit.detail[pname] == r_int.detail[pname], pname
    assert r_jit.wall_ns == r_int.wall_ns
    assert r_jit.tokens_transferred == r_int.tokens_transferred


@needs_fork
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_jit_matches_across_process_backends(path):
    _, _, dig_jit = _replay(path, "process", True)
    _, _, dig_int = _replay(path, "process", False)
    assert dig_jit == dig_int


def _replay_observed(path, backend, stepjit, prepare=None, sinks=True):
    """Replay traced + sampled (or with the null sinks), optionally
    over ``prepare``d links; what an observer sees of the run — a
    deadlock's message and postmortem included."""
    scenario, _ = load_repro(path)
    tracer = RecordingTracer()
    sim = make_sim(scenario, telemetry=Telemetry(sample_every=5),
                   tracer=tracer) if sinks else make_sim(scenario)
    sim.stepjit = stepjit
    if prepare is not None:
        prepare(sim)
    deadlock = None
    try:
        result = sim.run(scenario.cycles, backend=backend)
    except DeadlockError as exc:
        result = sim.result()
        deadlock = (str(exc), exc.postmortem.channels,
                    [repr(e) for e in exc.postmortem.events])
    return sim, ([repr(e) for e in tracer.events], tracer.total_emitted,
                 json.dumps(result.detail.get("telemetry", {})),
                 functional_digest(sim, result),
                 result.detail.get("reliability"), deadlock)


@pytest.mark.parametrize("backend", [
    "inproc", pytest.param("process", marks=needs_fork)])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_observed_run_matches_interpreter(path, backend):
    """The hook-specialised step functions emit the interpreter's
    events (every field, in order) and update the interpreter's
    instruments, on every committed scenario."""
    sim, observed = _replay_observed(path, backend, True)
    assert observed[0] and observed[1]
    assert observed == _replay_observed(path, backend, False)[1]
    # the sinks evicted nothing: same tiers as the clean replay
    clean = _replay(path, backend, True)[0]
    assert {n: v.rsplit(",", 1)[0]
            for n, v in sim.last_jit_report.items()} \
        == {n: v.rsplit(",", 1)[0]
            for n, v in clean.last_jit_report.items()}


@pytest.mark.parametrize("sinks", [True, False], ids=["observed", "null"])
@pytest.mark.parametrize("prepare", [_harden, _inject],
                         ids=["hardened", "raw-faulted"])
@pytest.mark.parametrize("backend", [
    "inproc", pytest.param("process", marks=needs_fork)])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_faulted_links_match_interpreter(path, backend, prepare,
                                                sinks):
    """Nothing attached to a link selects the engine: hardened and raw
    faulted replays compile every partition and match the interpreter
    on everything an observer sees."""
    sim, observed = _replay_observed(path, backend, True, prepare, sinks)
    assert observed == _replay_observed(
        path, backend, False, prepare, sinks)[1]
    reliability, deadlock = observed[4:]
    if prepare is _harden:
        assert deadlock is None
        assert sum(s["retries"] for s in reliability.values()) > 0
    if deadlock is None or backend == "inproc":
        assert all(v.startswith("compiled")
                   for v in sim.last_jit_report.values())


def _switch(sim):
    """Route every link through one shared Ethernet switch fabric."""
    shared = ETHERNET_100G.with_switch(SwitchFabric())
    for link in sim.links:
        link.transport = shared
        link.refresh_transport_hooks()


@pytest.mark.parametrize("sinks", [True, False], ids=["observed", "null"])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_switched_links_match_interpreter(path, sinks):
    """A switch hop is one ``traverse`` call-out (in-process: a fabric
    shared across source partitions is not distributable)."""
    sim, observed = _replay_observed(path, "inproc", True, _switch, sinks)
    ref, expected = _replay_observed(path, "inproc", False, _switch, sinks)
    assert observed == expected
    assert all(v.startswith("compiled")
               for v in sim.last_jit_report.values())
    fabric, ref_fabric = (s.links[0].hooks.switch for s in (sim, ref))
    assert fabric.tokens == ref_fabric.tokens > 0
    assert fabric.next_free == ref_fabric.next_free


@needs_fork
def test_backend_digests_agree_under_jit():
    """Both backends produce one digest with the JIT on — the
    compiled plans are backend-independent."""
    path = CORPUS[0]
    _, _, reference = _replay(path, "inproc", True)
    _, _, dig = _replay(path, "process", True)
    assert dig == reference
