"""The pass loop ``run()`` drives through ``plane.advance``: the
compiled ``_pass``, the interpreter's reference loop (``stepjit=False``)
and a process worker's one-partition pass count passes, stop at a
deadlock and call ``stop`` exactly as the loop in ``run()`` used to,
and a plane prints and compiles its pass once."""

import hashlib
import json
import re

import pytest

from repro.cli import main
from repro.errors import DeadlockError, SimulationError
from repro.fireripper import EXACT, FAST
from repro.firrtl import print_circuit
from repro.fuzz import functional_digest, generate_scenario, scenario_config
from repro.harness import stepjit
from repro.observability import RecordingTracer
from repro.parallel.coordinator import fork_available
from repro.reliability import FaultSpec, inject_faults
from repro.service.executor import build_simulation
from repro.targets.soc import make_ring_noc_soc
from repro.telemetry import Telemetry

from .test_stepjit import _build, _ring_sim

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the process backend needs os.fork")


def _pair(jit, **kwargs):
    """The exact-mode comb pair: two host passes per target cycle."""
    sim = _build(mode=EXACT, **kwargs)
    sim.stepjit = jit
    return sim


def _sha(sim, result):
    return hashlib.sha256(json.dumps(
        functional_digest(sim, result), sort_keys=True,
        default=str).encode()).hexdigest()[:16]


def _after_passes(n):
    """A ``stop`` that lets exactly ``n`` passes run."""
    calls = []
    return lambda sim: calls.append(1) or len(calls) > n


#: frontier and digest a pass-budget failure leaves on the comb pair,
#: recorded when the loop still lived in ``run()``
BUDGET = {0: (0, "03a30fa8118a0cf3"), 1: (1, "035b4763b13abde0"),
          2: (1, "d6f9ef0d9a89e86c"), 5: (3, "5eccbe40c9a43d85"),
          17: (9, "ceca51a707137669")}


@pytest.mark.parametrize("k", sorted(BUDGET))
def test_pass_budget_raises_at_the_same_pass(k):
    """``run(40, max_passes=k)`` raises after pass k + 1 on every
    engine, leaving the state k + 1 passes leave."""
    reference = _pair(False)
    reference.run(40, stop=_after_passes(k + 1), backend="inproc")
    want = (reference.frontier_cycle(),
            _sha(reference, reference.result()))
    assert want == BUDGET[k]
    for jit in (True, False):
        sim = _pair(jit)
        with pytest.raises(SimulationError, match="pass budget") as err:
            sim.run(40, max_passes=k, backend="inproc")
        assert not isinstance(err.value, DeadlockError)
        assert (sim.frontier_cycle(), _sha(sim, sim.result())) == want


@needs_fork
@pytest.mark.parametrize("k", sorted(BUDGET))
def test_pass_budget_on_process(k):
    """Each worker counts its own passes with budget 1 per call; a
    failed process run merges nothing back into the parent."""
    for jit in (True, False):
        sim = _pair(jit)
        with pytest.raises(SimulationError, match="pass budget") as err:
            sim.run(40, max_passes=k, backend="process")
        assert not isinstance(err.value, DeadlockError)
        assert sim.frontier_cycle() == 0


def _outage(sim):
    """An unprotected link outage from 10 us on: the first token sent
    into it is lost, and the run stalls after 13 passes of progress."""
    inject_faults(sim, FaultSpec(flaps=((10_000.0, 1e9),)))


def _deadlock(backend, jit):
    tracer = RecordingTracer()
    sim = _pair(jit, tracer=tracer)
    _outage(sim)
    with pytest.raises(DeadlockError) as err:
        sim.run(40, backend=backend)
    exc = err.value
    return (str(exc), exc.host_cycle, exc.postmortem.host_passes,
            exc.postmortem.channels,
            [repr(e) for e in tracer.events if e.kind == "deadlock"])


@pytest.mark.parametrize("backend, jit", [
    ("inproc", True),
    pytest.param("process", True, marks=needs_fork),
    pytest.param("process", False, marks=needs_fork)])
def test_a_deadlock_past_the_first_pass_is_reported_alike(backend, jit):
    """A stall after several passes of progress: message, host cycle,
    postmortem and the traced ``deadlock`` event are the interpreter's
    on every engine."""
    want = _deadlock("inproc", False)
    assert want[1] == want[2] == 14
    assert len(want[4]) == 1
    assert _deadlock(backend, jit) == want


@pytest.mark.parametrize("jit", [True, False])
def test_stop_is_called_once_before_each_pass(jit):
    """With a ``stop`` the loop runs one pass per call: the callback
    and the passes alternate, stop first, and it is not called once
    the target is reached.  The pass count is a stop-free run's."""
    def logged(sim, log):
        sim.run(0, backend="inproc")  # builds the plane
        advance = sim._plane.advance

        def counting(target_cycles, budget):
            ran, progress = advance(target_cycles, budget)
            log.append(("pass", ran))
            return ran, progress
        sim._plane.advance = counting
        return sim

    log = []
    sim = logged(_pair(jit), log)
    sim.run(30, stop=lambda s: log.append(("stop", 0)) is not None,
            backend="inproc")
    assert sim.frontier_cycle() == 30
    assert log[0::2] == [("stop", 0)] * (len(log) // 2)
    assert log[1::2] == [("pass", 1)] * (len(log) // 2)
    free = []
    logged(_pair(jit), free).run(30, backend="inproc")
    assert free == [("pass", len(log) // 2)]


#: seed-7 scenario 4 (a two-partition pipeline, 67 cycles), one of the
#: scenarios where splitting a run moves the FMR detail (ROADMAP item
#: 1); its digests as recorded when the loop still lived in ``run()``
SEAM = {"straight": "2181d526c41576fb", "split": "5a015ba29789c14c",
        1: (0, "a53da34895e3dffa"), 9: (6, "91706ec986a55468"),
        40: (26, "03ede4b26cbfaa32")}


def _seam_sim(jit):
    config = scenario_config(generate_scenario(7, 4))
    config.pop("faults", None)
    sim = build_simulation(config)
    sim.stepjit = jit
    return sim, config["cycles"]


@pytest.mark.parametrize("jit", [True, False])
def test_stop_and_segments_leave_the_recorded_digests(jit):
    """``run(T)``, ``run(T, stop=never)``, ``run(mid); run(T)`` and a
    stop at pass n land where they always did: the seam between the
    straight and the split digest is neither fixed nor widened."""
    sim, cycles = _seam_sim(jit)
    assert _sha(sim, sim.run(cycles, backend="inproc")) == SEAM["straight"]
    sim, _ = _seam_sim(jit)
    assert _sha(sim, sim.run(cycles, stop=lambda s: False,
                             backend="inproc")) == SEAM["straight"]
    sim, _ = _seam_sim(jit)
    sim.run(cycles // 2, backend="inproc")
    assert _sha(sim, sim.run(cycles, backend="inproc")) == SEAM["split"]
    for n in (1, 9, 40):
        sim, _ = _seam_sim(jit)
        result = sim.run(cycles, stop=_after_passes(n), backend="inproc")
        assert (sim.frontier_cycle(), _sha(sim, result)) == SEAM[n]


def test_a_plane_prints_and_compiles_its_pass_once(monkeypatch):
    """One print and one ``compile()`` per plane, however many
    ``run()`` entries and ``stop`` passes it serves."""
    prints, compiles = [], []
    generate = stepjit._PassCodegen.generate
    monkeypatch.setattr(stepjit._PassCodegen, "generate",
                        lambda self: prints.append(1) or generate(self))
    monkeypatch.setattr(
        stepjit, "compile",
        lambda *args: compiles.append(args[1]) or compile(*args),
        raising=False)
    sim = _ring_sim()
    sim.run(1, backend="inproc")
    sim.run(40, backend="inproc")
    sim.run(60, stop=lambda s: False, backend="inproc")
    assert sim.frontier_cycle() == 60
    assert all(verdict.startswith("compiled")
               for verdict in sim.last_jit_report.values())
    assert prints == [1]
    assert compiles == ["<stepjit:pass>"]


@pytest.mark.parametrize("mode", [FAST, EXACT])
def test_a_partition_that_cannot_be_printed_keeps_its_slot(mode):
    """One unit on an interpreted RTL engine puts the whole plane on
    the interpreter: every verdict reads ``interpreted:`` and, traced
    and sampled, the run lands where the JIT-off run does."""
    seen = []
    for jit in (True, False):
        tracer = RecordingTracer()
        sim = _build(mode=mode, tracer=tracer,
                     telemetry=Telemetry(sample_every=7))
        sim.stepjit = jit
        for _, unit in sim.partitions["base"].units:
            unit.sim.compiled = False
        result = sim.run(60, backend="inproc")
        seen.append((_sha(sim, result), [repr(e) for e in tracer.events],
                     tracer.total_emitted))
        if jit:
            assert set(sim.last_jit_report.values()) == {
                "interpreted: base: RTL engine runs interpreted "
                "(compiled=False)"}
            assert sim._plane.advance.func == sim._interpret
    assert seen[0] == seen[1]
    assert seen[0][1]



def test_jit_dump_prints_the_pass_once(tmp_path, capsys):
    """``repro jit --dump``: one verdict per partition, in the form the
    ledger parses, and the one pass source ``run()`` compiles."""
    path = tmp_path / "ring.fir"
    path.write_text(print_circuit(make_ring_noc_soc(2, messages_per_tile=2)))
    assert main(["jit", str(path), "--mode", "fast", "--dump",
                 "--extract", "router0,conv0,tile0",
                 "--extract", "router1,conv1,tile1"]) == 0
    out = capsys.readouterr().out
    verdicts = re.findall(r"^(\w+): compiled: 1 unit\(s\) "
                          r"\((\d+) fused-kernel\), (\d+) lines$", out, re.M)
    assert [(name, fused) for name, fused, _ in verdicts] == [
        ("base", "1"), ("fpga0", "1"), ("fpga1", "1")]
    assert out.count("def _pass(") == 1
    assert out.count("while passes < budget and progress and (") == 1
