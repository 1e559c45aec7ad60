"""Compiled step plane: selection knobs, eligibility guard, codegen
output, fused-kernel cache, and runtime-fallback identity."""

import pytest

from repro.fireripper import (
    EXACT,
    FAST,
    FireRipper,
    NoCPartitionSpec,
    PartitionGroup,
    PartitionSpec,
)
from repro.fuzz import functional_digest
from repro.harness import MonolithicSimulation
from repro.harness.stepjit import (
    generate_sources,
    partition_jit_reason,
    stepjit_enabled,
    generate_partition_source,
)
from repro.observability import RecordingTracer
from repro.platform import QSFP_AURORA
from repro.reliability import FaultSpec, harden_links
from repro.reliability.checkpoint import capture_state, restore_state
from repro.rtl import Simulator, engine
from repro.targets import make_comb_pair_circuit
from repro.targets.soc import make_ring_noc_soc
from repro.telemetry import Telemetry


def _fused_sim():
    """A simulation containing at least one fused-kernel-tier unit
    (dep-free output channels): a committed NoC fuzz scenario."""
    from pathlib import Path

    from repro.fuzz import load_repro, make_sim
    corpus = Path(__file__).parent.parent / "fuzz" / "corpus"
    scenario, _ = load_repro(
        sorted(corpus.glob("fastmode-*.json"))[0])
    return make_sim(scenario)


def _build(mode=FAST, **kwargs):
    spec = PartitionSpec(mode=mode, groups=[
        PartitionGroup.make("fpga1", ["right"])])
    design = FireRipper(spec).compile(make_comb_pair_circuit())
    kwargs.setdefault("record_outputs", True)
    return design.build_simulation(QSFP_AURORA, **kwargs)


def _ring_sim():
    """Three partitions of a 2-tile ring, all on the fused-kernel tier."""
    spec = PartitionSpec(mode=FAST,
                         noc=NoCPartitionSpec.make([[0], [1]]))
    design = FireRipper(spec).compile(
        make_ring_noc_soc(2, messages_per_tile=2))
    return design.build_simulation(QSFP_AURORA, record_outputs=True)


def _digest(sim, cycles=40, **run_kwargs):
    return functional_digest(sim, sim.run(cycles, **run_kwargs))


class TestSelection:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEPJIT", raising=False)
        assert stepjit_enabled() is True

    @pytest.mark.parametrize("value", ["0", "off", "false", "no",
                                       " OFF ", "False"])
    def test_falsey_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STEPJIT", value)
        assert stepjit_enabled() is False

    @pytest.mark.parametrize("value", ["1", "on", "yes", "anything"])
    def test_other_env_values_keep_it_on(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STEPJIT", value)
        assert stepjit_enabled() is True

    def test_sim_override_beats_env(self, monkeypatch):
        sim = _build()
        monkeypatch.setenv("REPRO_STEPJIT", "0")
        sim.stepjit = True
        assert stepjit_enabled(sim) is True
        monkeypatch.delenv("REPRO_STEPJIT")
        sim.stepjit = False
        assert stepjit_enabled(sim) is False
        sim.stepjit = None  # tri-state: None defers to the environment
        assert stepjit_enabled(sim) is True

    def test_disabled_run_reports_and_stays_identical(self):
        on, off = _build(), _build()
        off.stepjit = False
        d_on, d_off = _digest(on), _digest(off)
        assert d_on == d_off
        assert all(v.startswith("compiled")
                   for v in on.last_jit_report.values())
        assert all(v.startswith("disabled")
                   for v in off.last_jit_report.values())
        assert off._step_fns == {}


class TestEligibility:
    def _reasons(self, sim):
        return {p.part.name: partition_jit_reason(sim, p)
                for p in sim.ensure_schedule()}

    def test_clean_fast_sim_is_eligible(self):
        assert all(r is None for r in self._reasons(_build()).values())

    def test_tracer_rejects(self):
        sim = _build(tracer=RecordingTracer())
        assert all(r == "tracer attached"
                   for r in self._reasons(sim).values())

    def test_telemetry_rejects(self):
        sim = _build(telemetry=Telemetry(sample_every=10))
        assert all(r == "telemetry sampling enabled"
                   for r in self._reasons(sim).values())

    def test_reliability_layer_rejects(self):
        sim = _build()
        harden_links(sim, FaultSpec(seed=3, drop_rate=0.2))
        reasons = self._reasons(sim)
        assert any(r and "reliability layer" in r
                   for r in reasons.values())
        # ...and the run still matches the interpreter bit for bit
        # (the guard forces those partitions onto _run_unit)
        ref = _build()
        harden_links(ref, FaultSpec(seed=3, drop_rate=0.2))
        ref.stepjit = False
        assert _digest(sim) == _digest(ref)


class TestGeneratedSources:
    def test_sources_for_eligible_partitions(self):
        sim = _build()
        sources = generate_sources(sim)
        assert set(sources) == set(sim.partitions)
        for src, reason in sources.values():
            assert reason is None
            assert "def _make(_B):" in src
            assert "def _step(" in src

    def test_reject_reason_instead_of_source(self):
        sim = _build(tracer=RecordingTracer())
        for src, reason in generate_sources(sim).values():
            assert src is None
            assert reason == "tracer attached"

    def test_source_compiles_standalone(self):
        sim = _build()
        for pplan in sim.ensure_schedule():
            src, bindings = generate_partition_source(sim, pplan)
            namespace = {}
            exec(compile(src, "<test>", "exec"), namespace)
            step = namespace["_make"](bindings)
            assert callable(step)

    def test_fused_kernels_cached_on_unit(self):
        # the comb-pair units all carry dep channels, which keeps them
        # on the generic tier; a corpus NoC scenario has dep-free units
        # that take the fused-kernel path
        # inproc: the cache under inspection lives on this process's
        # unit objects (a forked worker's compile never reaches them)
        sim = _fused_sim()
        sim.run(10, backend="inproc")
        kernels = [getattr(unit, "_stepjit_kernels", None)
                   for part in sim.partitions.values()
                   for _, unit in part.units]
        cached = [k for k in kernels if k]
        assert cached, "no unit took the fused-kernel tier"
        for kern in cached:  # (fire, adv, cyc) tuple per unit
            assert any(fn is not None for fn in kern)
            for fn in kern:
                if fn is not None:
                    assert "def _k(env, mems" in fn._stepjit_source
        # a second run reuses the cache (same objects, no recompile)
        before = [id(k) for k in kernels if k]
        sim.run(20, backend="inproc")
        after = [id(getattr(unit, "_stepjit_kernels", None))
                 for part in sim.partitions.values()
                 for _, unit in part.units
                 if getattr(unit, "_stepjit_kernels", None)]
        assert before == after


class TestRuntimeIdentity:
    def test_outbox_fallback_stays_identical(self):
        """A non-empty outbox (a fire outside the compiled plan, e.g. a
        checkpoint captured mid-host_step) must route that pass through
        the interpreter — with identical results to a JIT-off run."""
        sims = []
        for jit in (True, False):
            sim = _build()
            sim.run(5)
            for part in sim.partitions.values():
                for _, unit in part.units:
                    unit.try_fire_outputs()
            sim.stepjit = jit
            sims.append(_digest(sim, 20))
        assert sims[0] == sims[1]

    def test_stop_callback_disables_eval_dedup_but_not_identity(self):
        seen = []

        def stop(sim):
            seen.append(sim.frontier_cycle())
            return False

        jit, interp = _build(), _build()
        interp.stepjit = False
        d_jit = _digest(jit, 30, stop=stop)
        d_int = _digest(interp, 30, stop=stop)
        assert d_jit == d_int
        assert seen  # the callback really ran under the JIT

    def test_checkpoint_roundtrip_under_jit(self):
        """Restore replaces queue objects wholesale; the compiled plans
        bound to the old deques must be invalidated and rebuilt."""
        straight = _build()
        d_straight = _digest(straight, 60)

        first = _build()
        first.run(30)
        state = capture_state(first)
        resumed = _build()
        resumed.run(9)  # stale compiled plans + progress to overwrite
        restore_state(resumed, state)
        assert resumed._step_fns == {}
        d_resumed = _digest(resumed, 60)
        assert d_resumed["detail"] == d_straight["detail"]
        assert d_resumed["outputs"] == d_straight["outputs"]

    def test_exact_mode_matches_interpreter(self):
        on, off = _build(mode=EXACT), _build(mode=EXACT)
        off.stepjit = False
        assert _digest(on) == _digest(off)


class TestGenericPairOnFirstUse:
    """A compiled RTL engine generates its generic comb/tick pair when
    something first calls ``eval``/``tick``; kernel-tier partitions run
    fused kernels and never do."""

    @pytest.fixture
    def generated(self, monkeypatch):
        tops = []
        real = engine._compile

        def counting(elab):
            tops.append(elab.top)
            return real(elab)

        monkeypatch.setattr(engine, "_compile", counting)
        return tops

    def test_kernel_tier_never_generates_it(self, generated):
        sim = _ring_sim()
        digest = _digest(sim, 100)
        assert sim.frontier_cycle() == 100
        assert all("(1 fused-kernel)" in verdict
                   for verdict in sim.last_jit_report.values())
        assert generated == []
        # a checkpoint restore rebinds the kernels, nothing more
        resumed = _ring_sim()
        restore_state(resumed, capture_state(sim))
        resumed.run(120)
        assert generated == []
        # the interpreter generates one pair per partition on its
        # first eval and agrees bit for bit
        off = _ring_sim()
        off.stepjit = False
        assert _digest(off, 100) == digest
        assert len(generated) == len(off.partitions)

    def test_exact_mode_units_bind_it(self, generated):
        on, off = _build(mode=EXACT), _build(mode=EXACT)
        off.stepjit = False
        assert _digest(on, 100) == _digest(off, 100)
        assert all("(0 fused-kernel)" in verdict
                   for verdict in on.last_jit_report.values())
        assert len(generated) == len(on.partitions) + len(off.partitions)

    def test_fallback_and_restore_generate_it_on_demand(self, generated):
        """An interpreter pass behind a kernel-tier unit's runtime
        guard, and an interpreted run resumed from a kernel-tier
        checkpoint, both reach a working generic pair."""
        straight = _ring_sim()
        straight.stepjit = False
        want = _digest(straight, 100)
        generated.clear()

        sim = _ring_sim()
        sim.run(5)
        state = capture_state(sim)
        assert generated == []
        for part in sim.partitions.values():
            for _, unit in part.units:
                unit.try_fire_outputs()
        assert len(generated) == len(sim.partitions)
        assert _digest(sim, 100) == want

        resumed = _ring_sim()
        resumed.stepjit = False
        restore_state(resumed, state)
        got = _digest(resumed, 100)
        assert got["outputs"] == want["outputs"]
        assert got["detail"] == want["detail"]

    def test_monolithic_generates_it_on_first_step(self, generated):
        circuit = make_comb_pair_circuit()
        mono = MonolithicSimulation(circuit)
        assert generated == []
        mono.run(50)
        assert generated == [circuit.top]
        reference = Simulator(circuit, compiled=False)
        reference.run(50)
        assert mono.sim.snapshot() == reference.snapshot()
