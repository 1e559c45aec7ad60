"""Compiled step plane: selection knobs, eligibility guard, codegen
output, fused-kernel memo, runtime-fallback identity, and the
call-outs (hardened / faulted links, switch hops) matching the
interpreter."""

import dis
import json
import re
from inspect import isgeneratorfunction
from pathlib import Path

import pytest

from repro.errors import DeadlockError, LinkGiveUpError, TransportError
from repro.fireripper import (
    EXACT,
    FAST,
    FireRipper,
    NoCPartitionSpec,
    PartitionGroup,
    PartitionSpec,
)
from repro.fuzz import functional_digest, load_repro
from repro.firrtl import make_circuit
from repro.firrtl.builder import ModuleBuilder
from repro.harness import (FunctionSource, MonolithicSimulation, Partition,
                           PartitionedSimulation, partitioned, stepjit)
from repro.harness.stepjit import (
    generate_sources,
    partition_jit_reason,
    stepjit_enabled,
    generate_partition_source,
)
from repro.observability import (NullTracer, RecordingTracer,
                                 stream_chrome_trace)
from repro.observability.tracer import TraceSite
from repro.parallel.coordinator import fork_available
from repro.platform import HOST_PCIE, QSFP_AURORA
from repro.reliability import (
    FaultSpec,
    ReliableLinkConfig,
    harden_links,
    inject_faults,
)
from repro.libdn import ChannelSpec, LIBDNHost
from repro.reliability.checkpoint import capture_state, restore_state
from repro.rtl import Simulator, engine, kernel
from repro.rtl.kernel import kernel_source
from repro.service.executor import build_simulation
from repro.targets import make_comb_pair_circuit
from repro.targets.soc import make_ring_noc_soc, make_wide_pair
from repro.telemetry import Counter, Histogram, NullTelemetry, Telemetry

from ..platform.test_extensions import _ethernet_sim


CORPUS = sorted(
    (Path(__file__).parent.parent / "fuzz" / "corpus").glob("*.json"))


def _fused_sim():
    """A simulation containing at least one fused-kernel-tier unit
    (dep-free output channels): a committed NoC fuzz scenario."""
    return _corpus_sim(
        next(p for p in CORPUS if p.name.startswith("fastmode-")))


def _clean_config(path):
    """A committed repro's job config without its fault schedule, so
    the link preparations here never stack on top of it."""
    config = load_repro(path)["config"]
    config.pop("faults", None)
    return config


def _corpus_sim(path):
    return build_simulation(_clean_config(path), record_outputs=True)


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


@pytest.fixture
def builds(monkeypatch):
    """Counting spy on the compiled-plane build: ``planes`` compiled
    (one schedule each) and their ``steps`` (step-function builds)."""
    counts = {"planes": 0, "steps": 0}

    def counting(key, fn):
        def spy(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(
        PartitionedSimulation, "_compile_schedule",
        counting("planes", PartitionedSimulation._compile_schedule))
    monkeypatch.setattr(
        partitioned, "compile_step_functions",
        counting("steps", partitioned.compile_step_functions))
    return counts


def _since(counts, before):
    return {key: counts[key] - before[key] for key in counts}


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
        # the disabled plane's pass loop is the interpreter's
        assert off._enter_plane().func == off._interpret


class TestEligibility:
    def _reasons(self, sim):
        return {p.part.name: partition_jit_reason(sim, p)
                for p in sim.ensure_schedule()}

    def test_clean_fast_sim_is_eligible(self):
        assert all(r is None for r in self._reasons(_build()).values())

    def test_traced_partition_compiles_its_emit_sites(self):
        """A traced partition is eligible and compiles its emit sites."""
        sim = _build(tracer=RecordingTracer())
        assert all(r is None for r in self._reasons(sim).values())
        sim.run(20)
        assert all(v.startswith("compiled")
                   for v in sim.last_jit_report.values())
        assert sim.tracer.total_emitted > 0

    def test_sampled_partition_compiles(self):
        """So is a partition under telemetry sampling."""
        sim = _build(telemetry=Telemetry(sample_every=10))
        assert all(r is None for r in self._reasons(sim).values())
        result = sim.run(20)
        assert all(v.startswith("compiled")
                   for v in sim.last_jit_report.values())
        assert result.detail["telemetry"]["series"]

    def test_reliability_layer_rejects(self):
        """Not any more: a hardened link compiles (``link.transmit``
        is a call-out) and matches the interpreter bit for bit."""
        sim = _build()
        harden_links(sim, FaultSpec(seed=3, drop_rate=0.2))
        assert all(r is None for r in self._reasons(sim).values())
        ref = _build()
        harden_links(ref, FaultSpec(seed=3, drop_rate=0.2))
        ref.stepjit = False
        assert _digest(sim) == _digest(ref)
        assert all(v.startswith("compiled")
                   for v in sim.last_jit_report.values())
        assert sum(s["retries"] for s in
                   sim.result().detail["reliability"].values()) > 0

    def test_nothing_attached_to_a_run_selects_the_engine(self):
        """Every corpus scenario — clean, hardened, raw-faulted — and
        the switched star is eligible on every partition."""
        spec = FaultSpec(seed=3, drop_rate=0.1, corrupt_rate=0.1)
        for path in CORPUS:
            for prepare in (None, harden_links, inject_faults):
                sim = _corpus_sim(path)
                if prepare is not None:
                    prepare(sim, spec)
                assert set(self._reasons(sim).values()) == {None}, path
        assert set(self._reasons(_switched_star()()).values()) == {None}

    def test_unfed_destination_port_raises_at_construction(self):
        """A mis-wired link used to cost its partition the JIT and then
        raise on its first token; now it never builds."""
        sim = _build()
        link = sim.links[0]
        src_port = sim._out_channel_by_key[link.src].spec.port_names[0]
        link.rename = {src_port: "nowhere"}
        with pytest.raises(TransportError) as exc:
            PartitionedSimulation(
                list(sim.partitions.values()), sim.links,
                sources=sim.sources)
        assert link.key in str(exc.value)
        assert repr(src_port) in str(exc.value)


class TestGeneratedSources:
    def test_sources_for_eligible_partitions(self):
        sim = _build()
        src, report = generate_sources(sim)
        assert set(report) == set(sim.partitions)
        assert all(verdict.startswith("compiled")
                   for verdict in report.values())
        assert "def _make(_B):" in src
        assert "def _pass(" in src

    def test_live_sinks_are_in_the_source_null_sinks_are_not(self):
        """A live tracer's emit sites are static sites bound into the
        step function and its rows plain tuples — no event in the
        source; live telemetry binds no registry and bumps nothing (its
        metrics are read off the links); the null sinks leave no trace
        in it."""
        sim = _build(tracer=RecordingTracer(),
                     telemetry=Telemetry(sample_every=10))
        kinds, sources = {}, {}
        for pplan in sim.ensure_schedule():
            name = pplan.part.name
            sources[name], bindings = generate_partition_source(sim, pplan)
            kinds[name] = {v.kind for v in bindings.values()
                           if isinstance(v, TraceSite)}
            for call in ("TraceEvent(", ".inc()", ".observe("):
                assert call not in sources[name], call
            assert {"channel_fire", "advance", "credit_stall", "token_tx",
                    "target_cycle"} <= kinds[name]
            assert ".stalls += 1" in sources[name]
            for binding in ("registry", ".ctr_", "_rgc", "_rx",
                            "'rx_depth'", "'tokens_tx'"):
                assert binding not in sources[name], binding
            assert not any(isinstance(v, (Counter, Histogram))
                           for v in bindings.values())
        assert set().union(*kinds.values()) == {
            "channel_fire", "advance", "credit_stall", "token_tx",
            "token_rx", "target_cycle", "bridge_output"}
        assert "bridge_output" in kinds["base"]
        clean = _build()
        for pplan in clean.ensure_schedule():
            src, bindings = generate_partition_source(clean, pplan)
            assert "_em" not in src and "_rgc" not in src
            assert ".ctr_" not in src and "te += 1" not in src
            assert not any(isinstance(v, TraceSite)
                           for v in bindings.values())

    # the null-sink binding tables of the comb-pair build: what the
    # pass bound before the emit sites existed, with every unit on
    # fused kernels
    CLEAN_BINDINGS = {
        "base": "pt sp sm len rng u f e mm r iq up qs kf wp "
                "aq ol olg bk lk cq cb cbg dk xq aq dh dhg cq",
        "fpga1": "pt sp sm len rng u f e mm r iq up qs kf wp aq "
                 "lk cq cb cbg dk xq aq dh dhg cq",
    }

    def test_null_sink_binding_table_is_unchanged(self):
        """Conditional emission is decided while generating: the clean
        variant binds exactly what it bound before, in the same order,
        and contains no sink flag check."""
        sim = _build()
        for pplan in sim.ensure_schedule():
            src, bindings = generate_partition_source(sim, pplan)
            want = self.CLEAN_BINDINGS[pplan.part.name].split()
            assert list(bindings) == [
                f"_{hint}{i}" for i, hint in enumerate(want)]
            for flag in ("_trace", "_metrics_on", ".enabled"):
                assert flag not in src

    @pytest.mark.parametrize("build", [
        lambda **kw: _build(**kw), lambda **kw: _build(mode=EXACT, **kw),
        lambda **kw: _ring8(FAST)(**kw)],
        ids=["generic-fast", "generic-exact", "kernel"])
    def test_null_sinks_print_the_untraced_plane(self, build):
        """What makes a null sink free: a ``NullTracer`` +
        ``NullTelemetry`` build prints byte-identical step-function
        sources and binds the same table (names, order, object types)
        as a build with no sink at all.  A process worker compiles its
        partition through the same ``compile_step_functions``."""
        plain, null = build(), build(tracer=NullTracer(),
                                     telemetry=NullTelemetry())
        assert generate_sources(null) == generate_sources(plain)
        for ours, theirs in zip(plain.ensure_schedule(),
                                null.ensure_schedule()):
            src, bindings = generate_partition_source(plain, ours)
            null_src, null_bindings = generate_partition_source(
                null, theirs)
            assert null_src == src
            assert [(k, type(v)) for k, v in null_bindings.items()] \
                == [(k, type(v)) for k, v in bindings.items()]

    def test_emit_sites_never_read_the_rtl_env(self):
        """Kernel-tier units leave combinational intermediates in the
        RTL env stale (the documented contract).  Observation stays
        exact under it because every event field and every instrument
        update reads the timing overlay and the cycle counters only."""
        sim = _ring8(FAST)(tracer=RecordingTracer(),
                           telemetry=Telemetry(sample_every=10))
        for pplan in sim.ensure_schedule():
            src, bindings = generate_partition_source(sim, pplan)
            state = [unit.sim.env for _, unit in pplan.part.units] \
                + [unit.sim.mem_state for _, unit in pplan.part.units]
            names = [n for n, v in bindings.items()
                     if any(v is obj for obj in state)]
            sites = [line for line in src.splitlines()
                     if re.search(r"_em\d|\.value \+=|_rh\.", line)]
            assert names and sites
            for line in sites:
                assert not re.search(
                    "|".join(rf"\b{n}\b" for n in names), line), line

    def test_source_compiles_standalone(self):
        sim = _build()
        for pplan in sim.ensure_schedule():
            src, bindings = generate_partition_source(sim, pplan)
            namespace = {}
            exec(compile(src, "<test>", "exec"), namespace)
            step = namespace["_make"](bindings)
            assert callable(step)

    def test_fused_kernels_cached_on_elaboration(self):
        # inproc: the memo under inspection lives on this process's
        # elaborations (a forked worker's compile never reaches them)
        sim = _fused_sim()
        sim.run(10, backend="inproc")

        def memos():
            return [dict(getattr(unit.sim.elab, "kernels", {}))
                    for part in sim.partitions.values()
                    for _, unit in part.units]

        before = memos()
        assert any(before), "no unit took the fused-kernel tier"
        for memo in before:  # (tag, layout) -> (fire, adv, cyc)
            for kern in memo.values():
                assert any(fn is not None for fn in kern)
                for fn, ticks in zip(kern, (False, True, True)):
                    if fn is not None:
                        assert "def _k(env, mems" in kernel_source(fn)
                        # the tick kernels are resumable frames, the
                        # fire kernel a plain function
                        assert isgeneratorfunction(fn) == ticks
        # a second run reuses the memo (same objects, no recompile)
        sim.run(20, backend="inproc")
        after = memos()
        assert [m.keys() for m in after] == [m.keys() for m in before]
        assert all(a[key] is b[key] for a, b in zip(after, before)
                   for key in b)


def test_first_quiescent_cycle_matches_the_interpreter():
    """The boot ring halts.  Per partition, the first cycle whose
    ``cyc`` kernel reports a tick fixed point is the first cycle across
    which the interpreter's registers and memories stop moving."""
    from repro.rtl.kernel import unit_kernels

    cycles = 160

    def units(sim):
        return [unit for part in sim.partitions.values()
                for _, unit in part.units]

    jit, flags = _ring_sim(), {}
    for unit in units(jit):
        fire, adv, cyc = unit_kernels(
            unit.sim.elab,
            [entry[2] for entry in unit.step_bindings()["fire_plans"]],
            unit.name)

        def spy(env, mems, unit=unit, cyc=cyc):
            for out in cyc(env, mems):
                flags.setdefault(unit.name, []).append(
                    (unit.target_cycle, out[-1]))
                yield out

        # the generator binds whatever the elaboration's memo holds
        (key,) = unit.sim.elab.kernels
        unit.sim.elab.kernels[key] = (fire, adv, spy)
    jit.run(cycles, backend="inproc")
    assert all(v.startswith("compiled")
               for v in jit.last_jit_report.values())

    interp, states = _ring_sim(), {}
    interp.stepjit = False

    def record(sim):
        for unit in units(sim):
            rtl = unit.sim
            states.setdefault(unit.name, {}).setdefault(
                unit.target_cycle,
                ({r: rtl.env[r] for r in rtl.elab.regs},
                 {k: list(v) for k, v in rtl.mem_state.items()}))
        return False

    interp.run(cycles, stop=record, backend="inproc")
    for name, seen in flags.items():
        first = next(c for c, quiescent in seen if quiescent)
        still = states[name]
        assert first == next(c for c in sorted(still)
                             if still[c] == still.get(c + 1)), name
        assert 0 < first < cycles - 1
    assert set(flags) == set(states)


def _ops(fn):
    return [(i.opname, i.argval) for i in dis.get_instructions(fn)]


@pytest.mark.parametrize("tiles,groups", [
    (24, [list(range(i * 6, i * 6 + 6)) for i in range(4)]),
    (8, [[0, 1, 2, 3], [4, 5, 6, 7]]),
])
def test_repeated_noc_groups_share_one_compile(monkeypatch, tiles, groups):
    """The ledger's rings: every NoC group prints one template per
    kernel kind, which is compiled once (base plus noc, for ``fire`` and
    for ``cyc``), and only the first group prints it: the others derive
    their prints from its; each group's kernel is its own function, and
    disassembles to what a compile of its own source gives."""
    compiled, printed = [], []
    monkeypatch.setattr(kernel, "compile", lambda src, name, mode: (
        compiled.append(name) or compile(src, name, mode)), raising=False)
    print_kernel = kernel.print_kernel
    monkeypatch.setattr(kernel, "print_kernel", lambda *a, **k: (
        printed.append(a[3]) or print_kernel(*a, **k)))
    spec = PartitionSpec(mode=FAST, noc=NoCPartitionSpec.make(groups))
    sim = FireRipper(spec).compile(
        make_ring_noc_soc(tiles, messages_per_tile=2)) \
        .build_simulation(QSFP_AURORA)
    sim.run(1, backend="inproc")
    assert sorted(compiled) == sorted(
        f"<stepjit-kernel:{kind}:{part}>"
        for kind in ("fire", "cyc") for part in ("base", "noc0"))
    assert sorted(printed) == sorted(
        f"{kind}:{part}" for kind in ("fire", "cyc")
        for part in ("base", "noc0"))
    kernels = {fn._stepjit_stats["kernel"]: fn
               for part in sim.partitions.values() for _, unit in part.units
               for fns in unit.sim.elab.kernels.values() for fn in fns if fn}
    cyc = [kernels[f"cyc:noc{g}"] for g in range(len(groups))]
    assert len({id(fn) for fn in cyc}) == len(groups)
    assert len({id(fn._stepjit_template) for fn in cyc}) == 1
    assert all(kernels[f"{kind}:noc{g}"]._stepjit_stats["derived"]
               == f"{kind}:noc0" for kind in ("fire", "cyc")
               for g in range(1, len(groups)))
    for tag, fn in kernels.items():
        namespace = {"_div": None, "_rem": None}
        exec(compile(kernel_source(fn), tag, "exec"), namespace)
        assert _ops(fn) == _ops(namespace["_k"]), tag
        assert fn.__code__.co_filename == f"<stepjit-kernel:{tag}>"


def _observe(build, cycles, jit, backend="inproc", prepare=None,
             sinks=True):
    """Run ``build(tracer=, telemetry=)`` traced + sampled (or with the
    null sinks); returns the sim and everything an observer can see of
    the run, a deadlock's message and postmortem included.  Events are
    compared through ``repr`` so an int/float drift in a field shows."""
    tracer = RecordingTracer()
    sim = build(tracer=tracer, telemetry=Telemetry(sample_every=7)) \
        if sinks else build()
    sim.stepjit = jit
    if prepare is not None:
        prepare(sim)
    deadlock = None
    try:
        result = sim.run(cycles, backend=backend)
    except DeadlockError as exc:
        result = sim.result()
        deadlock = (str(exc), exc.postmortem.channels,
                    [repr(e) for e in exc.postmortem.events])
    return sim, {
        "events": [repr(e) for e in tracer.events],
        "total_emitted": tracer.total_emitted,
        "telemetry": json.dumps(result.detail.get("telemetry", {})),
        "reliability": result.detail.get("reliability"),
        "digest": functional_digest(sim, result),
        "deadlock": deadlock,
    }


def _ring8(mode):
    spec = PartitionSpec(mode=mode, noc=NoCPartitionSpec.make(
        [[0, 1, 2, 3], [4, 5, 6, 7]]))
    design = FireRipper(spec).compile(
        make_ring_noc_soc(8, messages_per_tile=2))

    def build(**kwargs):
        return design.build_simulation(
            QSFP_AURORA, record_outputs=True, **kwargs)
    return build


def _switched_star():
    """The 4-tile star of ``tests/platform/test_extensions.py``: every
    link crosses one shared Ethernet switch fabric."""
    spec = PartitionSpec(mode=FAST,
                         noc=NoCPartitionSpec.make([[0, 1], [2, 3]]))
    design = FireRipper(spec).compile(
        make_ring_noc_soc(4, messages_per_tile=3))
    return lambda **kwargs: _ethernet_sim(
        design, record_outputs=True, **kwargs)[0]


#: drop + corrupt + spike + one flap, recovered by the reliable layer
HARD_FAULTS = FaultSpec(seed=11, drop_rate=0.1, corrupt_rate=0.1,
                        spike_rate=0.1, flaps=((20_000.0, 15_000.0),))
#: unprotected: corrupted tokens are delivered, then a drop starves
#: the receiver and the run dies with a ``DeadlockError``
RAW_FAULTS = FaultSpec(seed=2, drop_rate=0.02, corrupt_rate=0.1,
                       spike_rate=0.1)


def _harden(sim):
    harden_links(sim, HARD_FAULTS)


def _inject(sim):
    inject_faults(sim, RAW_FAULTS)


BACKENDS = ["inproc", pytest.param("process", marks=pytest.mark.skipif(
    not fork_available(), reason="the process backend needs os.fork"))]


@pytest.mark.parametrize("backend", BACKENDS)
class TestObservedIdentity:
    """Observation does not change what is observed, nor the engine:
    a traced + sampled run compiles, and its event list (every field,
    the order, ``total_emitted``), ``detail["telemetry"]`` and
    functional digest equal the interpreter's."""

    def _same(self, build, cycles, backend, fused):
        sim, jit = _observe(build, cycles, True, backend)
        _, interp = _observe(build, cycles, False, backend)
        assert jit["events"] and jit["telemetry"] != "{}"
        assert jit == interp
        assert all(v.startswith("compiled: 1 unit(s) "
                                f"({fused} fused-kernel)")
                   for v in sim.last_jit_report.values())

    @pytest.mark.parametrize("mode", [FAST, EXACT])
    def test_ring_kernel_tier_through_quiescence(self, backend, mode):
        # 2 messages per tile: busy for ~100 cycles, then every
        # partition replays cached words (the quiescence path)
        self._same(_ring8(mode), 300, backend, fused=1)

    @pytest.mark.parametrize("mode", [FAST, EXACT])
    def test_comb_pair_generic_tier(self, backend, mode):
        """Every unit of the comb pair carries dep channels: each fires
        its dep sets from their own kernels or settles once, on the
        fused-kernel tier (there is no generic printed tier)."""
        self._same(lambda **kw: _build(mode=mode, **kw), 60, backend,
                   fused=1)

    @pytest.mark.parametrize("build", [
        lambda **kw: _build(**kw), _ring8(FAST)], ids=["generic", "kernel"])
    def test_outbox_guard_fallback(self, backend, build):
        """A run resumed after an in-process segment emits through the
        same sinks and increments the same lazily created
        instruments."""
        def prepare(sim):
            sim.run(5, backend="inproc")

        sim, jit = _observe(build, 40, True, backend, prepare)
        _, interp = _observe(build, 40, False, backend, prepare)
        assert jit == interp

    def test_bounded_ring_of_rows_and_events(self, backend):
        """A 64-entry ring over a run that emits thousands of events:
        what the ring retains, its tail, its per-kind counts and
        ``total_emitted`` are the interpreter's, at the seam and at the
        end."""
        def seen(jit):
            tracer = RecordingTracer(capacity=64)
            sim = _ring8(FAST)(tracer=tracer,
                               telemetry=Telemetry(sample_every=7))
            sim.stepjit = jit
            sim.run(5, backend="inproc")
            views = []
            for cycles in (7, 200):
                sim.run(cycles, backend=backend)
                views.append({
                    "events": [repr(e) for e in tracer.events],
                    "recent": [repr(e) for e in tracer.recent(5)],
                    "counts": tracer.counts(),
                    "total_emitted": tracer.total_emitted,
                    "stored": {type(e).__name__ for e in tracer._events}})
            return views

        jit, interp = seen(True), seen(False)
        stored = [view.pop("stored") for view in jit]
        assert [view.pop("stored") for view in interp] \
            == [{"TraceEvent"}] * 2
        assert jit == interp
        assert [len(view["events"]) for view in jit] == [64, 64]
        # a process run merges what each worker's own 64-ring kept
        assert jit[1]["total_emitted"] > 5 * 64
        if backend == "inproc":
            # at the seam: the rows the plane appended, and nothing
            # emitted through the interpreter
            assert stored[0] == {"tuple"}

    def test_chrome_trace_bytes_match(self, backend, tmp_path):
        """The Chrome export of the traced ring8 is the interpreter's,
        byte for byte."""
        traces = []
        for jit in (True, False):
            tracer = RecordingTracer()
            sim = _ring8(FAST)(tracer=tracer)
            sim.stepjit = jit
            sim.run(120, backend=backend)
            path = stream_chrome_trace(tracer.events,
                                       tmp_path / f"jit{jit:d}.json")
            traces.append(path.read_bytes())
        assert traces[0] == traces[1]
        assert b'"token_rx"' in traces[0]

    BUILDS = {"ring8": (_ring8(FAST), 200),
              "pair-fast": (lambda **kw: _build(**kw), 80),
              "pair-exact": (lambda **kw: _build(mode=EXACT, **kw), 80)}

    @pytest.mark.parametrize("sinks", [True, False],
                             ids=["observed", "null"])
    @pytest.mark.parametrize("name", list(BUILDS))
    def test_hardened_links_compile_and_match(self, backend, name, sinks):
        """``link.transmit`` is a call-out: the layer's retries, its
        ``link_retry`` events and ``detail["reliability"]`` are the
        interpreter's."""
        build, cycles = self.BUILDS[name]
        sim, jit = _observe(build, cycles, True, backend, _harden, sinks)
        _, interp = _observe(build, cycles, False, backend, _harden, sinks)
        assert jit == interp
        assert all(v.startswith("compiled")
                   for v in sim.last_jit_report.values())
        stats = jit["reliability"].values()
        for key in ("drops_recovered", "crc_rejects", "spikes",
                    "flap_stalls"):
            assert sum(s[key] for s in stats) > 0, key
        if sinks:
            assert any("'link_retry'" in e for e in jit["events"])

    @pytest.mark.parametrize("sinks", [True, False],
                             ids=["observed", "null"])
    @pytest.mark.parametrize("name", list(BUILDS))
    def test_raw_faulted_links_compile_and_match(self, backend, name,
                                                 sinks):
        """Unprotected faults: the corrupted payloads, the dropped
        token, the ``DeadlockError`` it ends in and that error's
        postmortem event ring are the interpreter's."""
        build, cycles = self.BUILDS[name]
        sim, jit = _observe(build, cycles, True, backend, _inject, sinks)
        _, interp = _observe(build, cycles, False, backend, _inject, sinks)
        assert jit == interp
        assert jit["deadlock"] is not None
        if backend == "inproc":
            assert sim.dropped_tokens > 0
            assert all(v.startswith("compiled")
                       for v in sim.last_jit_report.values())
            assert bool(jit["deadlock"][2]) == sinks


class TestSwitchedIdentity:
    """A switch hop is one ``traverse`` call-out.  In-process only: a
    fabric shared across source partitions is not distributable."""

    @pytest.mark.parametrize("sinks", [True, False],
                             ids=["observed", "null"])
    @pytest.mark.parametrize("prepare", [None, _harden],
                             ids=["plain", "hardened"])
    def test_switched_star_compiles_and_matches(self, prepare, sinks):
        build = _switched_star()
        sim, jit = _observe(build, 300, True, "inproc", prepare, sinks)
        ref, interp = _observe(build, 300, False, "inproc", prepare, sinks)
        assert jit == interp
        assert all(v.startswith("compiled")
                   for v in sim.last_jit_report.values())
        fabric, ref_fabric = (s.links[0].switch for s in (sim, ref))
        assert fabric.tokens == ref_fabric.tokens > 0
        assert fabric.next_free == ref_fabric.next_free


class TestRuntimeIdentity:
    def test_stop_callback_observes_without_changing_the_run(self):
        """The one contract for both tiers: a stop callback reads the
        simulation between passes (it must not write RTL state — the
        compiled plane caches settles across passes)."""
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

    def test_checkpoint_roundtrip_under_jit(self, builds):
        """Restore replaces queue objects wholesale; the plane bound to
        the old deques is dropped, and the next entry builds its own."""
        straight = _build()
        d_straight = _digest(straight, 60)

        first = _build()
        first.run(30)
        state = capture_state(first)
        resumed = _build()
        # a compiled plane + progress to overwrite
        resumed.run(9, backend="inproc")
        restore_state(resumed, state)
        before = dict(builds)
        d_resumed = _digest(resumed, 60, backend="inproc")
        assert _since(builds, before) == {"planes": 1, "steps": 1}
        assert d_resumed["detail"] == d_straight["detail"]
        assert d_resumed["outputs"] == d_straight["outputs"]

    def test_checkpoint_roundtrip_on_a_hardened_link_under_jit(self):
        """The layer's sequence numbers and stats ride the checkpoint;
        a mid-run restore under the JIT lands where the straight
        hardened run and the interpreter's resumed run land."""
        def hardened():
            sim = _build()
            _harden(sim)
            return sim

        d_straight = _digest(hardened(), 80)
        first = hardened()
        first.run(37)
        state = json.loads(json.dumps(capture_state(first)))
        resumed = {}
        for jit in (True, False):
            sim = hardened()
            sim.stepjit = jit
            sim.run(9)  # stale compiled plans + progress to overwrite
            restore_state(sim, state)
            resumed[jit] = _digest(sim, 80)
            assert all(v.startswith("compiled" if jit else "disabled")
                       for v in sim.last_jit_report.values())
        assert resumed[True] == resumed[False]
        assert resumed[True]["outputs"] == d_straight["outputs"]
        assert resumed[True]["detail"]["reliability"] \
            == d_straight["detail"]["reliability"]

    def test_link_give_up_leaves_the_interpreters_state(self):
        """``link.transmit`` can raise; the partition's cursor, spans,
        the link's counters and every register, input and output port
        are then what the interpreter leaves (no settle commits ahead
        of a call-out).  Combinational intermediates are stale on the
        compiled plane by contract, so they are not compared."""
        left = {}
        for jit in (True, False):
            sim = _build()
            harden_links(sim, FaultSpec(seed=5, drop_rate=0.6),
                         ReliableLinkConfig(max_retries=2))
            sim.stepjit = jit
            with pytest.raises(LinkGiveUpError):
                # in-process: a failed process run merges nothing back
                sim.run(80, backend="inproc")
            assert sim.total_tokens > 0  # it got somewhere first
            state = capture_state(sim)
            for name, part in sim.partitions.items():
                elab = part.host.sim.elab
                env = state["partitions"][name]["host"]["sim"]["env"]
                for a in elab.assigns:
                    if a.name not in elab.outputs:
                        del env[a.name]
            left[jit] = json.dumps(state, sort_keys=True)
        assert left[True] == left[False]

    def test_exact_mode_matches_interpreter(self):
        on, off = _build(mode=EXACT), _build(mode=EXACT)
        off.stepjit = False
        assert _digest(on) == _digest(off)


#: recoverable without a reliable layer: nothing is dropped, so the
#: run completes (with deterministically wronged tokens)
SOFT_FAULTS = FaultSpec(seed=3, corrupt_rate=0.2, spike_rate=0.2)


def _swap_transport(sim):
    for link in sim.links:
        link.transport = HOST_PCIE


def _restore_cycle_30(sim):
    first = _build()
    first.run(30, backend="inproc")
    restore_state(sim, json.loads(json.dumps(capture_state(first))))


#: what may change between two ``run()`` entries of one simulation
CHANGES = {
    "harden_links": _harden,
    "inject_faults": lambda sim: inject_faults(sim, SOFT_FAULTS),
    "stepjit_off": lambda sim: setattr(sim, "stepjit", False),
    "record_outputs": lambda sim: setattr(sim, "record_outputs", True),
    "transport_swap": _swap_transport,
    "restore_state": _restore_cycle_30,
}


class TestPlaneLifecycle:
    """The compiled plane is a function of (topology, attached hook
    set): built once, rebuilt exactly when that set changes or the
    state it binds is replaced — no caller invalidates anything."""

    def test_unchanged_entries_build_once(self, builds):
        """``ring24_stream``'s partitioning (4 x 6 tiles + base): one
        ``run(1)`` and twelve 1000-cycle windows share one plane."""
        spec = PartitionSpec(mode=FAST, noc=NoCPartitionSpec.make(
            [list(range(i, i + 6)) for i in range(0, 24, 6)]))
        sim = FireRipper(spec).compile(
            make_ring_noc_soc(24, messages_per_tile=2)
        ).build_simulation(QSFP_AURORA)
        sim.run(1, backend="inproc")
        for _ in range(12):
            sim.run(sim.frontier_cycle() + 1000, backend="inproc")
        assert builds == {"planes": 1, "steps": 1}
        assert sim.frontier_cycle() == 12001

    @pytest.mark.parametrize("warm", [0, 25])
    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_a_change_between_entries_rebuilds_once(
            self, builds, change, warm):
        """Entry, change, entry: exactly one rebuild, and the result is
        the interpreter's for the same sequence — which, when the first
        entry stepped nothing, is a fresh simulation configured that
        way from cycle 0."""
        mutate = CHANGES[change]

        def entries(jit):
            sim = _build(record_outputs=False)
            sim.stepjit = jit
            sim.run(warm, backend="inproc")
            mutate(sim)
            before = dict(builds)
            return (_digest(sim, 60, backend="inproc"),
                    _since(builds, before))

        digest, rebuilt = entries(None)
        assert rebuilt == {"planes": 1, "steps": 1}
        assert digest == entries(False)[0]
        if not warm:
            fresh = _build(record_outputs=False)
            mutate(fresh)
            assert digest == _digest(fresh, 60, backend="inproc")


#: the kernel-tier units of ``_ring_sim``, one per partition
RING_KERNEL_UNITS = ["base", "noc0", "noc1"]


@pytest.fixture
def primes(monkeypatch, tmp_path):
    """Counting spy on kernel-frame primes, a forked worker's included:
    each prime appends its unit's name to a file."""
    log = tmp_path / "primes"
    log.touch()
    prime = partitioned._UnitPlan.prime

    def spy(up):
        with open(log, "a") as out:
            out.write(f"{up.prefix}{up.unit.name}\n")
        return prime(up)

    monkeypatch.setattr(partitioned._UnitPlan, "prime", spy)
    return lambda: sorted(log.read_text().split())


def _rewind_tile0(sim):
    """Restart tile 0's program through its RTL env: two registers the
    kernel frame holds in locals."""
    env = sim.partitions["noc0"].units[0][1].sim.env
    env["tile0.core.pc"] = 0
    env["tile0.core.halted"] = 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestKernelFrameLifecycle:
    """A kernel-tier unit's tick kernel runs as one live frame that
    holds its registers in locals.  Like the settle, a frame is never
    carried across ``run()`` entries: one is primed per kernel unit at
    every entry."""

    def test_one_prime_per_kernel_unit_per_entry(self, primes, backend):
        sim = _ring_sim()
        sim.run(20, backend=backend)
        assert primes() == RING_KERNEL_UNITS
        sim.run(60, backend=backend)
        assert primes() == sorted(RING_KERNEL_UNITS * 2)

    def test_a_stop_callback_run_primes_once(self, primes, backend):
        """One pass per callback, one frame for the whole run (the
        process backend refuses a ``stop`` callback)."""
        if backend == "process":
            pytest.skip("stop callbacks run in-process only")
        calls = []

        def stop(sim):
            calls.append(sim.frontier_cycle())
            return False

        _ring_sim().run(80, stop=stop, backend=backend)
        assert len(calls) >= 50
        assert primes() == RING_KERNEL_UNITS

    def test_a_register_written_between_entries_is_read(self, backend):
        """Every register and memory word after the next entry is the
        interpreter's, and differs from a run without the write."""
        def entries(jit, write):
            sim = _ring_sim()
            sim.stepjit = jit
            sim.run(60, backend=backend)
            if write:
                _rewind_tile0(sim)
            digest = _digest(sim, 200, backend=backend)
            return digest, [
                ({r: unit.sim.env[r] for r in unit.sim.elab.regs},
                 unit.sim.mem_state)
                for part in sim.partitions.values()
                for _, unit in part.units]

        written = entries(None, True)
        assert written == entries(False, True)
        assert written[1] != entries(None, False)[1]


class TestGenericPairOnFirstUse:
    """A compiled RTL engine generates its generic comb/tick pair when
    something first calls ``eval``/``tick``; a compiled plane runs
    fused kernels and never does."""

    @pytest.fixture
    def generated(self, monkeypatch):
        tops = []
        real = engine._compile

        def counting(elab):
            tops.append(elab.top)
            return real(elab)

        monkeypatch.setattr(engine, "_compile", counting)
        # the spy sees this process only, not a forked worker's engine
        monkeypatch.setenv("REPRO_BACKEND", "inproc")
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
        """Dep-carrying units no longer bind it: a JIT-on exact-mode run
        generates none, its interpreter twin one per partition."""
        on, off = _build(mode=EXACT), _build(mode=EXACT)
        off.stepjit = False
        digest = _digest(on, 100)
        assert all("(1 fused-kernel)" in verdict
                   for verdict in on.last_jit_report.values())
        assert generated == []
        assert _digest(off, 100) == digest
        assert len(generated) == len(off.partitions)

    def test_fallback_and_restore_generate_it_on_demand(self, generated):
        """An interpreted run resumed from a kernel-tier checkpoint
        reaches a working generic pair, one per partition on its first
        eval."""
        straight = _ring_sim()
        straight.stepjit = False
        want = _digest(straight, 100)
        generated.clear()

        sim = _ring_sim()
        sim.run(5)
        state = capture_state(sim)
        assert _digest(sim, 100) == want
        assert generated == []

        resumed = _ring_sim()
        resumed.stepjit = False
        restore_state(resumed, state)
        got = _digest(resumed, 100)
        assert got["outputs"] == want["outputs"]
        assert got["detail"] == want["detail"]
        assert len(generated) == len(resumed.partitions)

    def test_monolithic_generates_it_on_first_step(self, generated):
        circuit = make_comb_pair_circuit()
        mono = MonolithicSimulation(circuit)
        assert generated == []
        mono.run(50)
        assert generated == [circuit.top]
        reference = Simulator(circuit, compiled=False)
        reference.run(50)
        assert mono.sim.snapshot() == reference.snapshot()


def _kernel_calls(sim):
    """Wrap every kernel ``sim``'s plane will bind in a counter of its
    calls (a tick kernel's: its resumes), keyed by kernel tag."""
    calls = {}

    def counting(fn):
        tag = fn._stepjit_stats["kernel"]

        def fire(*args):
            calls[tag] = calls.get(tag, 0) + 1
            return fn(*args)

        def tick(env, mems):
            for out in fn(env, mems):
                calls[tag] = calls.get(tag, 0) + 1
                yield out
        spy = tick if isgeneratorfunction(fn) else fire
        spy._stepjit_stats = fn._stepjit_stats
        return spy

    for pplan in sim.ensure_schedule():
        for up in pplan.unit_plans:
            memo = stepjit.unit_kernels(*stepjit._kernel_request(up))
            for key, fns in up.unit.sim.elab.kernels.items():
                if fns is memo:
                    up.unit.sim.elab.kernels[key] = tuple(
                        fn and counting(fn) for fn in fns)
    return calls


def _undeclared_read_sim():
    """One source-fed unit whose output ``o = r ^ b`` declares only the
    input channel ``a`` (which drives ``r``): its cone reads ``b``
    too, so the interpreter's fire reads ``b`` as the last advance
    left it."""
    b = ModuleBuilder("Undeclared")
    a_in, b_in = b.input("a", 8), b.input("b", 8)
    r, o = b.reg("r", 8), b.output("o", 8)
    b.connect(r, (r + a_in).trunc(8))
    b.connect(o, r ^ b_in)
    host = LIBDNHost(
        Simulator(make_circuit(b.build(), [])),
        [ChannelSpec.make("a", [("a", 8)]),
         ChannelSpec.make("b", [("b", 8)])],
        [ChannelSpec.make("out", [("o", 8)], deps=["a"])], name="p")
    sources = {("p", "a"): FunctionSource(lambda c: {"a": c % 7 + 1}),
               ("p", "b"): FunctionSource(lambda c: {"b": c * 37 % 256})}
    return PartitionedSimulation([Partition("p", host)], [],
                                 sources=sources, record_outputs=True)


class TestOneTier:
    """Every unit runs on fused kernels: it settles once when its
    inputs are in, and otherwise fires each dep set from its own
    kernel, bit for bit the interpreter's run."""

    def test_dep_inputs_arriving_in_different_passes(self):
        """The exact-mode comb pair: each unit's two dep sets see their
        inputs in different passes, so both fire kernels run every
        cycle and the split advance resumes ``cyc`` once."""
        sim, ref = _build(mode=EXACT), _build(mode=EXACT)
        ref.stepjit = False
        calls = _kernel_calls(sim)
        assert _digest(sim, 60) == _digest(ref, 60)
        assert calls == {f"{kind}:{part}": 60
                         for kind in ("fire0", "fire1", "cyc")
                         for part in ("base", "fpga1")}

    def test_an_undeclared_input_read_stays_off_the_single_settle(
            self, monkeypatch):
        """The printer reports ``b`` in the cone of ``out``, whose
        channel declares only ``a``: the unit settles once only when no
        poke would change the env, so it keeps the interpreter's stale
        ``b``.  Settling once regardless would not."""
        sim, ref = _undeclared_read_sim(), _undeclared_read_sim()
        ref.stepjit = False
        calls = _kernel_calls(sim)
        want = _digest(ref, 40)
        assert _digest(sim, 40) == want
        assert calls["fire:p"] == 40
        assert sim.last_jit_report["p"].startswith(
            "compiled: 1 unit(s) (1 fused-kernel)")
        monkeypatch.setattr(stepjit, "_settle_rule", lambda *a: "poke")
        unguarded = _undeclared_read_sim()
        assert _digest(unguarded, 40)["outputs"] != want["outputs"]

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_every_corpus_unit_runs_on_fused_kernels(self, path):
        sim = _corpus_sim(path)
        sim.run(5, backend="inproc")
        for name, part in sim.partitions.items():
            units = len(part.units)
            assert sim.last_jit_report[name].startswith(
                f"compiled: {units} unit(s) ({units} fused-kernel)")

    @pytest.mark.parametrize("build", [
        lambda: FireRipper(PartitionSpec(mode=EXACT, groups=[
            PartitionGroup.make("fpga0", ["right"])])).compile(
                make_wide_pair(1024, comb_boundary=True)
        ).build_simulation(QSFP_AURORA, record_outputs=True)] + [
        lambda path=path: _corpus_sim(path) for path in CORPUS
        if _clean_config(path)["mode"] == EXACT],
        ids=["widepair1024_exact"] + [
            p.stem for p in CORPUS if _clean_config(p)["mode"] == EXACT])
    def test_a_jit_run_never_generates_the_generic_pair(
            self, monkeypatch, build):
        made = []
        monkeypatch.setattr(engine, "_compile", made.append)
        sim = build()
        sim.run(30, backend="inproc")
        assert made == []
        assert all(v.startswith("compiled")
                   for v in sim.last_jit_report.values())
