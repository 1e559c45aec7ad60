"""Property-based system tests.

The central invariant of the whole reproduction, stated by the paper's
Table II: *exact-mode partitioned simulation produces identical cycle
behaviour to monolithic simulation*.  Here hypothesis generates random
two-module circuits (random combinational functions, random register
feedback), FireRipper extracts the child onto its own "FPGA", and the
token-level co-simulation must produce the same per-cycle output trace as
the monolithic RTL simulation — for every generated circuit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.firrtl import ModuleBuilder, make_circuit, mux
from repro.fireripper import EXACT, FAST, FireRipper, PartitionGroup, PartitionSpec
from repro.harness import MonolithicSimulation
from repro.platform import QSFP_AURORA

WIDTH = 8

# a small algebra of two-operand combinational functions
_FUNCS = [
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a ^ b,
    lambda a, b: a & b,
    lambda a, b: (a | b) + 1,
    lambda a, b: mux(a.bits(0, 0) if hasattr(a, "bits") else a, a, b),
]

child_spec = st.fixed_dictionaries({
    # per child output: (is_registered, func index, operand selectors)
    "outs": st.lists(
        st.tuples(st.booleans(), st.integers(0, len(_FUNCS) - 1),
                  st.integers(0, 1), st.integers(0, 1)),
        min_size=1, max_size=3),
    # register update function
    "reg_func": st.integers(0, len(_FUNCS) - 1),
    "reg_init": st.integers(0, 255),
})

top_spec = st.fixed_dictionaries({
    # how the top's registers mix the child outputs back in
    "mix_func": st.integers(0, len(_FUNCS) - 1),
    "top_init": st.integers(0, 255),
    "n_child_ins": st.integers(1, 2),
})


def _apply(idx, a, b):
    fn = _FUNCS[idx]
    try:
        return fn(a, b)
    except AttributeError:
        return a + b


def _build(child_cfg, top_cfg):
    n_ins = top_cfg["n_child_ins"]
    cb = ModuleBuilder("Child")
    ins = [cb.input(f"i{k}", WIDTH) for k in range(n_ins)]
    reg = cb.reg("state", WIDTH, init=child_cfg["reg_init"])
    operands = ins + [reg]
    for k, (registered, f, s0, s1) in enumerate(child_cfg["outs"]):
        out = cb.output(f"o{k}", WIDTH)
        a = operands[s0 % len(operands)]
        b = operands[(s1 + 1) % len(operands)]
        if registered:
            cb.connect(out, reg)
        else:
            cb.connect(out, _apply(f, a.read(), b.read()))
    cb.connect(reg, _apply(child_cfg["reg_func"], reg.read(),
                           ins[0].read()))
    child = cb.build()

    tb = ModuleBuilder("Top")
    n_outs = len(child_cfg["outs"])
    obs = [tb.output(f"obs{k}", WIDTH) for k in range(n_outs)]
    r = tb.reg("r", WIDTH, init=top_cfg["top_init"])
    inst = tb.inst("child", child)
    # child inputs come from top registers only (keeps the boundary's
    # combinational chain within exact-mode's legal length)
    for k in range(n_ins):
        tb.connect(inst[f"i{k}"], r + k)
    mixed = r.read()
    for k in range(n_outs):
        mixed = _apply(top_cfg["mix_func"], mixed,
                       inst[f"o{k}"].read())
        tb.connect(obs[k], inst[f"o{k}"])
    tb.connect(r, mixed)
    return make_circuit(tb.build(), [child])


def _mono_trace(circuit, cycles):
    mono = MonolithicSimulation(circuit)
    return [mono.sim.step({}) for _ in range(cycles)]


def _partitioned_trace(circuit, mode, cycles):
    spec = PartitionSpec(mode=mode, groups=[
        PartitionGroup.make("fpga1", ["child"])])
    design = FireRipper(spec).compile(circuit)
    sim = design.build_simulation(QSFP_AURORA, record_outputs=True)
    sim.run(cycles)
    return sim.output_log[("base", "io_out")]


@given(child_cfg=child_spec, top_cfg=top_spec)
@settings(max_examples=60, deadline=None)
def test_exact_mode_partition_is_cycle_exact(child_cfg, top_cfg):
    circuit = _build(child_cfg, top_cfg)
    cycles = 8
    mono = _mono_trace(circuit, cycles)
    part = _partitioned_trace(circuit, EXACT, cycles)
    assert len(part) >= cycles
    for c in range(cycles):
        assert part[c] == mono[c], f"cycle {c} diverged"


def _build_pipeline(child_cfg, top_cfg):
    """Acyclic variant: the top never feeds child outputs back into the
    child's inputs, so fast-mode's injected boundary latency is a pure
    delay rather than a dynamics change."""
    n_ins = top_cfg["n_child_ins"]
    cb = ModuleBuilder("Child")
    ins = [cb.input(f"i{k}", WIDTH) for k in range(n_ins)]
    reg = cb.reg("state", WIDTH, init=child_cfg["reg_init"])
    for k, (_, f, s0, s1) in enumerate(child_cfg["outs"]):
        out = cb.output(f"o{k}", WIDTH)
        cb.connect(out, reg)  # registered boundary outputs
    cb.connect(reg, _apply(child_cfg["reg_func"], reg.read(),
                           ins[0].read()))
    child = cb.build()

    tb = ModuleBuilder("Top")
    n_outs = len(child_cfg["outs"])
    obs = [tb.output(f"obs{k}", WIDTH) for k in range(n_outs)]
    r = tb.reg("r", WIDTH, init=top_cfg["top_init"])
    inst = tb.inst("child", child)
    for k in range(n_ins):
        tb.connect(inst[f"i{k}"], r + k)
    tb.connect(r, r + 3)  # evolves independently of the child
    for k in range(n_outs):
        tb.connect(obs[k], inst[f"o{k}"])
    return make_circuit(tb.build(), [child])


def _build_pipeline_reference(child_cfg, top_cfg):
    """The paper's *modified target*: the same pipeline with one
    zero-initialized register stage inserted on each boundary crossing —
    exactly what fast-mode's seed tokens inject (Sec. III-A2)."""
    n_ins = top_cfg["n_child_ins"]
    cb = ModuleBuilder("ChildRef")
    ins = [cb.input(f"i{k}", WIDTH) for k in range(n_ins)]
    reg = cb.reg("state", WIDTH, init=child_cfg["reg_init"])
    for k in range(len(child_cfg["outs"])):
        out = cb.output(f"o{k}", WIDTH)
        cb.connect(out, reg)
    cb.connect(reg, _apply(child_cfg["reg_func"], reg.read(),
                           ins[0].read()))
    child = cb.build()

    tb = ModuleBuilder("TopRef")
    n_outs = len(child_cfg["outs"])
    obs = [tb.output(f"obs{k}", WIDTH) for k in range(n_outs)]
    r = tb.reg("r", WIDTH, init=top_cfg["top_init"])
    inst = tb.inst("child", child)
    for k in range(n_ins):
        stage = tb.reg(f"in_delay{k}", WIDTH)   # seed: zero-init
        tb.connect(stage, r + k)
        tb.connect(inst[f"i{k}"], stage)
    tb.connect(r, r + 3)
    for k in range(n_outs):
        stage = tb.reg(f"out_delay{k}", WIDTH)  # seed: zero-init
        tb.connect(stage, inst[f"o{k}"])
        tb.connect(obs[k], stage)
    return make_circuit(tb.build(), [child])


# -- randomized multi-partition topologies ------------------------------------

multi_spec = st.fixed_dictionaries({
    # 2 or 3 partitions total: base plus one FPGA per extracted leaf
    "n_children": st.integers(1, 2),
    # per leaf: channel width, register init, update function
    "widths": st.lists(st.sampled_from([4, 8, 16]),
                       min_size=2, max_size=2),
    "inits": st.lists(st.integers(0, 2 ** 16 - 1),
                      min_size=2, max_size=2),
    "funcs": st.lists(st.integers(0, len(_FUNCS) - 1),
                      min_size=2, max_size=2),
    "mix_func": st.integers(0, len(_FUNCS) - 1),
    # seeded external stimulus driven through the base's io_in bridge
    "stim": st.lists(st.integers(0, 255), min_size=10, max_size=10),
})


def _build_multi(cfg):
    """Random star topology: the top instantiates 1-2 distinct leaf
    modules (random widths/functions), each later extracted onto its own
    FPGA, with an external ``stim`` input exercising the io_in bridge."""
    n = cfg["n_children"]
    children = []
    for k in range(n):
        w = cfg["widths"][k]
        cb = ModuleBuilder(f"Leaf{k}")
        i0 = cb.input("i0", w)
        reg = cb.reg("state", w, init=cfg["inits"][k] % (1 << w))
        out = cb.output("o0", w)
        cb.connect(out, reg)  # registered boundary output
        cb.connect(reg, _apply(cfg["funcs"][k], reg.read(), i0.read()))
        children.append(cb.build())

    tb = ModuleBuilder("Top")
    stim = tb.input("stim", 8)
    for k in range(n):
        r = tb.reg(f"r{k}", cfg["widths"][k], init=(k + 1) * 7)
        inst = tb.inst(f"leaf{k}", children[k])
        # leaf inputs come from top registers (legal exact boundary);
        # leaf outputs feed back through those registers, closing a
        # cross-partition loop the token exchange must get right
        tb.connect(inst["i0"], r)
        tb.connect(r, _apply(cfg["mix_func"], inst["o0"].read(),
                             stim.read()))
        tb.connect(tb.output(f"obs{k}", cfg["widths"][k]), inst["o0"])
    return make_circuit(tb.build(), children)


def _multi_design(cfg):
    groups = [PartitionGroup.make(f"fpga{k + 1}", [f"leaf{k}"])
              for k in range(cfg["n_children"])]
    spec = PartitionSpec(mode=EXACT, groups=groups)
    return FireRipper(spec).compile(_build_multi(cfg))


def _stim_source(cfg):
    from repro.harness import FunctionSource
    stim = cfg["stim"]
    return FunctionSource(
        lambda c: {"stim": stim[c] if c < len(stim) else 0})


@given(cfg=multi_spec)
@settings(max_examples=40, deadline=None)
def test_random_multi_partition_exact_equivalence(cfg):
    """Randomized 2-3 partition topologies with seeded stimulus: the
    exact-mode co-simulation is bit-identical, cycle for cycle, to the
    monolithic simulation of the unpartitioned design."""
    cycles = 8
    mono = MonolithicSimulation(_build_multi(cfg))
    reference = [mono.sim.step({"stim": cfg["stim"][c]})
                 for c in range(cycles)]
    sim = _multi_design(cfg).build_simulation(
        QSFP_AURORA, record_outputs=True,
        sources={("base", "io_in"): _stim_source(cfg)})
    result = sim.run(cycles)
    assert result.target_cycles == cycles
    trace = sim.output_log[("base", "io_out")]
    assert len(trace) >= cycles
    for c in range(cycles):
        assert trace[c] == reference[c], f"cycle {c} diverged"


@given(cfg=multi_spec)
@settings(max_examples=20, deadline=None)
def test_recording_tracer_never_changes_results(cfg):
    """Tracing is pure observation: an untraced run, a null-traced run
    and a fully recorded run produce identical results (timing, token
    counts, FMR accounting, outputs) on random topologies — on the
    compiled step plane and on the interpreter, which also record the
    same events."""
    from repro.observability import NullTracer, RecordingTracer

    design = _multi_design(cfg)
    cycles = 8

    def run(tracer, jit=True):
        sim = design.build_simulation(
            QSFP_AURORA, record_outputs=True,
            sources={("base", "io_in"): _stim_source(cfg)},
            tracer=tracer)
        sim.stepjit = jit
        return sim.run(cycles), sim.output_log

    recording, interpreted = RecordingTracer(), RecordingTracer()
    baseline, base_log = run(None)
    for tracer, jit in ((NullTracer(), True), (recording, True),
                        (interpreted, False)):
        result, log = run(tracer, jit)
        assert result.target_cycles == baseline.target_cycles
        assert result.wall_ns == baseline.wall_ns
        assert result.rate_hz == baseline.rate_hz
        assert result.tokens_transferred == baseline.tokens_transferred
        assert result.per_partition_cycles == \
            baseline.per_partition_cycles
        assert result.detail["fmr"] == baseline.detail["fmr"]
        assert result.detail["fmr_breakdown"] == \
            baseline.detail["fmr_breakdown"]
        assert result.detail["links"] == baseline.detail["links"]
        assert log == base_log
    assert recording.total_emitted > 0
    assert recording.events == interpreted.events


@given(child_cfg=child_spec, top_cfg=top_spec)
@settings(max_examples=30, deadline=None)
def test_fast_mode_cycle_exact_wrt_modified_target(child_cfg, top_cfg):
    """The paper's fast-mode fidelity contract: results are cycle-exact
    with respect to the *modified* target — the original RTL with one
    zero-initialized register stage per boundary crossing (the seed
    tokens).  The partitioned fast-mode trace must equal the monolithic
    trace of that modified design, cycle for cycle."""
    circuit = _build_pipeline(child_cfg, top_cfg)
    reference = _build_pipeline_reference(child_cfg, top_cfg)
    cycles = 10
    ref = _mono_trace(reference, cycles)
    part = _partitioned_trace(circuit, FAST, cycles)
    for c in range(cycles):
        assert part[c] == ref[c], f"cycle {c} diverged from modified RTL"


def _multi_design_mode(cfg, mode):
    groups = [PartitionGroup.make(f"fpga{k + 1}", [f"leaf{k}"])
              for k in range(cfg["n_children"])]
    spec = PartitionSpec(mode=mode, groups=groups)
    return FireRipper(spec).compile(_build_multi(cfg))


def _multi_sim(cfg, mode):
    return _multi_design_mode(cfg, mode).build_simulation(
        QSFP_AURORA, record_outputs=True,
        sources={("base", "io_in"): _stim_source(cfg)})


@given(cfg=multi_spec, mode=st.sampled_from([EXACT, FAST]))
@settings(max_examples=25, deadline=None)
def test_process_backend_bit_identical_to_inproc(cfg, mode):
    """The distributed backend's contract: running every partition in
    its own OS process over real pipes produces the *same bits* as the
    cooperative in-process loop — the full result detail (FMR split,
    link accounting, reliability stats), token counts, per-partition
    cycles and the recorded output trace, on random 2-3 partition
    topologies in both exact and fast mode."""
    from repro.parallel import ProcessBackend, fork_available
    if not fork_available():  # pragma: no cover - linux CI always has fork
        return
    cycles = 8
    s1 = _multi_sim(cfg, mode)
    r1 = s1.run(cycles, backend="inproc")
    s2 = _multi_sim(cfg, mode)
    r2 = ProcessBackend().run(s2, cycles)
    assert r2.detail == r1.detail
    assert r2.target_cycles == r1.target_cycles
    assert r2.tokens_transferred == r1.tokens_transferred
    assert r2.per_partition_cycles == r1.per_partition_cycles
    assert s2.output_log == s1.output_log


@given(cfg=multi_spec)
@settings(max_examples=10, deadline=None)
def test_parallel_checkpoint_resumes_in_process(cfg):
    """Backends are interchangeable mid-run: a checkpoint captured from
    a process-backed run is byte-identical to one captured from the
    in-process loop at the same cycle, and restoring it into the
    in-process backend continues to exactly the state a serial
    checkpoint-resume reaches."""
    from repro.parallel import ProcessBackend, fork_available
    from repro.reliability import capture_state, restore_state
    if not fork_available():  # pragma: no cover - linux CI always has fork
        return
    serial = _multi_sim(cfg, EXACT)
    serial.run(7, backend="inproc")
    serial_state = capture_state(serial)

    parallel = _multi_sim(cfg, EXACT)
    ProcessBackend().run(parallel, 7)
    parallel_state = capture_state(parallel)
    assert parallel_state == serial_state

    def resume(state):
        sim = _multi_sim(cfg, EXACT)
        restore_state(sim, state)
        return sim.run(14, backend="inproc"), sim.output_log

    r1, log1 = resume(serial_state)
    r2, log2 = resume(parallel_state)
    assert r2.detail == r1.detail
    assert log2 == log1


def _multi_sim_telemetry(cfg, sample_every=4, jit=True):
    from repro.telemetry import Telemetry
    sim = _multi_design_mode(cfg, EXACT).build_simulation(
        QSFP_AURORA, record_outputs=True,
        sources={("base", "io_in"): _stim_source(cfg)},
        telemetry=Telemetry(sample_every=sample_every))
    sim.stepjit = jit
    return sim


@given(cfg=multi_spec, jit_inproc=st.booleans(),
       jit_process=st.booleans())
@settings(max_examples=10, deadline=None)
def test_telemetry_series_bit_identical_across_backends(
        cfg, jit_inproc, jit_process):
    """The telemetry contract: with sampling on, the metric series the
    process backend's workers ship home merges into the *same bits* as
    the in-process loop's — every sample point, every instrument, and
    therefore the whole result detail, on random topologies, whichever
    side runs compiled step functions."""
    import json

    from repro.parallel import ProcessBackend, fork_available
    if not fork_available():  # pragma: no cover - linux CI always has fork
        return
    cycles = 12
    s1 = _multi_sim_telemetry(cfg, jit=jit_inproc)
    r1 = s1.run(cycles, backend="inproc")
    s2 = _multi_sim_telemetry(cfg, jit=jit_process)
    r2 = ProcessBackend().run(s2, cycles)
    assert r1.detail["telemetry"]["series"]  # sampling actually fired
    assert json.dumps(r2.detail, sort_keys=True) \
        == json.dumps(r1.detail, sort_keys=True)


@given(cfg=multi_spec)
@settings(max_examples=10, deadline=None)
def test_telemetry_survives_checkpoint_roundtrip(cfg):
    """Telemetry is part of simulation state: a checkpoint carries the
    sampled series through a JSON serialization round trip losslessly —
    a resume keeps the pre-checkpoint prefix bit-for-bit, continues
    sampling past it, and two independent resumes from the serialized
    state agree on everything."""
    import copy
    import json

    from repro.reliability import capture_state, restore_state
    first = _multi_sim_telemetry(cfg)
    first.run(7, backend="inproc")
    prefix = copy.deepcopy(first.telemetry.sampler.series)
    raw_state = capture_state(first)
    state = json.loads(json.dumps(raw_state))
    assert state == raw_state  # nothing in a checkpoint defies JSON
    assert "telemetry" in state

    def resume(snapshot):
        sim = _multi_sim_telemetry(cfg)
        restore_state(sim, snapshot)
        return sim.run(14, backend="inproc")

    r1, r2 = resume(state), resume(json.loads(json.dumps(state)))
    assert r1.detail == r2.detail
    series = r1.detail["telemetry"]["series"]
    for part, points in prefix.items():
        # restored series keeps the pre-checkpoint samples bit-for-bit
        assert [list(p) for p in points] \
            == series[part][:len(points)], part
    # and sampling resumed after the restore
    assert any(points[-1][0] > 7 for points in series.values())
