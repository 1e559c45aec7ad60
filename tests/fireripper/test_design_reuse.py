"""One compiled design, many simulations: a design elaborates each
partition once and memoizes its fused kernels on that elaboration, so
simulations built from it share both — and a pickled design carries
them, source and all, to a process that never printed a kernel."""

import pickle

import pytest

from repro.cli import main
from repro.fireripper.compiler import DESIGN_MEMO
from repro.fuzz import functional_digest, generate_scenario, scenario_config
from repro.harness.stepjit import generate_sources
from repro.firrtl import print_circuit
from repro.rtl import kernel
from repro.service.executor import (build_simulation, compile_design,
                                    normalize_config)
from repro.targets.soc import make_ring_noc_soc, make_wide_pair


RING_TEXT = print_circuit(make_ring_noc_soc(4, messages_per_tile=3))

#: the ring's two halves as explicit instance paths (``repro jit`` takes
#: no router indices)
RING_HALVES = ["router0,conv0,tile0,router1,conv1,tile1",
               "router2,conv2,tile2,router3,conv3,tile3"]


def _ring_config(**partition):
    return normalize_config({
        "kind": "simulate", "mode": "fast", "cycles": 120,
        "circuit_text": RING_TEXT,
        **(partition or {"noc": [[0, 1], [2, 3]]})})


def _widepair_config():
    return normalize_config({
        "kind": "simulate", "mode": "exact", "cycles": 90,
        "circuit_text": print_circuit(
            make_wide_pair(64, comb_boundary=True)),
        "extract": [["right"]]})


def _scenario_config(wanted):
    """The first seed-7 mill scenario whose config has ``wanted``."""
    return next(config for config in (
        scenario_config(generate_scenario(7, i)) for i in range(40))
        if wanted in config)


CONFIGS = {
    "noc-ring-fast": _ring_config,
    "widepair-exact": _widepair_config,
    "fame5-scenario": lambda: _scenario_config("fame5"),
    "faults-scenario": lambda: _scenario_config("faults"),
}


def _build(config, design=None):
    return build_simulation(config, design, record_outputs=True)


def _elabs(sim):
    return [unit.sim.elab for part in sim.partitions.values()
            for _, unit in part.units]


def _run_in_cuts(sims, cycles, cuts=3):
    """Step every sim to ``cycles`` in ``cuts`` segments, interleaved:
    each segment of one sim runs between two of the others'."""
    for i in range(1, cuts + 1):
        results = [sim.run(cycles * i // cuts, backend="inproc")
                   for sim in sims]
    return [functional_digest(sim, result)
            for sim, result in zip(sims, results)]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulations_of_one_design_do_not_alias(name):
    """Two simulations of one design share its elaborations and kernel
    functions, and stepping them interleaved leaves each with the full
    digest of a simulation built from a freshly compiled design."""
    config = CONFIGS[name]()
    design = compile_design(config)
    first, second = _build(config, design), _build(config, design)
    assert all(a is b for a, b in zip(_elabs(first), _elabs(second)))
    DESIGN_MEMO.clear()  # so the reference is compiled afresh
    (fresh,) = _run_in_cuts([_build(config)], config["cycles"])
    digests = _run_in_cuts([first, second], config["cycles"])
    assert digests == [fresh, fresh]
    shared = [elab for elab in _elabs(first)
              if getattr(elab, "kernels", None)]
    if name == "widepair-exact":
        # the base unit carries dep channels: no fused kernel
        assert len(shared) < len(_elabs(first))
    else:
        assert shared


def _jit_dump(monkeypatch, capsys, tmp_path, design):
    """``repro jit --dump`` of the ring halves, built from ``design``
    instead of a compile of its own."""
    monkeypatch.setattr("repro.service.executor.compile_design",
                        lambda config: design)
    path = tmp_path / "ring.fir"
    path.write_text(RING_TEXT)
    assert main(["jit", str(path), "--mode", "fast", "--dump",
                 "--extract", RING_HALVES[0],
                 "--extract", RING_HALVES[1]]) == 0
    return capsys.readouterr().out


def test_a_pickled_design_runs_without_printing_a_kernel(
        monkeypatch, capsys, tmp_path):
    """After a run, a design pickles with its elaborations and kernel
    sources; the loaded copy builds and runs to the same digest without
    one ``compile_kernel`` call, and generates the same step-plane and
    kernel text."""
    config = _ring_config(extract=RING_HALVES)
    design = compile_design(config)
    sim = _build(config, design)
    digest = functional_digest(sim, sim.run(config["cycles"],
                                            backend="inproc"))
    sources = generate_sources(sim)
    dump = _jit_dump(monkeypatch, capsys, tmp_path, design)
    assert "# kernel for" in dump

    loaded = pickle.loads(pickle.dumps(design))
    calls = []
    compile_kernel = kernel.compile_kernel
    monkeypatch.setattr(kernel, "compile_kernel",
                        lambda *a, **k: calls.append(a[3])
                        or compile_kernel(*a, **k))
    again = _build(config, loaded)
    assert functional_digest(again, again.run(
        config["cycles"], backend="inproc")) == digest
    assert generate_sources(again) == sources
    assert _jit_dump(monkeypatch, capsys, tmp_path, loaded) == dump
    assert calls == []
    DESIGN_MEMO.clear()  # so the design below is compiled afresh
    _build(config, compile_design(config)).run(1, backend="inproc")
    assert calls, "the spy misses a fresh design's kernels"
