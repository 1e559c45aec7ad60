"""The scenario mill's generator: determinism, validity, shrinkability.

Includes the determinism audit the mill depends on: scenario circuits
(and the library SoC builders they compose) must print byte-identically
across processes and ``PYTHONHASHSEED`` values — any set/dict
iteration-order leak in a builder shows up here as a fingerprint
mismatch.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.firrtl import circuit_fingerprint, parse_circuit
from repro.firrtl.passes.check import check_circuit
from repro.fuzz import (
    ALL_SHAPES,
    GeneratorKnobs,
    Scenario,
    build_scenario_circuit,
    derive_spec,
    generate_scenario,
    num_partitions,
    scenario_config,
    shrink_candidates,
)
from repro.service.executor import compile_design, partition_spec

SEED = 11
#: the corpus ``repro fuzz run --seed 7 --budget 40`` (CI's fuzz-smoke)
#: mills
SMOKE_CORPUS = [generate_scenario(7, i) for i in range(40)]


class TestScenario:
    def test_json_roundtrip(self):
        sc = generate_scenario(SEED, 3)
        again = Scenario.from_dict(json.loads(json.dumps(sc.to_dict())))
        assert again == sc
        assert again.fingerprint == sc.fingerprint

    def test_fingerprint_tracks_params(self):
        sc = generate_scenario(SEED, 3)
        assert sc.clone().fingerprint == sc.fingerprint
        assert sc.clone(max_groups=1).fingerprint != sc.fingerprint

    def test_rejects_foreign_payloads(self):
        with pytest.raises(ReproError):
            Scenario.from_dict({"format": "something-else"})
        good = generate_scenario(SEED, 0).to_dict()
        with pytest.raises(ReproError):
            Scenario.from_dict({**good, "version": 99})

    def test_unknown_shape_knobs_rejected(self):
        with pytest.raises(ReproError):
            GeneratorKnobs(shapes=("pipeline", "mesh"))
        with pytest.raises(ReproError):
            GeneratorKnobs(shapes=())


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        for index in range(10):
            a = generate_scenario(SEED, index)
            b = generate_scenario(SEED, index)
            assert a == b
            assert circuit_fingerprint(build_scenario_circuit(a)) \
                == circuit_fingerprint(build_scenario_circuit(b))
            assert derive_spec(a) == derive_spec(b)
            assert scenario_config(a) == scenario_config(b)

    def test_different_indices_differ(self):
        """Every scenario of the CI smoke corpus is a distinct target."""
        prints = {sc.fingerprint for sc in SMOKE_CORPUS}
        assert len(prints) == len(SMOKE_CORPUS)

    def test_shapes_all_reachable(self):
        """The CI smoke corpus covers every shape, and every scenario
        in it partitions."""
        assert {sc.shape for sc in SMOKE_CORPUS} == set(ALL_SHAPES)
        for sc in SMOKE_CORPUS:
            assert len(compile_design(scenario_config(sc)).partitions) \
                >= 2, sc.fingerprint

    def test_fingerprints_stable_across_hash_seeds(self):
        """The audit: builders must not leak set/dict iteration order.

        A child interpreter with a different PYTHONHASHSEED must
        fingerprint the same scenarios (and the library SoC builders)
        identically to this process.
        """
        script = (
            "import json, sys\n"
            "from repro.fuzz import generate_scenario, "
            "build_scenario_circuit\n"
            "from repro.firrtl import circuit_fingerprint\n"
            "from repro.targets.soc import make_ring_noc_soc, "
            "make_torus_noc_soc, make_star_soc\n"
            "prints = [circuit_fingerprint(build_scenario_circuit("
            f"generate_scenario({SEED}, i))) for i in range(8)]\n"
            "prints.append(circuit_fingerprint(make_ring_noc_soc(3)))\n"
            "prints.append(circuit_fingerprint(make_torus_noc_soc(3)))\n"
            "prints.append(circuit_fingerprint(make_star_soc(3)))\n"
            "print(json.dumps(prints))\n")

        def child(hash_seed: str):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True)
            return json.loads(out.stdout)

        assert child("1") == child("4242")

    def test_spec_rederives_after_param_edit(self):
        """Shrinking edits params; the re-derived spec must stay legal
        (clamped), never referencing dropped structure."""
        sc = generate_scenario(SEED, 5)
        shrunk = sc.clone(max_groups=1)
        spec = derive_spec(shrunk)
        n = len(spec.get("noc") or spec["extract"])
        assert n == 1


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       index=st.integers(min_value=0, max_value=10_000))
def test_every_generated_circuit_is_valid(seed, index):
    """Property: any (seed, index) yields a circuit that passes the IR
    checker and a job config with a legal partition spec — FireRipper
    compiles it without error, from the printed circuit text."""
    scenario = generate_scenario(seed, index)
    circuit = build_scenario_circuit(scenario)
    check_circuit(circuit)
    config = scenario_config(scenario)
    assert circuit_fingerprint(parse_circuit(config["circuit_text"])) \
        == circuit_fingerprint(circuit)
    assert partition_spec(config).num_fpgas == num_partitions(scenario)
    design = compile_design(config)
    assert len(design.partitions) >= 2


class TestShrinkCandidates:
    def test_candidates_are_valid_scenarios(self):
        for index in range(12):
            sc = generate_scenario(SEED, index)
            for cand in shrink_candidates(sc):
                assert cand.shape == sc.shape
                check_circuit(build_scenario_circuit(cand))
                compile_design(scenario_config(cand))

    def test_candidates_get_no_bigger(self):
        for index in range(12):
            sc = generate_scenario(SEED, index)
            base_parts = num_partitions(sc)
            for cand in shrink_candidates(sc):
                assert num_partitions(cand) <= base_parts
                assert cand.cycles <= sc.cycles

    def test_every_shape_eventually_bottoms_out(self):
        """Repeated greedy shrinking terminates at a fixpoint."""
        for index in range(8):
            sc = generate_scenario(SEED, index)
            for _ in range(60):
                nxt = next(iter(shrink_candidates(sc)), None)
                if nxt is None:
                    break
                sc = nxt
            else:
                pytest.fail(f"shrink did not bottom out for {sc.shape}")
