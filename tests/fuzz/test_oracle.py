"""Differential oracles on fixed scenario configs: clean passes,
injected disagreements caught, digests stable."""

import pytest

from repro.errors import FuzzFailure, ReproError
from repro.fuzz import (
    GeneratorKnobs,
    check_checkpoint,
    check_engine,
    check_fastmode,
    check_faults,
    check_identity,
    functional_digest,
    generate_scenario,
    run_oracles,
    scenario_config,
)
from repro.fuzz import oracle
from repro.fuzz.oracle import _first_diff
from repro.harness import stepjit
from repro.parallel.coordinator import fork_available
from repro.service.executor import build_simulation

SEED = 7

PIPE_KNOBS = GeneratorKnobs(shapes=("pipeline",), max_lanes=2,
                            max_stages=2, max_cycles=96)


def find_scenario(pred, knobs=None, limit=40):
    for index in range(limit):
        sc = generate_scenario(SEED, index, knobs)
        if pred(sc):
            return sc
    raise AssertionError("no scenario in range matches the predicate")


@pytest.fixture(scope="module")
def pipeline_scenario():
    return find_scenario(lambda sc: True, knobs=PIPE_KNOBS)


@pytest.fixture(scope="module")
def pipeline(pipeline_scenario):
    return scenario_config(pipeline_scenario)


@pytest.fixture(scope="module")
def faulty():
    return scenario_config(find_scenario(
        lambda sc: sum((sc.params.get("fault") or {}).values()) > 0,
        knobs=PIPE_KNOBS))


class TestDigest:
    def test_digest_is_repeatable(self, pipeline):
        digests = []
        for _ in range(2):
            sim = build_simulation(pipeline, record_outputs=True)
            digests.append(
                functional_digest(sim, sim.run(pipeline["cycles"])))
        assert digests[0] == digests[1]

    def test_first_diff_points_at_leaf(self):
        ref = {"a": 1, "b": {"c": [1, 2], "d": 3}}
        assert "b.c" in _first_diff(ref, {"a": 1, "b": {"c": [1], "d": 3}})
        assert _first_diff(ref, {"a": 1}).startswith("b missing")
        assert "unexpected" in _first_diff(
            ref, {**ref, "z": 0})


class TestIdentity:
    def test_inproc_only_agrees_trivially(self, pipeline):
        notes = check_identity(pipeline, backends=("inproc",))
        assert notes["compared"] == ["inproc"]
        assert notes["tokens"] > 0

    def test_missing_reference_fails(self, pipeline):
        with pytest.raises(FuzzFailure) as info:
            check_identity(pipeline, backends=("process",)
                           if fork_available() else ())
        assert info.value.oracle == "identity"
        assert info.value.backend == "inproc"

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_backend_agrees(self, pipeline):
        notes = check_identity(pipeline,
                               backends=("inproc", "process"))
        assert "process" in notes["compared"]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_perturbation_is_caught(self, pipeline):
        def perturb(backend, sim, result):
            if backend == "process":
                result.tokens_transferred += 1

        with pytest.raises(FuzzFailure) as info:
            check_identity(pipeline,
                           backends=("inproc", "process"),
                           perturb=perturb)
        assert info.value.oracle == "identity"
        assert info.value.backend == "process"
        assert "tokens" in str(info.value)
        assert info.value.config == pipeline


    def test_partition_off_the_step_plane_is_caught(
            self, pipeline_scenario, pipeline, monkeypatch):
        """The next JIT cliff surfaces as a failure, not a slow run."""
        real = stepjit.partition_jit_reason
        monkeypatch.setattr(
            stepjit, "partition_jit_reason",
            lambda sim, pplan: "a new cliff" if pplan.part.name == "base"
            else real(sim, pplan))
        with pytest.raises(FuzzFailure) as info:
            check_identity(pipeline, backends=("inproc",))
        assert info.value.oracle == "identity"
        assert "'base': 'interpreted: a new cliff'" in str(info.value)
        with pytest.raises(FuzzFailure, match="a new cliff"):
            check_faults(scenario_config(pipeline_scenario.clone(
                fault={"drop_rate": 0.1})))
        # a run that asked for the interpreter is not a cliff
        monkeypatch.setenv("REPRO_STEPJIT", "0")
        check_identity(pipeline, backends=("inproc",))


class TestFastmode:
    def test_pipeline_relationship_holds(self, pipeline):
        notes = check_fastmode(pipeline)
        assert notes["status"] in ("ok", "skipped")
        if notes["status"] == "ok":
            assert notes["exact_cycles"] == notes["mono_cycles"]
            assert notes["fast_cycles"] >= notes["exact_cycles"]

    def test_no_done_output_is_skipped(self):
        sc = find_scenario(lambda s: s.shape == "widepair", limit=200)
        notes = check_fastmode(scenario_config(sc))
        assert notes["status"] == "skipped"


class TestCheckpoint:
    def test_roundtrip_lands_on_straight_run(self, pipeline):
        notes = check_checkpoint(pipeline)
        assert notes["status"] == "ok"
        assert 0 < notes["capture_cycle"] < pipeline["cycles"]

    def test_state_corruption_is_caught(self, pipeline):
        def corrupt(state):
            state["total_tokens"] += 5
            return state

        with pytest.raises(FuzzFailure) as info:
            check_checkpoint(pipeline, perturb_state=corrupt)
        assert info.value.oracle == "checkpoint"
        assert "tokens" in str(info.value)


class TestFaults:
    def test_hardened_run_survives_and_agrees(self, faulty):
        notes = check_faults(faulty)
        assert notes["status"] == "ok"
        assert notes["fault_rate"] > 0

    def test_interpreter_disagreement_is_caught(self, faulty,
                                                monkeypatch):
        """The hardened scenario runs a third time under
        ``stepjit=False``; its full digest must equal the JIT's."""
        real = oracle.functional_digest

        def skewed(sim, result):
            digest = real(sim, result)
            if sim.stepjit is False:
                digest["detail"]["fmr"]["base"] += 1e-9
            return digest

        monkeypatch.setattr(oracle, "functional_digest", skewed)
        with pytest.raises(FuzzFailure) as info:
            check_faults(faulty)
        assert info.value.oracle == "faults"
        assert "interpreter" in str(info.value)
        assert "detail.fmr.base" in str(info.value)

    def test_fault_free_schedule_skipped(self, pipeline_scenario):
        clean = scenario_config(pipeline_scenario.clone(
            fault={"drop_rate": 0.0, "corrupt_rate": 0.0,
                   "spike_rate": 0.0}))
        assert "faults" not in clean
        assert check_faults(clean)["status"] == "skipped"


class TestEngine:
    def test_compiled_plane_agrees_with_the_interpreter(self, pipeline):
        assert check_engine(pipeline)["status"] == "ok"

    def test_interpreter_disagreement_is_caught(self, pipeline,
                                                monkeypatch):
        real = oracle.functional_digest

        def skewed(sim, result):
            digest = real(sim, result)
            if sim.stepjit is None:
                digest["outputs"] = {"base/io_out": []}
            return digest

        monkeypatch.setattr(oracle, "functional_digest", skewed)
        with pytest.raises(FuzzFailure) as info:
            check_engine(pipeline)
        assert info.value.oracle == "engine"
        assert "outputs" in str(info.value)

    def test_partition_off_the_step_plane_is_caught(self, pipeline,
                                                    monkeypatch):
        monkeypatch.setattr(stepjit, "partition_jit_reason",
                            lambda sim, pplan: "a new cliff")
        with pytest.raises(FuzzFailure, match="a new cliff"):
            check_engine(pipeline)


class TestDispatch:
    def test_unknown_oracle_rejected(self, pipeline):
        with pytest.raises(ReproError):
            run_oracles(pipeline, oracles=("identity", "nope"))

    def test_selected_oracles_run_in_order(self, pipeline):
        notes = run_oracles(pipeline,
                            oracles=("checkpoint", "fastmode"),
                            backends=("inproc",))
        assert list(notes) == ["checkpoint", "fastmode"]
