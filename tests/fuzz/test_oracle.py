"""Differential oracles on fixed scenarios: clean passes, injected
disagreements caught, digests stable."""

import pytest

from repro.errors import FuzzFailure, ReproError
from repro.fuzz import (
    GeneratorKnobs,
    check_checkpoint,
    check_fastmode,
    check_faults,
    check_identity,
    functional_digest,
    generate_scenario,
    make_sim,
    run_oracles,
)
from repro.fuzz import oracle
from repro.fuzz.oracle import _first_diff
from repro.harness import stepjit
from repro.parallel.coordinator import fork_available

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
def faulty_scenario():
    return find_scenario(
        lambda sc: sum((sc.params.get("fault") or {}).values()) > 0,
        knobs=PIPE_KNOBS)


class TestDigest:
    def test_digest_is_repeatable(self, pipeline_scenario):
        digests = []
        for _ in range(2):
            sim = make_sim(pipeline_scenario)
            digests.append(
                functional_digest(sim, sim.run(pipeline_scenario.cycles)))
        assert digests[0] == digests[1]

    def test_first_diff_points_at_leaf(self):
        ref = {"a": 1, "b": {"c": [1, 2], "d": 3}}
        assert "b.c" in _first_diff(ref, {"a": 1, "b": {"c": [1], "d": 3}})
        assert _first_diff(ref, {"a": 1}).startswith("b missing")
        assert "unexpected" in _first_diff(
            ref, {**ref, "z": 0})


class TestIdentity:
    def test_inproc_only_agrees_trivially(self, pipeline_scenario):
        notes = check_identity(pipeline_scenario, backends=("inproc",))
        assert notes["compared"] == ["inproc"]
        assert notes["tokens"] > 0

    def test_missing_reference_fails(self, pipeline_scenario):
        with pytest.raises(FuzzFailure) as info:
            check_identity(pipeline_scenario, backends=("process",)
                           if fork_available() else ())
        assert info.value.oracle == "identity"
        assert info.value.backend == "inproc"

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_backend_agrees(self, pipeline_scenario):
        notes = check_identity(pipeline_scenario,
                               backends=("inproc", "process"))
        assert "process" in notes["compared"]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_perturbation_is_caught(self, pipeline_scenario):
        def perturb(backend, sim, result):
            if backend == "process":
                result.tokens_transferred += 1

        with pytest.raises(FuzzFailure) as info:
            check_identity(pipeline_scenario,
                           backends=("inproc", "process"),
                           perturb=perturb)
        assert info.value.oracle == "identity"
        assert info.value.backend == "process"
        assert "tokens" in str(info.value)
        assert info.value.scenario == pipeline_scenario.to_dict()


    def test_partition_off_the_step_plane_is_caught(
            self, pipeline_scenario, monkeypatch):
        """The next JIT cliff surfaces as a failure, not a slow run."""
        real = stepjit.partition_jit_reason
        monkeypatch.setattr(
            stepjit, "partition_jit_reason",
            lambda sim, pplan: "a new cliff" if pplan.part.name == "base"
            else real(sim, pplan))
        with pytest.raises(FuzzFailure) as info:
            check_identity(pipeline_scenario, backends=("inproc",))
        assert info.value.oracle == "identity"
        assert "'base': 'interpreted: a new cliff'" in str(info.value)
        with pytest.raises(FuzzFailure, match="a new cliff"):
            check_faults(pipeline_scenario.clone(
                fault={"drop_rate": 0.1}))
        # a run that asked for the interpreter is not a cliff
        monkeypatch.setenv("REPRO_STEPJIT", "0")
        check_identity(pipeline_scenario, backends=("inproc",))


class TestFastmode:
    def test_pipeline_relationship_holds(self, pipeline_scenario):
        notes = check_fastmode(pipeline_scenario)
        assert notes["status"] in ("ok", "skipped")
        if notes["status"] == "ok":
            assert notes["exact_cycles"] == notes["mono_cycles"]
            assert notes["fast_cycles"] >= notes["exact_cycles"]

    def test_no_done_output_is_skipped(self):
        sc = find_scenario(lambda s: s.shape == "widepair", limit=200)
        notes = check_fastmode(sc)
        assert notes["status"] == "skipped"


class TestCheckpoint:
    def test_roundtrip_lands_on_straight_run(self, pipeline_scenario):
        notes = check_checkpoint(pipeline_scenario)
        assert notes["status"] == "ok"
        assert 0 < notes["capture_cycle"] < pipeline_scenario.cycles

    def test_state_corruption_is_caught(self, pipeline_scenario):
        def corrupt(state):
            state["total_tokens"] += 5
            return state

        with pytest.raises(FuzzFailure) as info:
            check_checkpoint(pipeline_scenario, perturb_state=corrupt)
        assert info.value.oracle == "checkpoint"
        assert "tokens" in str(info.value)


class TestFaults:
    def test_hardened_run_survives_and_agrees(self, faulty_scenario):
        notes = check_faults(faulty_scenario)
        assert notes["status"] == "ok"
        assert notes["fault_rate"] > 0

    def test_interpreter_disagreement_is_caught(self, faulty_scenario,
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
            check_faults(faulty_scenario)
        assert info.value.oracle == "faults"
        assert "interpreter" in str(info.value)
        assert "detail.fmr.base" in str(info.value)

    def test_fault_free_schedule_skipped(self, pipeline_scenario):
        clean = pipeline_scenario.clone(
            fault={"drop_rate": 0.0, "corrupt_rate": 0.0,
                   "spike_rate": 0.0})
        assert check_faults(clean)["status"] == "skipped"


class TestDispatch:
    def test_unknown_oracle_rejected(self, pipeline_scenario):
        with pytest.raises(ReproError):
            run_oracles(pipeline_scenario, oracles=("identity", "nope"))

    def test_selected_oracles_run_in_order(self, pipeline_scenario):
        notes = run_oracles(pipeline_scenario,
                            oracles=("checkpoint", "fastmode"),
                            backends=("inproc",))
        assert list(notes) == ["checkpoint", "fastmode"]
