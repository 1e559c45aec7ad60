"""Shrinker: injected disagreements minimize to tiny repros,
deterministically."""

import pytest

from repro.errors import FuzzFailure, ReproError
from repro.fuzz import (
    GeneratorKnobs,
    generate_scenario,
    num_partitions,
    probe,
    run_oracles,
    scenario_config,
    shrink,
)
from repro.parallel.coordinator import fork_available

SEED = 7

#: knobs biased toward multi-partition pipelines so the shrinker has
#: real structure to strip
BIG_KNOBS = GeneratorKnobs(shapes=("pipeline",), max_lanes=3,
                           max_stages=3, max_cycles=120)


def multi_partition_scenario():
    for index in range(60):
        sc = generate_scenario(SEED, index, BIG_KNOBS)
        if num_partitions(sc) >= 3:
            return sc
    raise AssertionError("no >=3-partition pipeline scenario found")


def always_failing(sc):
    raise FuzzFailure("identity", "process", "planted disagreement")


class TestProbe:
    def test_passing_checker_returns_none(self):
        sc = generate_scenario(SEED, 0, BIG_KNOBS)
        assert probe(lambda s: None, sc) is None

    def test_failure_is_returned(self):
        sc = generate_scenario(SEED, 0, BIG_KNOBS)
        exc = probe(always_failing, sc)
        assert isinstance(exc, FuzzFailure)

    def test_library_crash_is_not_a_repro(self):
        sc = generate_scenario(SEED, 0, BIG_KNOBS)

        def crashes(s):
            raise ReproError("harness exploded")

        assert probe(crashes, sc) is None


class TestShrink:
    def test_needs_a_failing_scenario(self):
        sc = generate_scenario(SEED, 0, BIG_KNOBS)
        with pytest.raises(ReproError):
            shrink(sc, lambda s: None)

    def test_always_failing_bottoms_out_minimal(self):
        sc = multi_partition_scenario()
        result = shrink(sc, always_failing)
        assert num_partitions(result.scenario) == 2
        assert result.scenario.cycles == 24
        assert len(result.scenario.params["lanes"]) == 1
        assert result.rounds >= 1
        assert result.trail[0].startswith(sc.fingerprint)

    def test_shrink_is_deterministic(self):
        sc = multi_partition_scenario()
        a = shrink(sc, always_failing)
        b = shrink(sc, always_failing)
        assert a.scenario == b.scenario
        assert a.trail == b.trail
        assert a.attempts == b.attempts

    def test_max_attempts_bounds_oracle_cost(self):
        sc = multi_partition_scenario()
        calls = []

        def counted(s):
            calls.append(s)
            raise FuzzFailure("identity", "", "planted")

        failure = FuzzFailure("identity", "", "planted")
        result = shrink(sc, counted, failure=failure, max_attempts=5)
        assert result.attempts <= 5
        assert len(calls) <= 5

    def test_conditional_failure_keeps_trigger(self):
        """The shrinker must not 'fix' the bug away: a failure gated on
        a property survives minimization with that property intact."""
        sc = multi_partition_scenario()

        def fails_when_multi_lane(s):
            if len(s.params["lanes"]) >= 2:
                raise FuzzFailure("identity", "", "needs two lanes")

        if len(sc.params["lanes"]) < 2:
            pytest.skip("picked scenario is single-lane")
        result = shrink(sc, fails_when_multi_lane)
        assert len(result.scenario.params["lanes"]) == 2


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_injected_backend_bug_minimizes_to_two_partitions():
    """The acceptance property: a real perturbed-backend miscompare
    found by the identity oracle shrinks to a <=2-partition repro."""

    def perturb(backend, sim, result):
        if backend == "process":
            result.tokens_transferred += 1

    def check(sc):
        return run_oracles(scenario_config(sc), oracles=("identity",),
                           backends=("inproc", "process"),
                           perturb=perturb)

    sc = multi_partition_scenario()
    failure = probe(check, sc)
    assert failure is not None, "perturbation did not trip the oracle"
    result = shrink(sc, check, failure=failure, max_attempts=64)
    assert num_partitions(result.scenario) <= 2
    assert result.failure.oracle == "identity"
    assert result.failure.backend == "process"
