"""Campaign loop, repro files, replay, and the committed regression
corpus."""

import json
from pathlib import Path

import pytest

from repro.errors import FuzzFailure, ReproError
from repro.fuzz import (
    FuzzConfig,
    GeneratorKnobs,
    generate_scenario,
    list_corpus,
    load_repro,
    num_partitions,
    replay,
    run_campaign,
    save_repro,
    scenario_config,
)
from repro.fuzz.shrink import ShrinkResult
from repro.parallel import normalize_backend
from repro.parallel.coordinator import fork_available
from repro.service import normalize_config
from repro.telemetry import RunRegistry

COMMITTED_CORPUS = Path(__file__).parent / "corpus"

FAST_KNOBS = GeneratorKnobs(shapes=("pipeline",), max_lanes=2,
                            max_stages=2, max_cycles=80)


def fast_config(tmp_path, **overrides):
    defaults = dict(seed=7, budget=3, oracles=("identity",),
                    backends=("inproc",),
                    corpus_dir=tmp_path / "corpus", knobs=FAST_KNOBS)
    defaults.update(overrides)
    return FuzzConfig(**defaults)


class TestCampaign:
    def test_clean_campaign_reports_ok(self, tmp_path):
        lines = []
        report = run_campaign(fast_config(tmp_path), progress=lines.append)
        assert report.ok
        assert len(report.outcomes) == 3
        assert not report.stopped_early
        assert all(o.status == "ok" for o in report.outcomes)
        assert len(lines) == 3
        assert list_corpus(tmp_path / "corpus") == []

    def test_summary_counts_shapes(self, tmp_path):
        report = run_campaign(fast_config(tmp_path))
        summary = report.summary()
        assert summary["scenarios"] == 3
        assert summary["failed"] == 0
        assert sum(summary["shapes"].values()) == 3

    def test_campaign_archives_to_registry(self, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        run_campaign(fast_config(tmp_path), registry=registry)
        records = registry.list_runs()
        assert len(records) == 1
        assert records[0]["name"] == "fuzz"
        assert records[0]["fuzz"]["scenarios"] == 3

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_perturbed_campaign_writes_minimized_repro(self, tmp_path):
        def perturb(backend, sim, result):
            if backend == "process":
                result.tokens_transferred += 1

        config = fast_config(tmp_path, budget=2,
                             backends=("inproc", "process"),
                             max_failures=1, max_shrink_attempts=48)
        report = run_campaign(config, perturb=perturb)
        assert not report.ok
        assert report.stopped_early
        failed = report.failures[0]
        assert failed.repro_path is not None
        payload = load_repro(failed.repro_path)
        assert payload["failure"]["oracle"] == "identity"
        assert payload["failure"]["backend"] == "process"
        assert len(payload["config"]["extract"]) <= 1
        assert "shrink" in payload
        # the planted bug lives in the perturbation, not the repo:
        # replaying without it comes back clean
        notes = replay(failed.repro_path, backends=("inproc", "process"))
        assert "identity" in notes


class TestReproFiles:
    def test_save_load_roundtrip(self, tmp_path):
        sc = generate_scenario(7, 0, FAST_KNOBS)
        failure = FuzzFailure("identity", "process", "planted",
                              config=scenario_config(sc))
        original = generate_scenario(7, 1, FAST_KNOBS)
        result = ShrinkResult(scenario=sc, failure=failure, rounds=2,
                              attempts=7, trail=["abc:3p", "def:2p"])
        path = save_repro(tmp_path, sc, failure, original=original,
                          shrink_result=result)
        payload = load_repro(path)
        assert sorted(payload) == ["config", "failure", "format",
                                   "scenario", "shrink", "version"]
        assert payload["config"] == scenario_config(sc)
        assert payload["scenario"] == sc.to_dict()
        assert payload["shrink"]["original"] == original.to_dict()
        assert payload["shrink"]["attempts"] == 7

    def test_list_corpus_summarizes(self, tmp_path):
        assert list_corpus(tmp_path / "missing") == []
        sc = generate_scenario(7, 2, FAST_KNOBS)
        save_repro(tmp_path, sc, FuzzFailure("faults", "", "planted"))
        entries = list_corpus(tmp_path)
        assert len(entries) == 1
        assert entries[0]["oracle"] == "faults"
        assert entries[0]["num_partitions"] == num_partitions(sc)

    def test_load_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReproError):
            load_repro(bad)
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ReproError):
            load_repro(bad)
        sc = generate_scenario(7, 0, FAST_KNOBS)
        path = save_repro(tmp_path, sc, FuzzFailure("identity", "", "x"))
        payload = json.loads(path.read_text())
        # a v1 repro (a Scenario dict, no config) has no reader
        for version in (1, 99):
            path.write_text(json.dumps({**payload, "version": version}))
            with pytest.raises(ReproError, match="unsupported"):
                load_repro(path)


@pytest.mark.fuzz
def test_forty_scenario_campaign_is_clean(tmp_path):
    """The CI smoke campaign as a pytest entry: 40 fixed-seed
    scenarios through every oracle and every available backend must
    produce zero disagreements (deselected by default; run with
    ``pytest -m fuzz``)."""
    config = FuzzConfig(seed=7, budget=40,
                        corpus_dir=tmp_path / "corpus")
    report = run_campaign(config)
    assert report.ok, report.summary()
    assert len(report.outcomes) == 40


def corpus_paths():
    return sorted(COMMITTED_CORPUS.glob("*.json"))


@pytest.mark.parametrize("path", corpus_paths(),
                         ids=lambda p: p.stem)
def test_committed_corpus_replays_clean(path):
    """Regression pins: every repro in tests/fuzz/corpus once exposed a
    real disagreement (or a seam the oracles had to learn about) and
    must now replay clean through its own oracle."""
    notes = replay(path, backends=("inproc", "process")
                   if fork_available() else ("inproc",))
    assert notes  # the oracle ran and did not raise


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_committed_corpus_spells_canonical_names(path):
    """A corpus file is a normalized job config spelled with canonical
    names only: normalizing it is the identity, and every backend it
    names is already its own canonical spelling."""
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    assert normalize_config(payload["config"]) == payload["config"]
    for backend in (payload["config"]["backend"],
                    payload["failure"]["backend"]):
        assert not backend or normalize_backend(backend) == backend
