"""Result cache, single-flight table and config normalization."""

import pytest

from repro.errors import ServiceError, UnknownBackendError
from repro.service import (
    ResultCache,
    SingleFlight,
    execute_config,
    normalize_config,
)
from repro.service.jobs import Job
from repro.telemetry import RunRegistry, config_fingerprint


class TestNormalize:
    def test_defaults_fill_before_fingerprint(self, make_config):
        explicit = normalize_config(make_config(
            transport="qsfp", freq=30.0, backend="auto"))
        implicit = normalize_config(make_config())
        assert config_fingerprint(explicit) \
            == config_fingerprint(implicit)

    def test_extract_strings_and_lists_are_equivalent(self,
                                                      make_config):
        a = normalize_config(make_config(extract=["right"]))
        b = normalize_config(make_config(extract=[["right"]]))
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_cycles_change_the_key(self, make_config):
        a = normalize_config(make_config(cycles=60))
        b = normalize_config(make_config(cycles=61))
        assert config_fingerprint(a) != config_fingerprint(b)

    def test_rejects_unknown_keys(self, make_config):
        with pytest.raises(ServiceError):
            normalize_config(make_config(warp_factor=9))

    def test_rejects_unknown_kind_and_transport(self, make_config):
        with pytest.raises(ServiceError):
            normalize_config({"kind": "teleport"})
        with pytest.raises(ServiceError):
            normalize_config(make_config(transport="carrier-pigeon"))

    def test_backend_is_canonical_and_checked_at_submit(self,
                                                        make_config):
        """Every spelling of the process backend is one cache entry; a
        typo is a typed refusal before the job costs a queue slot."""
        keys = {config_fingerprint(normalize_config(
                    make_config(backend=spelling)))
                for spelling in ("process", "shm", "process-shm",
                                 "Process-Socket")}
        assert len(keys) == 1
        assert normalize_config(
            make_config(backend="inproc"))["backend"] == "inproc"
        with pytest.raises(UnknownBackendError):
            normalize_config(make_config(backend="proccess"))

    def test_simulate_wants_a_circuit(self):
        with pytest.raises(ServiceError):
            normalize_config({"kind": "simulate",
                              "extract": ["right"]})

    def test_experiment_config_is_minimal(self):
        normalized = normalize_config({"kind": "experiment",
                                       "experiment": "table1"})
        assert normalized == {"kind": "experiment",
                              "experiment": "table1"}
        with pytest.raises(ServiceError):
            normalize_config({"kind": "experiment"})


class TestSingleFlight:
    def test_begin_attach_finish(self):
        flight = SingleFlight()
        leader = Job(job_id="l", tenant="t", config={},
                     fingerprint="fp")
        follower = Job(job_id="f", tenant="t", config={},
                       fingerprint="fp")
        assert flight.leader_for("fp") is None
        flight.begin("fp", leader)
        entry = flight.attach("fp", follower)
        assert entry.leader is leader
        assert entry.followers == [follower]
        assert len(flight) == 1
        popped = flight.finish("fp")
        assert popped is entry
        assert flight.leader_for("fp") is None
        assert flight.finish("fp") is None


class TestResultCache:
    def test_miss_fill_hit(self, make_config, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        cache = ResultCache(registry)
        config = normalize_config(make_config(cycles=40))
        fingerprint = config_fingerprint(config)
        assert cache.lookup(fingerprint) is None
        outcome = execute_config(config)
        job = Job(job_id="j1", tenant="alice", config=config,
                  fingerprint=fingerprint, name="pair")
        stored = cache.store(outcome.result, job,
                             backend=outcome.backend)
        assert stored["fingerprint"] == fingerprint
        hit = cache.lookup(fingerprint)
        assert hit["run_id"] == stored["run_id"]
        assert cache.stats() == {"lookups": 2, "hits": 1,
                                 "misses": 1, "fills": 1,
                                 "in_flight": 0}

    def test_store_names_record_after_job(self, make_config, tmp_path):
        registry = RunRegistry(tmp_path / "runs")
        cache = ResultCache(registry)
        config = normalize_config(make_config(cycles=40))
        outcome = execute_config(config)
        job = Job(job_id="j1", tenant="acme", config=config,
                  fingerprint=config_fingerprint(config))
        stored = cache.store(outcome.result, job)
        # unnamed jobs archive under their tenant
        assert stored["name"] == "acme"
        assert stored["config"] == config
