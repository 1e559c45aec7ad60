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

    def test_mill_keys_normalize_once(self, make_config):
        """``noc``, ``fame5`` and ``faults`` are canonicalized — the
        fault schedule to every FaultSpec field — and absent stays
        absent."""
        assert not {"noc", "fame5", "faults"} \
            & set(normalize_config(make_config()))
        config = normalize_config(make_config(
            extract=["a", "b"], fame5={"m0": ("fpga1", "fpga0")},
            faults={"seed": "3", "drop_rate": 0, "flaps": [(5, 1)]}))
        assert config["fame5"] == {"m0": ["fpga1", "fpga0"]}
        assert config["faults"] == {
            "seed": 3, "drop_rate": 0.0, "corrupt_rate": 0.0,
            "spike_rate": 0.0, "spike_ns": 20000.0,
            "flaps": [[5.0, 1.0]]}
        noc = make_config(noc=[("1", 2)])
        del noc["extract"]
        noc = normalize_config(noc)
        assert noc["noc"] == [[1, 2]] and "extract" not in noc
        for normalized in (config, noc):
            assert normalize_config(normalized) == normalized

    @pytest.mark.parametrize("overrides,match", [
        ({"noc": [[0]]}, "exactly one of"),
        ({"extract": None}, "exactly one of"),
        ({"extract": None, "noc": [[0], []]}, "router-index"),
        ({"extract": ["a", "b"], "fame5": {"m0": ["fpga0", "tile1"]}},
         "one of the extract groups"),
        ({"extract": None, "noc": [[0], [1]],
          "fame5": {"m0": ["fpga0", "fpga1"]}}, "one of the extract groups"),
        ({"extract": ["a", "b"], "fame5": {"m0": ["fpga0", "fpga0"]}},
         "merged once"),
        ({"extract": ["a", "b", "c"],
          "fame5": {"m0": ["fpga0", "fpga1"], "m1": ["fpga1", "fpga2"]}},
         "merged once"),
        ({"extract": ["a", "b"], "fame5": {"m0": ["fpga0"]}},
         "two or more"),
        ({"faults": {"seed": 1, "drop": 0.1}}, "FaultSpec fields"),
        ({"faults": {"drop_rate": 1.5}}, "must each lie in"),
        ({"faults": {"spike_rate": -0.1}}, "must each lie in"),
        ({"faults": {"drop_rate": 0.6, "corrupt_rate": 0.5}},
         "must each lie in"),
        ({"kind": "farm", "hosts": {"hosts": [{"name": "h", "cores": 2}]},
          "faults": {"drop_rate": 0.1}}, "unknown farm config key"),
    ], ids=["extract-and-noc", "neither", "empty-noc-group",
            "fame5-unknown-group", "fame5-on-noc", "fame5-twice-in-merge",
            "fame5-in-two-merges", "fame5-merge-of-one",
            "faults-unknown-field", "fault-rate-above-1",
            "fault-rate-negative", "fault-rates-sum-above-1",
            "farm-takes-no-faults"])
    def test_mill_keys_refused_at_submit(self, make_config, overrides,
                                         match):
        config = {k: v for k, v in make_config(**overrides).items()
                  if v is not None}
        with pytest.raises(ServiceError, match=match):
            normalize_config(config)

    @pytest.mark.parametrize("noc,repeated", [
        ([[0, 0], [1]], "0"),
        ([[0, 1], [2, 1]], "1"),
    ], ids=["within-a-group", "across-groups"])
    def test_repeated_router_index_refused_at_submit(
            self, make_config, noc, repeated):
        """``[[0, 0], [1]]`` would run as ``[[0], [1]]`` under another
        fingerprint, splitting the result and plan caches."""
        config = make_config(noc=noc)
        del config["extract"]
        with pytest.raises(ServiceError,
                           match=f"router index {repeated} appears more "
                                 "than once"):
            normalize_config(config)

    @pytest.mark.parametrize("extract,repeated", [
        ([["tile0", "tile0"]], "tile0"),
        (["tile0,tile1", ["tile1"]], "tile1"),
    ], ids=["within-a-group", "across-groups"])
    def test_repeated_instance_path_refused_at_submit(
            self, make_config, extract, repeated):
        """Refused at submit, not in a forked child as "an instance
        path appears in two groups"."""
        with pytest.raises(ServiceError,
                           match=f"instance path '{repeated}' appears "
                                 "more than once"):
            normalize_config(make_config(extract=extract))

    def test_overlapping_colocate_groups_still_merge(self, make_config):
        config = normalize_config(make_config(
            kind="farm", extract=["a", "b", "c"],
            hosts={"hosts": [{"name": "h", "cores": 4}]},
            colocate=[["fpga0", "fpga1"], ["fpga1", "fpga2"]]))
        assert config["colocate"] == [["fpga0", "fpga1"],
                                      ["fpga1", "fpga2"]]

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
