"""One front door: a job is described once.

The normalized config of ``service.executor.normalize_config`` is what
every CLI verb builds from and what every archive site fingerprints, so
one job has one fingerprint wherever it ran; and the CLI's surface —
each verb's flags and the defaults of the shared ones — is pinned to
the tables captured at the commit before ``cli.py`` became a package.
"""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ServiceError
from repro.experiments.runner import main as experiments_main
from repro.firrtl import print_circuit
from repro.service import ServiceConfig, ServiceThread, normalize_config
from repro.targets import make_comb_pair_circuit
from repro.telemetry import RunRegistry, config_fingerprint


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "pair.fir"
    path.write_text(print_circuit(make_comb_pair_circuit()))
    return str(path)


def _served_from_cache(runs, job):
    """Submit ``job`` to a fresh service over ``runs``; the record, once
    nothing was executed for it."""
    thread = ServiceThread(ServiceConfig(workers=1, runs_dir=str(runs)))
    try:
        client = thread.client()
        record = client.submit(job)
        assert client.stats()["counters"]["executions"] == 0
    finally:
        thread.stop()
    assert record["state"] == "done" and record["source"] == "cache"
    return record


class TestOneFingerprint:
    def test_cli_archive_answers_the_same_service_job(
            self, circuit_file, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["simulate", circuit_file, "--extract", "right",
                     "--cycles", "40", "--archive", "n",
                     "--runs-dir", str(runs)]) == 0
        job = {"kind": "simulate", "circuit": circuit_file,
               "extract": ["right"], "cycles": 40}
        hit = _served_from_cache(runs, job)
        record = RunRegistry(runs).load(hit["run_id"])
        assert record["name"] == "n"
        assert record["fingerprint"] \
            == config_fingerprint(normalize_config(job))

    def test_until_run_is_never_the_whole_jobs_answer(
            self, circuit_file, tmp_path, capsys):
        """``--until`` may stop early, so its record carries a key no
        job config can: not a hit for the full job, not a job at all."""
        runs = tmp_path / "runs"
        assert main(["simulate", circuit_file, "--extract", "right",
                     "--cycles", "40", "--until", "never",
                     "--archive", "n", "--runs-dir", str(runs)]) == 0
        (record,) = RunRegistry(runs).list_runs()
        assert record["config"]["until"] == "never"
        whole = dict(record["config"])
        del whole["until"]
        assert record["fingerprint"] != config_fingerprint(whole)
        with pytest.raises(ServiceError, match="unknown simulate"):
            normalize_config(record["config"])

    def test_experiment_archive_answers_the_same_service_job(
            self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert experiments_main(["table2", "--archive", str(runs)]) == 0
        job = {"kind": "experiment", "experiment": "table2"}
        hit = _served_from_cache(runs, job)
        assert hit["fingerprint"] \
            == config_fingerprint(normalize_config(job))


# -- the CLI surface, captured at the parent commit -------------------------

_JOB = {"mode": "exact", "transport": "qsfp", "freq": 30.0}
_RUNS = {"runs_dir": "results/runs"}
_SERVER = {"server": "127.0.0.1"}

#: verb -> (positionals and option strings, defaults of the shared
#: flags the verb takes)
VERBS = {
    "autopartition": ("circuit --fpgas --keep --mode", {"mode": "exact"}),
    "cancel": ("job_id --server", _SERVER),
    "compare": ("run_a run_b --runs-dir", _RUNS),
    "experiments": ("rest", {}),
    "farm launch": (
        "circuit --archive --checkpoint-every --colocate --cycles "
        "--extract --freq --heartbeat-timeout --hosts --kill-host "
        "--max-rollbacks --mode --runs-dir --transport",
        {**_JOB, **_RUNS, "cycles": 1000}),
    "farm plan": (
        "circuit --colocate --extract --freq --hosts --mode --transport",
        _JOB),
    "farm status": ("--runs-dir", _RUNS),
    "fuzz corpus": ("--corpus", {}),
    "fuzz replay": ("repro --oracles", {}),
    "fuzz run": (
        "--archive --backends --budget --corpus --max-failures "
        "--no-shrink --oracles --runs-dir --seed --shapes --start-index "
        "--verbose", _RUNS),
    "jit": ("circuit --dump --extract --freq --mode --transport", _JOB),
    "jobs": ("--server --tenant", _SERVER),
    "partition": ("circuit --extract --mode --out", {"mode": "exact"}),
    "profile": ("circuit --cycles --extract --freq --mode --transport",
                {**_JOB, "cycles": 200}),
    "regress": ("--results-dir --update", {}),
    "reliability": (
        "circuit --checkpoint-dir --checkpoint-every --corrupt-rate "
        "--crash-at --cycles --drop-rate --extract --flap --freq "
        "--max-rollbacks --mode --seed --spike-ns --spike-rate "
        "--transport --unreliable", {**_JOB, "cycles": 200}),
    "report": ("circuit --extract --freq --mode --transport", _JOB),
    "runs gc": (
        "--dry-run --keep --max-age-days --max-bytes --runs-dir", _RUNS),
    "runs list": ("--fingerprint --runs-dir", _RUNS),
    "serve": (
        "--default-quota --event-log --host --live-dir --metrics --port "
        "--quota --runs-dir --trace-events --workers", _RUNS),
    "simulate": (
        "circuit --archive --backend --cycles --extract --freq --live "
        "--metrics --mode --no-jit --runs-dir --transport --until",
        {**_JOB, **_RUNS, "cycles": 1000}),
    "submit": (
        "circuit --backend --config --cycles --experiment --extract "
        "--freq --inline --mode --name --priority --server --tenant "
        "--timeout --transport --wait",
        {**_JOB, **_SERVER, "cycles": 1000}),
    "tail": ("log --corr --follow --kind --tenant --timeout -f", {}),
    "top": ("--interval --once --server", _SERVER),
    "trace": (
        "circuit --cycles --events --extract --freq --gzip --job --log "
        "--mode --out --runs-dir --server --transport",
        {**_JOB, **_RUNS, **_SERVER, "cycles": 200}),
    "watch": ("status --job --once --poll --server --timeout", _SERVER),
}
SHARED = ("transport", "freq", "cycles", "server", "runs_dir", "mode")


def _leaves(parser, prefix=""):
    groups = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield prefix.strip(), parser
        return
    for name, sub in groups[0].choices.items():
        yield from _leaves(sub, f"{prefix} {name}")


LEAVES = dict(_leaves(build_parser()))


def test_no_verb_was_added_or_retired():
    assert sorted(LEAVES) == sorted(VERBS)


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_keeps_its_flags_and_shared_defaults(verb, capsys):
    parser = LEAVES[verb]
    with pytest.raises(SystemExit) as done:
        main(verb.split() + ["--help"])
    assert done.value.code == 0
    actions = [a for a in parser._actions if a.dest != "help"]
    spelled = [a.dest for a in actions if not a.option_strings] \
        + sorted(s for a in actions for s in a.option_strings)
    flags, defaults = VERBS[verb]
    assert spelled == flags.split()
    dests = {a.dest for a in actions}
    assert {d: parser.get_default(d) for d in SHARED if d in dests} \
        == defaults


# -- normalize_config, captured at the parent commit ------------------------

_RING = [[f"{kind}{i}" for i in ids for kind in ("router", "conv", "tile")]
         for ids in (range(0, 4), range(4, 8))]
_SIM = {"kind": "simulate", "mode": "exact", "transport": "qsfp",
        "freq": 30.0, "cycles": 1000, "backend": "auto"}
_HOSTS = {"format": "fireaxe-repro-farm-hosts", "version": 1,
          "default_link": "ethernet", "links": []}
_FARM = {"kind": "farm", "mode": "exact", "transport": "qsfp",
         "freq": 30.0, "cycles": 1000, "checkpoint_every": 100,
         "kill_host": "", "kill_at_pass": 0, "colocate": []}


def _host(name, cores):
    return {"name": name, "cores": cores, "memory_gb": 16.0}


#: (what a caller submits, what the parent's normalize_config returned)
NORMALIZED = {
    # tests/service/conftest.py::make_config
    "service tests": (
        {"kind": "simulate", "circuit_text": "T", "extract": ["right"],
         "mode": "fast", "cycles": 60},
        {**_SIM, "circuit_text": "T", "extract": [["right"]],
         "mode": "fast", "cycles": 60}),
    "every default spelled": (
        {"kind": "simulate", "circuit_text": "T", "extract": [["right"]],
         "mode": "fast", "cycles": "60", "transport": "qsfp", "freq": 30,
         "backend": "auto"},
        {**_SIM, "circuit_text": "T", "extract": [["right"]],
         "mode": "fast", "cycles": 60}),
    "a path and nothing else": (
        {"circuit": "pair.fir", "extract": ["right"]},
        {**_SIM, "circuit": "pair.fir", "extract": [["right"]]}),
    "aliased backend": (
        {"kind": "simulate", "circuit_text": "T", "extract": ["a,b", "c"],
         "transport": "pcie", "backend": "process-socket", "freq": "50"},
        {**_SIM, "circuit_text": "T", "extract": [["a", "b"], ["c"]],
         "transport": "pcie", "backend": "process", "freq": 50.0}),
    # benchmarks/e2e/child.py::run_service
    "service_mix": (
        {"kind": "simulate", "circuit_text": "T", "extract": _RING,
         "mode": "fast", "cycles": 403, "backend": "inproc"},
        {**_SIM, "circuit_text": "T", "extract": _RING, "mode": "fast",
         "cycles": 403, "backend": "inproc"}),
    "experiment": (
        {"kind": "experiment", "experiment": "table1"},
        {"kind": "experiment", "experiment": "table1"}),
    # tests/obsplane/test_farm_obs.py::TestFarmJobKind
    "farm with a kill": (
        {"kind": "farm", "circuit_text": "T",
         "extract": ["leaf0", "leaf1", "leaf2"],
         "hosts": {"hosts": [{"name": "h0", "cores": 2},
                             {"name": "h1", "cores": 2},
                             {"name": "h2", "cores": 4}]},
         "cycles": 300, "kill_host": "h1", "kill_at_pass": 5},
        {**_FARM, "circuit_text": "T",
         "extract": [["leaf0"], ["leaf1"], ["leaf2"]],
         "hosts": {**_HOSTS, "hosts": [_host("h0", 2), _host("h1", 2),
                                       _host("h2", 4)]},
         "cycles": 300, "kill_host": "h1", "kill_at_pass": 5}),
    "farm with co-location": (
        {"kind": "farm", "circuit": "star.fir",
         "extract": ["tile0", "tile1"],
         "hosts": {"hosts": [{"name": "h0", "cores": 4}],
                   "default_link": "ethernet"},
         "colocate": ["fpga0,fpga1"], "mode": "fast", "transport": "pcie",
         "checkpoint_every": "50"},
        {**_FARM, "circuit": "star.fir", "extract": [["tile0"], ["tile1"]],
         "hosts": {**_HOSTS, "hosts": [_host("h0", 4)]},
         "colocate": [["fpga0", "fpga1"]], "mode": "fast",
         "transport": "pcie", "checkpoint_every": 50}),
}


@pytest.mark.parametrize("case", sorted(NORMALIZED))
def test_normalize_config_output_did_not_move(case):
    config, expected = NORMALIZED[case]
    normalized = normalize_config(config)
    assert normalized == expected
    # ``==`` lets 30 pass for 30.0; the fingerprint hashes the JSON text
    assert json.dumps(normalized, sort_keys=True) \
        == json.dumps(expected, sort_keys=True)
