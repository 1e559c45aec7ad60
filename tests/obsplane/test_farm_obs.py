"""Farm-level observability: the correlation ID rides into every
partition worker the farm manager forks onto a virtual host, and host
lifecycle events — deploy, death, re-placement — land in the event
log."""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.farm import FarmManager, FarmSpec, HostSpec
from repro.firrtl import print_circuit
from repro.observability import (
    EventLog,
    mint_corr_id,
    read_events,
)
from repro.parallel import fork_available
from repro.service.executor import execute_config, normalize_config

from ..parallel.conftest import (build_star_sim, make_star_circuit,
                                 star_farm_job)

CYCLES = 300

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="farm runs need fork")


def three_host_spec():
    return FarmSpec([HostSpec("h0", cores=2), HostSpec("h1", cores=2),
                     HostSpec("h2", cores=4)])


class TestFarmCorrAndEvents:
    def test_host_loss_run_keeps_corr_and_logs_lifecycle(
            self, tmp_path):
        """One injected host kill: every partition of the final
        (re-placed) run still echoes the original corr id, and the
        log shows deploys on both placements, exactly one death, and
        the re-placement."""
        path = tmp_path / "ev.jsonl"
        corr = mint_corr_id()
        log = EventLog(path)

        def build():
            sim = build_star_sim(3)
            sim.corr_id = corr
            sim.events = log
            return sim

        manager = FarmManager(
            build,
            star_farm_job(three_host_spec(), 3, CYCLES,
                          checkpoint_every=100,
                          kill_host="h1", kill_at_pass=5),
            heartbeat_timeout=15.0)
        report = manager.launch()
        log.close()
        assert report.supervisor.rollbacks == 1
        assert report.dead_hosts == ["h1"]

        # corr echoed from every worker of the completed placement
        parts = set(build_star_sim(3).partitions)
        assert set(manager.backend.last_worker_corr) == parts
        assert set(manager.backend.last_worker_corr.values()) \
            == {corr}

        deploys = list(read_events(path, corr=corr,
                                   kinds=["host_deploy"]))
        deaths = list(read_events(path, corr=corr,
                                  kinds=["host_death"]))
        replaces = list(read_events(path, corr=corr,
                                    kinds=["host_replace"]))
        # both placements were deployed; h1 died once; one re-place
        assert {e.args["host"] for e in deploys} >= {"h0", "h1", "h2"}
        assert [e.args["host"] for e in deaths] == ["h1"]
        assert len(replaces) == 1
        assert "h1" not in replaces[0].args["hosts"]
        assert mp.active_children() == []

    def test_agent_forked_workers_log_spawn_with_host(self, tmp_path):
        """The manager forks every worker itself; each
        ``worker_spawn`` names the virtual host the worker was placed
        on, and the farm backend."""
        path = tmp_path / "ev.jsonl"
        corr = mint_corr_id()
        log = EventLog(path)

        def build():
            sim = build_star_sim(3)
            sim.corr_id = corr
            sim.events = log
            return sim

        manager = FarmManager(
            build, star_farm_job(three_host_spec(), 3, CYCLES),
            heartbeat_timeout=15.0)
        manager.launch()
        log.close()
        spawns = list(read_events(path, corr=corr,
                                  kinds=["worker_spawn"]))
        parts = set(build_star_sim(3).partitions)
        assert {e.part for e in spawns} == parts
        assert all(e.args["host"].startswith("h") for e in spawns)
        assert all(e.args["backend"] == "farm" for e in spawns)


class TestFarmJobKind:
    def test_execute_config_farm_with_kill(self, tmp_path):
        """The service-facing path: a ``kind: farm`` job config with
        an injected host kill completes, reports backend ``farm``,
        and archives the corr id + per-partition echoes under
        ``obs``."""
        config = normalize_config({
            "kind": "farm",
            "circuit_text": print_circuit(make_star_circuit(3)),
            "extract": ["leaf0", "leaf1", "leaf2"],
            "hosts": {"hosts": [{"name": "h0", "cores": 2},
                                {"name": "h1", "cores": 2},
                                {"name": "h2", "cores": 4}]},
            "cycles": CYCLES,
            "kill_host": "h1", "kill_at_pass": 5,
        })
        corr = mint_corr_id()
        log = EventLog(tmp_path / "ev.jsonl")
        outcome = execute_config(config, corr_id=corr, events=log)
        log.close()
        assert outcome.backend == "farm"
        farm = outcome.extra["farm"]
        assert farm["dead_hosts"] == ["h1"]
        assert len(farm["placements"]) == 2
        obs = outcome.extra["obs"]
        assert obs["corr_id"] == corr
        assert set(obs["worker_corr"].values()) == {corr}
        # each worker's own step-plane verdict came home with it
        assert set(obs["step_plane"]) == set(obs["worker_corr"])
        assert all(v.startswith("compiled")
                   for v in obs["step_plane"].values())
        deaths = list(read_events(tmp_path / "ev.jsonl", corr=corr,
                                  kinds=["host_death"]))
        assert [e.args["host"] for e in deaths] == ["h1"]
