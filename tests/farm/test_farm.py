"""End-to-end farm runs: multi-host bit-identity, whole-host loss
recovery, and registry archival.

Host capacities are sized so the 4-partition star design *cannot* fit
on one host — every run here genuinely spans virtual hosts and moves
cross-host tokens over sockets.  The kill trigger fires at a low
wavefront pass so the loss lands inside the first checkpoint segment.
"""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.errors import HostDeadError, PlacementError
from repro.farm import FarmBackend, FarmManager, FarmSpec, HostSpec
from repro.parallel import fork_available
from repro.telemetry import RunRegistry, config_fingerprint

from ..parallel.conftest import build_star_sim, star_farm_job

CYCLES = 300

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="farm runs need fork")


def two_host_spec():
    return FarmSpec([HostSpec("h0", cores=2), HostSpec("h1", cores=2)])


def three_host_spec():
    return FarmSpec([HostSpec("h0", cores=2), HostSpec("h1", cores=2),
                     HostSpec("h2", cores=4)])


class TestFarmBackend:
    def test_two_host_run_bit_identical_to_inproc(self):
        reference = build_star_sim(3).run(CYCLES, backend="inproc")
        backend = FarmBackend(two_host_spec())
        sim = build_star_sim(3)
        result = backend.run(sim, CYCLES)
        assert result.detail == reference.detail
        assert sim.last_run_backend == "farm"
        assert len(backend.last_placement.hosts_used()) == 2
        assert mp.active_children() == []

    def test_per_host_fmr_collected(self):
        backend = FarmBackend(two_host_spec())
        backend.run(build_star_sim(3), CYCLES)
        assert sorted(backend.last_host_fmr) == ["h0", "h1"]
        for components in backend.last_host_fmr.values():
            assert "compute" in components
            assert all(v >= 0.0 for v in components.values())

    def test_colocation_survives_into_the_run(self):
        backend = FarmBackend(three_host_spec(),
                              colocate=[["fpga1", "fpga2"]])
        result = backend.run(build_star_sim(3), CYCLES)
        placed = backend.last_placement.assignment
        assert placed["fpga1"] == placed["fpga2"]
        reference = build_star_sim(3).run(CYCLES, backend="inproc")
        assert result.detail == reference.detail

    def test_infeasible_farm_raises_placement_error(self):
        backend = FarmBackend(FarmSpec([HostSpec("h0", cores=1)]))
        with pytest.raises(PlacementError):
            backend.run(build_star_sim(3), CYCLES)

    def test_host_kill_raises_host_dead_and_marks_spec(self):
        spec = two_host_spec()
        backend = FarmBackend(spec, host_faults={"h1": 5},
                              heartbeat_timeout=15.0)
        with pytest.raises(HostDeadError) as err:
            backend.run(build_star_sim(3), CYCLES)
        assert err.value.host == "h1"
        assert not spec.hosts["h1"].alive
        assert [h.name for h in spec.live_hosts()] == ["h0"]
        assert mp.active_children() == []


class TestFarmManager:
    def test_host_loss_rolls_back_onto_survivors(self, tmp_path):
        """The acceptance demo: a ≥3-partition target across ≥2
        virtual hosts survives one injected host kill via checkpoint
        rollback + re-placement, stays bit-identical, and archives
        placement + per-host FMR."""
        reference = build_star_sim(3).run(CYCLES, backend="inproc")
        job = star_farm_job(three_host_spec(), 3, CYCLES,
                            checkpoint_every=100,
                            kill_host="h1", kill_at_pass=5)
        manager = FarmManager(lambda: build_star_sim(3), job,
                              heartbeat_timeout=15.0)
        registry = RunRegistry(tmp_path / "runs")
        report = manager.launch(registry=registry, run_name="loss-demo")

        assert report.result.detail == reference.detail
        assert report.supervisor.rollbacks == 1
        kinds = report.supervisor.event_kinds()
        assert "stall" in kinds and "rollback" in kinds
        assert kinds[-1] == "complete"

        assert report.dead_hosts == ["h1"]
        assert "h1" not in report.live_hosts
        # the re-placement after the loss avoided the dead host
        assert len(report.placements) == 2
        assert "h1" in report.placements[0].hosts_used()
        assert "h1" not in report.placements[-1].hosts_used()

        record = registry.load(str(report.archive_path))
        assert record["backend"] == "farm"
        # the record describes what ran: the kill is part of the job
        assert record["config"] == job
        farm = record["farm"]
        assert farm["rollbacks"] == 1
        assert farm["dead_hosts"] == ["h1"]
        assert len(farm["placements"]) == 2
        assert farm["host_fmr"]
        for components in farm["host_fmr"].values():
            assert "compute" in components
        assert mp.active_children() == []

    def test_clean_launch_archives_single_placement(self, tmp_path):
        manager = FarmManager(
            lambda: build_star_sim(3),
            star_farm_job(two_host_spec(), 3, CYCLES,
                          checkpoint_every=100))
        registry = RunRegistry(tmp_path / "runs")
        report = manager.launch(registry=registry)
        assert report.supervisor.rollbacks == 0
        assert len(report.placements) == 1
        assert report.dead_hosts == []
        record = registry.load(str(report.archive_path))
        assert record["farm"]["live_hosts"] == ["h0", "h1"]

    def test_archive_fingerprint_is_the_job_not_the_farm(self, tmp_path):
        """Two designs launched on one manifest must not share a
        trajectory (``repro regress`` judges a run against the runs of
        its fingerprint); the same job twice must."""
        registry = RunRegistry(tmp_path / "runs")
        fingerprints = []
        for leaves in (3, 3, 2):
            job = star_farm_job(three_host_spec(), leaves, 120)
            manager = FarmManager(lambda n=leaves: build_star_sim(n), job)
            report = manager.launch(registry=registry)
            record = registry.load(str(report.archive_path))
            assert record["fingerprint"] == config_fingerprint(job)
            fingerprints.append(record["fingerprint"])
        assert fingerprints[0] == fingerprints[1] != fingerprints[2]

    def test_plan_places_without_running(self):
        manager = FarmManager(lambda: build_star_sim(3),
                              star_farm_job(two_host_spec(), 3))
        placement = manager.plan()
        assert sorted(placement.assignment) == \
            ["base", "fpga1", "fpga2", "fpga3"]
        assert len(placement.hosts_used()) == 2
        assert mp.active_children() == []


class TestFarmCli:
    def test_launch_flags_reach_the_job(self, tmp_path, capsys,
                                        monkeypatch):
        """Every ``farm launch`` flag that is a job fact lands in the
        one config the manager runs from and the record archives."""
        import json

        from repro.cli import main
        from repro.firrtl import print_circuit

        from ..parallel.conftest import make_star_circuit

        circuit = tmp_path / "star.fir"
        circuit.write_text(print_circuit(make_star_circuit(3)))
        hosts = tmp_path / "hosts.json"
        hosts.write_text(json.dumps(three_host_spec().to_dict()))
        reports = []
        launch = FarmManager.launch
        monkeypatch.setattr(
            FarmManager, "launch",
            lambda self, **kw: reports.append(launch(self, **kw))
            or reports[-1])
        runs = tmp_path / "runs"
        assert main(["farm", "launch", str(circuit),
                     "--extract", "leaf0", "--extract", "leaf1",
                     "--extract", "leaf2", "--hosts", str(hosts),
                     "--cycles", "120", "--checkpoint-every", "40",
                     "--kill-host", "h1:5", "--heartbeat-timeout", "15",
                     "--archive", "n", "--runs-dir", str(runs)]) == 0
        (report,) = reports
        assert report.dead_hosts == ["h1"]
        # the initial checkpoint plus one per 40-cycle segment
        assert report.supervisor.checkpoints == 1 + 120 // 40
        (record,) = RunRegistry(runs).list_runs()
        config = record["config"]
        assert (config["checkpoint_every"], config["cycles"]) == (40, 120)
        assert (config["kill_host"], config["kill_at_pass"]) == ("h1", 5)
        assert record["fingerprint"] == config_fingerprint(config)
        assert mp.active_children() == []
