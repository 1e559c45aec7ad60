"""Correlation-ID propagation across every execution backend.

The bar is end-to-end proof: the ID minted on the simulation object
must come back in each partition worker's result fragment (via the
``REPRO_CORR_ID`` environment of the forked process), so
``sim.last_worker_corr`` maps *every* partition to the original ID.
"""

from __future__ import annotations

import pytest

from repro.observability import (
    CORR_ENV,
    EventLog,
    current_corr_id,
    mint_corr_id,
    propagate_corr_id,
    read_events,
)
from repro.parallel import fork_available

from ..parallel.conftest import build_star_sim

CYCLES = 40

BACKENDS = [
    pytest.param("inproc", id="inproc"),
    pytest.param("process", id="process",
                 marks=pytest.mark.skipif(
                     not fork_available(), reason="needs fork")),
    pytest.param("process-shm", id="process-shm",
                 marks=pytest.mark.skipif(
                     not fork_available(), reason="needs fork")),
    pytest.param("process-socket", id="process-socket",
                 marks=pytest.mark.skipif(
                     not fork_available(), reason="needs fork")),
]


class TestCorrEnv:
    def test_propagate_and_read(self, monkeypatch):
        monkeypatch.delenv(CORR_ENV, raising=False)
        assert current_corr_id() == ""
        corr = mint_corr_id()
        propagate_corr_id(corr)
        assert current_corr_id() == corr
        propagate_corr_id("")  # empty never clobbers
        assert current_corr_id() == corr


class TestBackendPropagation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_partition_echoes_the_corr_id(self, backend,
                                                monkeypatch):
        monkeypatch.delenv(CORR_ENV, raising=False)
        sim = build_star_sim(2)
        corr = mint_corr_id()
        sim.corr_id = corr
        sim.run(CYCLES, backend=backend)
        assert set(sim.last_worker_corr) == set(sim.partitions)
        assert set(sim.last_worker_corr.values()) == {corr}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_identical_with_and_without_corr(self, backend):
        """Observability identity must never perturb the simulated
        bits."""
        plain = build_star_sim(2).run(CYCLES, backend=backend)
        sim = build_star_sim(2)
        sim.corr_id = mint_corr_id()
        tagged = sim.run(CYCLES, backend=backend)
        assert tagged.detail == plain.detail

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_process_backend_logs_worker_lifecycle(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        sim = build_star_sim(2)
        corr = mint_corr_id()
        sim.corr_id = corr
        sim.events = EventLog(path)
        sim.run(CYCLES, backend="process")
        sim.events.close()
        spawns = list(read_events(path, corr=corr,
                                  kinds=["worker_spawn"]))
        exits = list(read_events(path, corr=corr,
                                 kinds=["worker_exit"]))
        assert {e.part for e in spawns} == set(sim.partitions)
        assert {e.part for e in exits} == set(sim.partitions)
        for entry in spawns:
            assert entry.args["worker_pid"] > 0
        # exitcode 0 on a clean self-exit, -SIGTERM when the
        # coordinator reaps after collecting fragments — either way
        # the worker was observed and reported
        for entry in exits:
            assert entry.args["exitcode"] is not None

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_failed_run_still_logs_every_worker_exit(self, tmp_path):
        """The exit record is written where children are reaped, not
        after a successful loop: a killed worker's run leaves one
        ``worker_exit`` per worker, the victim's with its signal."""
        from repro.errors import WorkerError
        from repro.parallel import ProcessBackend
        path = tmp_path / "ev.jsonl"
        sim = build_star_sim(2)
        sim.corr_id = mint_corr_id()
        sim.events = EventLog(path)
        with pytest.raises(WorkerError):
            ProcessBackend(
                worker_faults={"fpga1": ("kill", 4)}).run(sim, CYCLES)
        sim.events.close()
        exits = {e.part: e.args for e in read_events(
            path, corr=sim.corr_id, kinds=["worker_exit"])}
        assert set(exits) == set(sim.partitions)
        assert exits["fpga1"]["exitcode"] == -9
        assert all(e["exitcode"] is not None for e in exits.values())
