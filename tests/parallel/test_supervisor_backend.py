"""RunSupervisor driving segments through the distributed backends."""

import multiprocessing as mp

import pytest

from repro.errors import WorkerError
from repro.parallel import fork_available
from repro.reliability import RunSupervisor, harden_links

from .conftest import OnFarm, build_star_sim

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process backend needs fork")


def _build():
    sim = build_star_sim(2)
    harden_links(sim)
    return sim


def _die_once(backend):
    """Arm a worker kill for ``backend``'s first segment only — models
    a transient host failure the supervisor must roll back across."""
    run, armed = backend.run, [True]

    def run_segment(sim, target_cycles, **kwargs):
        backend.worker_faults = \
            {"fpga1": ("kill", 4)} if armed.pop() else {}
        armed.append(False)
        return run(sim, target_cycles, **kwargs)

    backend.run = run_segment
    return backend


class TestSupervisedParallelRuns:
    def test_backend_segments_bit_identical(self, make_backend):
        ref = RunSupervisor(_build, checkpoint_every=6).run(20)
        par = RunSupervisor(_build, checkpoint_every=6,
                            backend=make_backend()).run(20)
        assert par.result.detail == ref.result.detail
        assert par.output_log == ref.output_log
        assert par.rollbacks == 0
        assert mp.active_children() == []

    def test_worker_death_rolls_back_and_completes(self, make_backend):
        ref = RunSupervisor(_build, checkpoint_every=6).run(20)
        par = RunSupervisor(_build, checkpoint_every=6,
                            backend=_die_once(make_backend())).run(20)
        assert par.rollbacks == 1
        kinds = par.event_kinds()
        assert "stall" in kinds and "rollback" in kinds
        stall = next(e for e in par.events if e.kind == "stall")
        assert "fpga1" in stall.note and "died" in stall.note
        assert par.result.detail == ref.result.detail
        assert par.output_log == ref.output_log
        assert mp.active_children() == []

    def test_persistent_worker_death_gives_up(self, make_backend):
        sup = RunSupervisor(
            _build, checkpoint_every=6, max_rollbacks=1,
            backend=make_backend(
                worker_faults={"fpga1": ("kill", 4)}))
        with pytest.raises(WorkerError):
            sup.run(20)
        assert mp.active_children() == []

    def test_crash_injection_through_backend(self, make_backend):
        ref = RunSupervisor(_build, checkpoint_every=6,
                            crash_at_cycles=[9]).run(20)
        par = RunSupervisor(_build, checkpoint_every=6,
                            crash_at_cycles=[9],
                            backend=make_backend()).run(20)
        assert par.event_kinds() == ref.event_kinds()
        assert par.result.detail == ref.result.detail
        assert par.output_log == ref.output_log
        assert mp.active_children() == []


class TestSupervisedFarmRuns(OnFarm, TestSupervisedParallelRuns):
    pass
