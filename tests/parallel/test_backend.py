"""Process backend: bit-identical results, failure surfacing, teardown.

Every test that runs both backends asserts *equality of the full result
detail* — the bar is bit-identity with the in-process harness, not
statistical agreement.
"""

import multiprocessing as mp
import os

import pytest

from repro.errors import (
    DeadlockError,
    SimulationError,
    UnsupportedTopologyError,
    WorkerError,
)
from repro.firrtl import make_circuit
from repro.fireripper import EXACT, FAST
from repro.harness import Link, Partition, PartitionedSimulation
from repro.libdn import ChannelSpec, LIBDNHost
from repro.parallel import ProcessBackend, auto_backend, fork_available
from repro.platform import QSFP_AURORA
from repro.reliability import (
    FaultInjector,
    FaultSpec,
    FaultyTransport,
    InjectedCrash,
    capture_state,
    harden_links,
    inject_faults,
    restore_state,
)
from repro.rtl import Simulator
from repro.targets.combo import WIDTH, make_comb_left, make_comb_right

from .conftest import (SHAPES, OnFarm, attach_switches, build_sim,
                       build_star_sim)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process backend needs fork")


def _no_orphans():
    for child in mp.active_children():
        child.join(5.0)
    return mp.active_children() == []


def _deadlock_sim():
    """Fig. 2a aggregated comb boundary: stalls on the first pass."""
    left = LIBDNHost(
        Simulator(make_circuit(make_comb_left(), [])),
        [ChannelSpec.make("in", [("a", WIDTH), ("e", WIDTH)])],
        [ChannelSpec.make("out", [("d", WIDTH), ("s", WIDTH)],
                          deps=["in"])],
        name="left")
    right = LIBDNHost(
        Simulator(make_circuit(make_comb_right(), [])),
        [ChannelSpec.make("in", [("c", WIDTH), ("f", WIDTH)])],
        [ChannelSpec.make("out", [("q", WIDTH), ("ya", WIDTH)],
                          deps=["in"])],
        name="right")
    links = [
        Link(("L", "out"), ("R", "in"), QSFP_AURORA,
             rename={"d": "f", "s": "c"}),
        Link(("R", "out"), ("L", "in"), QSFP_AURORA,
             rename={"q": "e", "ya": "a"}),
    ]
    return PartitionedSimulation(
        [Partition("L", left), Partition("R", right)], links)


class TestBitIdentity:
    @pytest.mark.parametrize("shape", [1, 2, 3, *SHAPES])
    def test_detail_matches_inproc(self, shape):
        s1 = build_sim(shape)
        r1 = s1.run(12, backend="inproc")
        s2 = build_sim(shape)
        r2 = ProcessBackend().run(s2, 12)
        assert r2.detail == r1.detail
        assert r2.target_cycles == r1.target_cycles
        assert r2.tokens_transferred == r1.tokens_transferred
        assert r2.per_partition_cycles == r1.per_partition_cycles
        assert s2.output_log == s1.output_log
        assert s2.last_run_backend == "process"
        assert s1.last_run_backend == "inproc"

    def test_fast_mode_matches_inproc(self):
        s1 = build_star_sim(2, mode=FAST)
        r1 = s1.run(10, backend="inproc")
        s2 = build_star_sim(2, mode=FAST)
        r2 = ProcessBackend().run(s2, 10)
        assert r2.detail == r1.detail
        assert s2.output_log == s1.output_log

    def test_reliable_links_with_faults_match(self):
        fault = FaultSpec(drop_rate=0.2, corrupt_rate=0.1, seed=11)
        s1 = build_star_sim(2)
        harden_links(s1, fault)
        r1 = s1.run(12, backend="inproc")
        s2 = build_star_sim(2)
        harden_links(s2, fault)
        r2 = ProcessBackend().run(s2, 12)
        assert r2.detail == r1.detail
        assert s2.output_log == s1.output_log

    def test_middle_partition_finishes_first(self):
        """The premise of the ``middle_finishes_first`` shape: ``mid``
        has a peer on each side of it in partition order, and is done
        while both still have cycles to run."""
        sim = build_sim("middle_finishes_first")
        assert list(sim.partitions) == ["base", "mid", "tail"]
        seen = []
        sim.run(12, backend="inproc", stop=lambda s: seen.append(
            {n: p.target_cycle for n, p in s.partitions.items()}))
        at_mid_done = next(cycles for cycles in seen
                           if cycles["mid"] == 12)
        assert at_mid_done["base"] < 12 and at_mid_done["tail"] < 12

    @pytest.mark.parametrize("segments", [
        ("inproc", "process", "inproc"), ("process", "inproc")],
        ids="-".join)
    @pytest.mark.parametrize("mode", [EXACT, FAST], ids=["exact", "fast"])
    def test_mixed_backend_segments_on_one_simulation(
            self, segments, mode):
        """Segments of one simulation on alternating backends, JIT on,
        default ``channel_capacity``: the merge replaces every queue a
        compiled plane binds, so the next in-process entry must not
        step the plane the previous one left."""
        from repro.fuzz import functional_digest

        straight = build_star_sim(2, mode=mode)
        want = functional_digest(
            straight, straight.run(10 * len(segments), backend="inproc"))
        sim = build_star_sim(2, mode=mode)
        for i, backend in enumerate(segments, 1):
            result = sim.run(10 * i, backend=backend)
            assert sim.last_run_backend == backend
        assert functional_digest(sim, result) == want
        assert all(v.startswith("compiled")
                   for v in sim.last_jit_report.values())

    def test_run_backend_process_dispatches(self):
        s1 = build_star_sim(2)
        r1 = s1.run(8, backend="inproc")
        s2 = build_star_sim(2)
        r2 = s2.run(8, backend="process")
        assert s2.last_run_backend == "process"
        assert r2.detail == r1.detail


class TestTransportSwap:
    """A link's injector and switch are read off its transport, so
    assigning a new transport is the whole swap: no hook refresh is
    owed, on either backend."""

    SPEC = FaultSpec(seed=11, spike_rate=0.5, spike_ns=5000)

    @pytest.mark.parametrize("backend", ["inproc", "process"])
    def test_bare_swap_matches_inject_faults(self, backend):
        def run(attach):
            sim = build_star_sim()
            sim.run(50, backend=backend)  # the plane is built clean
            attach(sim)
            return sim.run(100, backend=backend).detail

        def swap(sim):
            injector = FaultInjector(self.SPEC)
            for link in sim.links:
                link.transport = FaultyTransport(link.transport, injector)

        injected = run(lambda sim: inject_faults(sim, self.SPEC))
        assert run(swap) == injected
        assert run(lambda sim: None) != injected

    def test_hooks_refuse_a_transport_slot(self):
        """Attaching an injector to the hooks instead of the transport
        fails loudly rather than injecting nothing."""
        link = build_star_sim().links[0]
        with pytest.raises(AttributeError):
            link.hooks.injector = FaultInjector(self.SPEC)


class TestCheckpointInterop:
    def test_parallel_checkpoint_restores_into_inproc(self):
        """A mid-run snapshot of a process-backed run continues in the
        in-process backend to the same final state, and vice versa."""
        ref = build_star_sim(2)
        ref.run(20, backend="inproc")

        first = build_star_sim(2)
        ProcessBackend().run(first, 10)
        state = capture_state(first)

        resumed = build_star_sim(2)
        restore_state(resumed, state)
        r = resumed.run(20, backend="inproc")
        assert r.detail == ref.result().detail
        assert resumed.output_log == ref.output_log

    def test_inproc_checkpoint_restores_into_parallel(self):
        ref = build_star_sim(2)
        ref.run(20, backend="inproc")

        first = build_star_sim(2)
        first.run(10, backend="inproc")
        state = capture_state(first)

        resumed = build_star_sim(2)
        restore_state(resumed, state)
        r = ProcessBackend().run(resumed, 20)
        assert r.detail == ref.result().detail
        assert resumed.output_log == ref.output_log


    def test_capture_equal_with_fabrics_and_hardened_links(self):
        """The owned-state schema covers every hook: with per-source
        switch fabrics and faulty reliable links, a checkpoint taken
        after a process-backed segment ``==`` one taken after the same
        in-process segment, and a restored clone re-captures to it."""
        from repro.platform.ethernet import SwitchFabric

        def build():
            sim = build_star_sim(2)
            fabrics = {}
            attach_switches(sim, lambda link: fabrics.setdefault(
                link.src[0], SwitchFabric()))
            harden_links(sim, FaultSpec(drop_rate=0.2, seed=11))
            return sim

        serial = build()
        serial.run(10, backend="inproc")
        parallel = build()
        ProcessBackend().run(parallel, 10)
        state = capture_state(parallel)
        assert state == capture_state(serial)
        assert any(entry["switch"]["tokens"] and entry["reliability"]
                   for part in state["partitions"].values()
                   for entry in part["links_tx"].values())
        clone = build()
        restore_state(clone, state)
        assert capture_state(clone) == state


class TestFailureSurfacing:
    def test_killed_worker_surfaces_and_leaves_no_orphans(
            self, make_backend):
        sim = build_star_sim(2)
        backend = make_backend(
            worker_faults={"fpga1": ("kill", 4)})
        with pytest.raises(WorkerError) as err:
            backend.run(sim, 40)
        assert err.value.partition == "fpga1"
        assert "died" in str(err.value)
        assert "killed by SIGKILL" in str(err.value)
        assert _no_orphans()

    def test_worker_exception_rebuilt_in_parent(self, make_backend):
        sim = build_star_sim(2)
        backend = make_backend(
            worker_faults={"fpga2": ("raise", 3)})
        with pytest.raises(WorkerError) as err:
            backend.run(sim, 40)
        assert err.value.partition == "fpga2"
        assert "injected worker fault" in str(err.value)
        assert _no_orphans()

    def test_hung_worker_hits_heartbeat_timeout(self, make_backend):
        sim = build_star_sim(2)
        backend = make_backend(
            heartbeat_timeout=2.0,
            worker_faults={"fpga1": ("hang", 4)})
        with pytest.raises(WorkerError) as err:
            backend.run(sim, 40)
        assert "heartbeat-timeout" in str(err.value)
        assert _no_orphans()

    def test_crash_injection_matches_serial_semantics(
            self, make_backend):
        sim = build_star_sim(2)
        with pytest.raises(InjectedCrash) as err:
            make_backend().run(sim, 40, crash_cycle=6)
        assert err.value.cycle == 6
        assert _no_orphans()

    def test_pass_budget_matches_serial(self, make_backend):
        s1 = build_star_sim(2)
        with pytest.raises(SimulationError, match="pass budget") as e1:
            s1.run(40, max_passes=3, backend="inproc")
        assert not isinstance(e1.value, DeadlockError)
        s2 = build_star_sim(2)
        with pytest.raises(SimulationError, match="pass budget") as e2:
            make_backend().run(s2, 40, max_passes=3)
        assert not isinstance(e2.value, DeadlockError)
        assert _no_orphans()


class TestFailureSurfacingOnFarm(OnFarm, TestFailureSurfacing):
    pass


class TestDeadlockParity:
    def test_postmortem_identical_to_inproc(self, make_backend):
        s1 = _deadlock_sim()
        with pytest.raises(DeadlockError) as e1:
            s1.run(5, backend="inproc")
        s2 = _deadlock_sim()
        with pytest.raises(DeadlockError) as e2:
            make_backend().run(s2, 5)
        assert str(e2.value) == str(e1.value)
        assert e2.value.detail == e1.value.detail
        assert e2.value.host_cycle == e1.value.host_cycle == 1
        pm1, pm2 = e1.value.postmortem, e2.value.postmortem
        assert pm2 is not None
        assert pm2.host_passes == pm1.host_passes
        assert pm2.frontier_cycle == pm1.frontier_cycle
        assert pm2.channels == pm1.channels
        assert _no_orphans()


class TestDeadlockParityOnFarm(OnFarm, TestDeadlockParity):
    pass


class TestBackendSelection:
    def test_auto_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        sim = build_star_sim(2)
        sim.run(6)  # backend="auto" is the default
        assert sim.last_run_backend == "process"
        monkeypatch.delenv("REPRO_BACKEND")
        sim2 = build_star_sim(2)
        sim2.run(6)
        assert sim2.last_run_backend == "inproc"

    def test_stop_callback_forces_inproc(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        sim = build_star_sim(2)
        sim.run(6, stop=lambda s: False)
        assert sim.last_run_backend == "inproc"

    def test_explicit_process_with_stop_callback_raises(self):
        sim = build_star_sim(2)
        with pytest.raises(SimulationError, match="stop callback"):
            sim.run(6, stop=lambda s: False, backend="process")

    def test_auto_backend_none_inside_worker(self, monkeypatch):
        from repro.parallel import worker as worker_mod
        monkeypatch.setattr(worker_mod, "IN_WORKER", True)
        monkeypatch.setenv("REPRO_BACKEND", "process")
        assert auto_backend(build_star_sim(2)) is None

    def test_shared_switch_topology_is_unsupported(self):
        """A switch fabric spanning links of different source
        partitions serializes backplane contention globally — the
        explicit process backend refuses it, auto falls back."""
        from repro.platform.ethernet import SwitchFabric
        sim = build_star_sim(2)
        shared = SwitchFabric()
        attach_switches(sim, lambda link: shared)
        assert len({link.src[0] for link in sim.links}) > 1
        with pytest.raises(UnsupportedTopologyError):
            ProcessBackend().run(sim, 6)
        assert auto_backend(sim) is None

    def test_single_source_switch_is_supported(self):
        """Per-source fabrics (one switch per sending FPGA) partition
        cleanly and stay bit-identical."""
        from repro.platform.ethernet import SwitchFabric

        def with_fabrics(sim):
            fabrics = {}
            attach_switches(sim, lambda link: fabrics.setdefault(
                link.src[0], SwitchFabric()))
            return sim

        s1 = with_fabrics(build_star_sim(2))
        r1 = s1.run(10, backend="inproc")
        s2 = with_fabrics(build_star_sim(2))
        r2 = ProcessBackend().run(s2, 10)
        assert r2.detail == r1.detail
        assert s2.output_log == s1.output_log


class TestObservability:
    def test_recording_tracer_events_merge_back(self):
        from repro.observability import RecordingTracer
        t1 = RecordingTracer()
        s1 = build_star_sim(2, tracer=t1)
        r1 = s1.run(8, backend="inproc")
        t2 = RecordingTracer()
        s2 = build_star_sim(2, tracer=t2)
        r2 = ProcessBackend().run(s2, 8)
        assert r2.detail == r1.detail
        assert len(t2.events) == len(t1.events)
        assert sorted(e.kind for e in t2.events) == \
            sorted(e.kind for e in t1.events)
        # merged events are re-emitted in modelled-time order
        stamps = [e.ts_ns for e in t2.events]
        assert stamps == sorted(stamps)
