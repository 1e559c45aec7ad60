"""Partitioned co-simulation harness: wiring, timing overlay, deadlock."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.errors import (DeadlockError, SimulationError, TransportError,
                          UnknownBackendError)
from repro.firrtl import make_circuit
from repro.fireripper import EXACT, FAST, FireRipper, PartitionGroup, PartitionSpec
from repro.fuzz.oracle import functional_digest
from repro.harness import (
    ConstantSource,
    FunctionSource,
    Link,
    Partition,
    PartitionedSimulation,
)
from repro.libdn import ChannelSpec, LIBDNHost
from repro.platform import PCIE_P2P, QSFP_AURORA
from repro.rtl import Simulator
from repro.targets import make_comb_pair_circuit, make_rv_consumer
from repro.targets.combo import WIDTH, make_comb_left, make_comb_right


def _compile_pair(mode=EXACT):
    spec = PartitionSpec(mode=mode, groups=[
        PartitionGroup.make("fpga1", ["right"])])
    return FireRipper(spec).compile(make_comb_pair_circuit())


class TestWiringValidation:
    def _consumer_partition(self, name="p"):
        host = LIBDNHost(
            Simulator(make_circuit(make_rv_consumer(16), [])),
            [ChannelSpec.make("in", [("in_valid", 1), ("in_bits", 16)])],
            [ChannelSpec.make("out", [("in_ready", 1), ("sum", 32),
                                      ("received", 32)], deps=["in"])],
            name=name)
        return Partition(name, host)

    def test_unfed_input_rejected(self):
        part = self._consumer_partition()
        with pytest.raises(TransportError, match="no link and no source"):
            PartitionedSimulation([part], [])

    def test_unknown_link_endpoint(self):
        part = self._consumer_partition()
        link = Link(("p", "out"), ("ghost", "in"), QSFP_AURORA)
        with pytest.raises(TransportError):
            PartitionedSimulation([part], [link])

    def test_duplicate_partition_names(self):
        with pytest.raises(SimulationError):
            PartitionedSimulation([self._consumer_partition("p"),
                                   self._consumer_partition("p")], [])

    def test_function_source_drives_tokens(self):
        part = self._consumer_partition()
        values = [5, 6, 7]
        src = FunctionSource(lambda cycle: {
            "in_valid": 1 if cycle < 3 else 0,
            "in_bits": values[cycle] if cycle < 3 else 0})
        sim = PartitionedSimulation(
            [part], [], sources={("p", "in"): src}, record_outputs=True)
        sim.run(6)
        assert part.host.sim.peek("sum") == sum(values)

    @pytest.mark.parametrize("stepjit", [True, False])
    def test_isolated_partition_digest_is_pinned(self, stepjit):
        """One unlinked single-unit partition — the shape that used to
        run several target cycles per pass — gives, on both executors,
        the digest recorded before that loop was deleted."""
        src = FunctionSource(lambda c: {"in_valid": c % 3 != 2,
                                        "in_bits": (c * 37) & 0xFFFF})
        sim = PartitionedSimulation(
            [self._consumer_partition()], [],
            sources={("p", "in"): src}, record_outputs=True)
        sim.stepjit = stepjit
        digest = functional_digest(sim, sim.run(40))
        assert sim.last_jit_report["p"].startswith(
            "compiled" if stepjit else "disabled")
        assert hashlib.sha256(json.dumps(
            digest, sort_keys=True).encode()).hexdigest() == (
            "3c65d03bf0f72152a1208116384cfc15"
            "09ce58bb44755026a24679929f2bae71")


class TestTimingOverlay:
    def test_rate_positive_and_cycles_counted(self):
        sim = _compile_pair().build_simulation(QSFP_AURORA)
        result = sim.run(25)
        assert result.target_cycles == 25
        assert result.wall_ns > 0
        assert result.rate_hz > 0
        assert result.tokens_transferred > 0

    def test_faster_transport_faster_sim(self):
        r_qsfp = _compile_pair().build_simulation(QSFP_AURORA).run(40)
        r_pcie = _compile_pair().build_simulation(PCIE_P2P).run(40)
        assert r_qsfp.rate_hz > r_pcie.rate_hz

    def test_higher_bitstream_freq_faster(self):
        slow = _compile_pair().build_simulation(
            QSFP_AURORA, host_freq_mhz=10.0).run(40)
        fastr = _compile_pair().build_simulation(
            QSFP_AURORA, host_freq_mhz=90.0).run(40)
        assert fastr.rate_hz > slow.rate_hz

    def test_advance_overhead_slows(self):
        base = _compile_pair().build_simulation(QSFP_AURORA).run(40)
        loaded = _compile_pair().build_simulation(
            QSFP_AURORA, advance_overhead_ns=500.0).run(40)
        assert loaded.rate_hz < base.rate_hz

    def test_per_partition_cycles_reported(self):
        sim = _compile_pair().build_simulation(QSFP_AURORA)
        result = sim.run(10)
        assert result.per_partition_cycles == {"base": 10, "fpga1": 10}


class TestChannelCapacity:
    """The credit-stall path: a sender with no remaining credit waits
    for the receiver's consume timestamp before transmitting."""

    def test_tighter_credit_never_faster(self):
        walls = []
        for capacity in (None, 4, 0):
            result = _compile_pair(FAST).build_simulation(
                QSFP_AURORA, channel_capacity=capacity).run(60)
            walls.append(result.wall_ns)
        assert walls[0] <= walls[1] <= walls[2]

    def test_credit_stall_slows_but_stays_correct(self):
        free = _compile_pair(FAST).build_simulation(
            QSFP_AURORA, channel_capacity=None, record_outputs=True)
        free_result = free.run(60)
        credited = _compile_pair(FAST).build_simulation(
            QSFP_AURORA, channel_capacity=0, record_outputs=True)
        credited_result = credited.run(60)
        assert credited.output_log == free.output_log
        assert credited_result.target_cycles == \
            free_result.target_cycles
        assert credited_result.wall_ns >= free_result.wall_ns

    def test_consume_queues_stay_bounded(self):
        """The trim keeps credit bookkeeping O(in-flight), not O(run)."""
        sim = _compile_pair(FAST).build_simulation(
            QSFP_AURORA, channel_capacity=0)
        sim.run(300)
        for queue in sim._consume_times.values():
            assert len(queue) <= 8

    def test_uncredited_run_records_no_consume_times(self):
        sim = _compile_pair(FAST).build_simulation(
            QSFP_AURORA, channel_capacity=None)
        sim.run(300)
        assert sim._consume_times == {}

    def test_source_fed_channels_not_recorded(self):
        """Only link-fed channels are read back by the credit logic;
        recording source-fed ones would grow without bound."""
        host = LIBDNHost(
            Simulator(make_circuit(make_rv_consumer(16), [])),
            [ChannelSpec.make("in", [("in_valid", 1), ("in_bits", 16)])],
            [ChannelSpec.make("out", [("in_ready", 1), ("sum", 32),
                                      ("received", 32)], deps=["in"])],
            name="p")
        sim = PartitionedSimulation(
            [Partition("p", host)], [],
            sources={("p", "in"): ConstantSource(
                {"in_valid": 0, "in_bits": 0})},
            channel_capacity=0)
        sim.run(200)
        assert sim._consume_times == {}

    def test_arrival_queues_stay_bounded(self):
        sim = _compile_pair(FAST).build_simulation(QSFP_AURORA)
        sim.run(300)
        for queue in sim._arrivals.values():
            assert len(queue) <= 8


class TestRunEdgePaths:
    def test_record_outputs_logs_bridge_taps(self):
        """External output channels (bridge taps) land in the output
        log, one token per simulated cycle, only when asked for."""
        sim = _compile_pair().build_simulation(
            QSFP_AURORA, record_outputs=True)
        sim.run(12)
        log = sim.output_log[("base", "io_out")]
        assert len(log) == 12
        assert all(isinstance(t, dict) and t for t in log)

    def test_outputs_not_recorded_by_default(self):
        sim = _compile_pair().build_simulation(QSFP_AURORA)
        sim.run(12)
        assert sim.output_log == {}

    def test_max_passes_exhaustion_raises(self):
        sim = _compile_pair().build_simulation(QSFP_AURORA)
        with pytest.raises(SimulationError, match="pass budget"):
            sim.run(40, max_passes=1)

    def test_max_passes_error_is_not_a_deadlock(self):
        sim = _compile_pair().build_simulation(QSFP_AURORA)
        with pytest.raises(SimulationError) as err:
            sim.run(40, max_passes=1)
        assert not isinstance(err.value, DeadlockError)

    def test_stop_callback_early_exit_partial_result(self):
        sim = _compile_pair().build_simulation(
            QSFP_AURORA, record_outputs=True)
        result = sim.run(50, stop=lambda s: s.frontier_cycle() >= 5)
        assert result.target_cycles == 5
        assert result.per_partition_cycles == {"base": 5, "fpga1": 5}
        # the partial result is internally consistent
        assert result.wall_ns > 0
        assert len(sim.output_log[("base", "io_out")]) >= 5
        fmr = result.detail["fmr"]
        for part, components in result.detail["fmr_breakdown"].items():
            assert sum(components.values()) == pytest.approx(fmr[part])

    def test_stop_checked_before_any_work(self):
        sim = _compile_pair().build_simulation(QSFP_AURORA)
        result = sim.run(50, stop=lambda s: True)
        assert result.target_cycles == 0
        assert result.tokens_transferred == 0


#: builds and runs the pair in-process twice (``inproc``, then the default
#: ``auto``), then prints which process-backend modules got imported
_INPROC_IMPORT_PROBE = """
import sys
from repro.fireripper import FireRipper, PartitionGroup, PartitionSpec
from repro.platform import QSFP_AURORA
from repro.targets import make_comb_pair_circuit
spec = PartitionSpec(groups=[PartitionGroup.make("fpga1", ["right"])])
design = FireRipper(spec).compile(make_comb_pair_circuit())
design.build_simulation(QSFP_AURORA).run(12, backend="inproc")
design.build_simulation(QSFP_AURORA).run(12)
print([m for m in ("repro.parallel", "multiprocessing") if m in sys.modules])
"""


class TestBackendNames:
    def test_inproc_runs_leave_the_process_backend_unimported(self):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_BACKEND"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        out = subprocess.run([sys.executable, "-c", _INPROC_IMPORT_PROBE],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["[]"]

    def test_unknown_name_raises(self):
        sim = _compile_pair().build_simulation(QSFP_AURORA)
        with pytest.raises(UnknownBackendError, match="bogus"):
            sim.run(12, backend="bogus")

    def test_retired_spelling_means_process(self):
        """``process-shm`` resolves to the process backend, which
        refuses a stop callback before forking anything."""
        sim = _compile_pair().build_simulation(QSFP_AURORA)
        with pytest.raises(SimulationError, match="stop callback"):
            sim.run(12, stop=lambda s: False, backend="process-shm")


class TestDeadlockDetection:
    def test_aggregated_comb_boundary_deadlocks(self):
        """Fig. 2a wired through the harness: aggregated channels on a
        combinational boundary stall every unit."""
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
        sim = PartitionedSimulation(
            [Partition("L", left), Partition("R", right)], links)
        with pytest.raises(DeadlockError) as err:
            sim.run(5)
        assert "waits on" in str(err.value)

    def test_stuck_detail_names_every_unit_and_channel(self):
        """The deadlock report carries each stuck unit's channel state:
        which outputs wait on which inputs, and which inputs are empty
        (the paper's actionable Fig. 2a diagnosis)."""
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
        sim = PartitionedSimulation(
            [Partition("L", left), Partition("R", right)], links)
        with pytest.raises(DeadlockError) as err:
            sim.run(5)
        detail = err.value.detail
        assert "left@cycle0" in detail
        assert "right@cycle0" in detail
        assert "out waits on ['in']" in detail
        assert "empty inputs ['in']" in detail
        assert err.value.host_cycle == 1  # stalled on the first pass
        # both stuck units are reported, ';;'-separated
        assert detail.count(";;") == 1

    def test_stuck_detail_empty_inputs_only(self):
        """A host whose outputs all fired but whose inputs starve
        reports only the empty input channels."""
        host = LIBDNHost(
            Simulator(make_circuit(make_rv_consumer(16), [])),
            [ChannelSpec.make("in", [("in_valid", 1), ("in_bits", 16)])],
            [ChannelSpec.make("out", [("in_ready", 1), ("sum", 32),
                                      ("received", 32)], deps=["in"])],
            name="starved")
        host.deliver("in", {"in_valid": 0, "in_bits": 0})
        host.host_step()  # consumes the only token, then starves
        detail = host.stuck_detail()
        assert detail.startswith("starved@cycle1:")
        # the re-armed output FSM waits on the starved input channel
        assert "out waits on ['in']" in detail
        assert "empty inputs ['in']" in detail

    def test_seeding_prevents_the_deadlock(self):
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
        sim = PartitionedSimulation(
            [Partition("L", left), Partition("R", right)], links,
            seed_boundary=True)
        result = sim.run(10)
        assert result.target_cycles == 10
