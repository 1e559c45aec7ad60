"""FAME-5 multithreaded host: per-thread equivalence to independent
monolithic simulations."""

import pytest

from repro.errors import SimulationError
from repro.firrtl import make_circuit
from repro.harness import Partition
from repro.libdn import ChannelSpec, FAME5Host, LIBDNHost
from repro.rtl import Simulator
from repro.targets import make_rv_consumer


def _consumer_specs():
    ins = [ChannelSpec.make("in", [("in_valid", 1), ("in_bits", 16)])]
    outs = [ChannelSpec.make(
        "out", [("in_ready", 1), ("sum", 32), ("received", 32)],
        deps=["in"])]
    return ins, outs


def _make_host(n_threads):
    module = make_rv_consumer(16)
    circuit = make_circuit(module, [])
    ins, outs = _consumer_specs()
    return FAME5Host.from_hosts(
        [LIBDNHost(Simulator(circuit), ins, outs, name=f"f5.t{i}")
         for i in range(n_threads)], name="f5")


class TestFAME5:
    def test_thread_isolation(self):
        """Each thread consumes its own stream; checksums are
        per-thread, identical to running N separate hosts."""
        n = 3
        host = _make_host(n)
        streams = [[(t + 1) * 10 + i for i in range(4)] for t in range(n)]
        sent = [0] * n
        sums = [0] * n
        for _ in range(30):
            for t, thread in enumerate(host.threads):
                # keep each thread's channel fed
                if not thread.in_channels["in"].has_token():
                    if sent[t] < len(streams[t]):
                        thread.deliver("in", {"in_valid": 1,
                                              "in_bits": streams[t][sent[t]]})
                        sent[t] += 1
                    else:
                        thread.deliver("in", {"in_valid": 0, "in_bits": 0})
                thread.host_step()
        for t in range(n):
            thread = host.threads[t]
            assert thread.sim.peek("sum") == sum(streams[t])
            assert thread.sim.peek("received") == 4

    def test_target_cycle_is_frontier(self):
        part = Partition("p", _make_host(2))
        thread = part.host.threads[0]
        thread.deliver("in", {"in_valid": 0, "in_bits": 0})
        thread.try_fire_outputs()
        thread.advance()
        assert thread.target_cycle == 1
        assert part.target_cycle == 0  # thread 1 has not advanced

    def test_channel_namespacing(self):
        """A partition flattens the threads into ``t<i>:`` units."""
        part = Partition("p", _make_host(2))
        assert part.channel_names("in") == ["t0:in", "t1:in"]
        assert part.channel_names("out") == ["t0:out", "t1:out"]
        assert [unit for _, unit in part.units] == part.host.threads

    def test_empty_host_rejected(self):
        with pytest.raises(SimulationError):
            FAME5Host.from_hosts([])

    def test_from_hosts_wraps_existing(self):
        module = make_rv_consumer(16)
        circuit = make_circuit(module, [])
        ins, outs = _consumer_specs()
        hosts = [LIBDNHost(Simulator(circuit), ins, outs, name=f"h{i}")
                 for i in range(2)]
        fame5 = FAME5Host.from_hosts(hosts, name="merged")
        assert len(fame5.threads) == 2
        assert fame5.threads[0] is hosts[0]
