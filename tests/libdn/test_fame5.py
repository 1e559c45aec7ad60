"""FAME-5 multithreaded host: per-thread equivalence to independent
monolithic simulations."""

import pytest

from repro.errors import SimulationError
from repro.firrtl import make_circuit
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
    sims = [Simulator(circuit) for _ in range(n_threads)]
    ins, outs = _consumer_specs()
    return FAME5Host(sims, ins, outs, name="f5")


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
            for t in range(n):
                chan = f"t{t}:in"
                # keep each thread's channel fed
                thread = host.threads[t]
                if not thread.in_channels["in"].has_token():
                    if sent[t] < len(streams[t]):
                        host.deliver(chan, {"in_valid": 1,
                                            "in_bits": streams[t][sent[t]]})
                        sent[t] += 1
                    else:
                        host.deliver(chan, {"in_valid": 0, "in_bits": 0})
            host.host_step()
        for t in range(n):
            thread = host.threads[t]
            assert thread.sim.peek("sum") == sum(streams[t])
            assert thread.sim.peek("received") == 4

    def test_target_cycle_is_frontier(self):
        host = _make_host(2)
        host.deliver("t0:in", {"in_valid": 0, "in_bits": 0})
        host.threads[0].try_fire_outputs()
        host.threads[0].advance()
        assert host.threads[0].target_cycle == 1
        assert host.target_cycle == 0  # thread 1 has not advanced

    def test_channel_namespacing(self):
        host = _make_host(2)
        names = host.channel_names()
        assert "t0:in" in names and "t1:out" in names
        with pytest.raises(SimulationError):
            host.deliver("bogus", {})
        with pytest.raises(SimulationError):
            host.deliver("x3:in", {})

    def test_outbox_thread_prefixes(self):
        host = _make_host(2)
        for t in range(2):
            host.deliver(f"t{t}:in", {"in_valid": 0, "in_bits": 0})
        host.host_step()
        names = [name for name, _ in host.drain_outbox()]
        assert names == ["t0:out", "t1:out"]

    def test_empty_host_rejected(self):
        with pytest.raises(SimulationError):
            FAME5Host([], [], [])
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
