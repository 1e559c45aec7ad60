"""LI-BDN host semantics, including the paper's Fig. 2 walkthrough.

The exact-mode example of Sec. III-A1 is replayed token by token: with
separated source/sink channels the step-1/2/3 values (source tokens 1 and
2; sink tokens 3 and 7; registers updating to 7 and 9) reproduce; with
everything aggregated into one channel pair (Fig. 2a) the network
deadlocks.
"""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.firrtl import make_circuit
from repro.libdn import ChannelSpec, LIBDNHost
from repro.rtl import Simulator
from repro.targets.combo import (
    COMB_PAIR_REGS,
    WIDTH,
    make_comb_left,
    make_comb_right,
)


def _left_host(separated: bool) -> LIBDNHost:
    sim = Simulator(make_circuit(make_comb_left(), []))
    if separated:
        in_specs = [ChannelSpec.make("sink_in", [("a", WIDTH)]),
                    ChannelSpec.make("source_in", [("e", WIDTH)])]
        out_specs = [
            ChannelSpec.make("sink_out", [("d", WIDTH)],
                             deps=["sink_in"]),
            ChannelSpec.make("source_out", [("s", WIDTH)]),
        ]
    else:  # Fig. 2a: aggregated channels
        in_specs = [ChannelSpec.make("in", [("a", WIDTH), ("e", WIDTH)])]
        out_specs = [ChannelSpec.make(
            "out", [("d", WIDTH), ("s", WIDTH)], deps=["in"])]
    return LIBDNHost(sim, in_specs, out_specs, name="libdn1")


def _right_host(separated: bool) -> LIBDNHost:
    sim = Simulator(make_circuit(make_comb_right(), []))
    if separated:
        in_specs = [ChannelSpec.make("sink_in", [("c", WIDTH)]),
                    ChannelSpec.make("source_in", [("f", WIDTH)])]
        out_specs = [
            ChannelSpec.make("sink_out", [("q", WIDTH)],
                             deps=["sink_in"]),
            ChannelSpec.make("source_out", [("ya", WIDTH)]),
        ]
    else:
        in_specs = [ChannelSpec.make("in", [("c", WIDTH), ("f", WIDTH)])]
        out_specs = [ChannelSpec.make(
            "out", [("q", WIDTH), ("ya", WIDTH)], deps=["in"])]
    return LIBDNHost(sim, in_specs, out_specs, name="libdn2")


def _fire(host):
    """Fire ``host`` and decode what it fired: ``{channel: token}``."""
    return {name: host.out_channels[name].codec.decode(word)
            for name, word in host.try_fire_outputs()}


class TestFig2bExactSequence:
    def test_step_by_step_token_values(self):
        left = _left_host(separated=True)
        right = _right_host(separated=True)

        # step 1: only the source channels can fire (registers X=1, Y=2)
        out_l = _fire(left)
        out_r = _fire(right)
        assert list(out_l) == ["source_out"]
        assert list(out_r) == ["source_out"]
        assert out_l["source_out"]["s"] == 1    # register X
        assert out_r["source_out"]["ya"] == 2   # register Y
        left.deliver("sink_in", {"a": out_r["source_out"]["ya"]})
        right.deliver("sink_in", {"c": out_l["source_out"]["s"]})

        # step 2: sink channels fire with the combinational results
        out_l = _fire(left)
        out_r = _fire(right)
        assert list(out_l) == ["sink_out"]
        assert list(out_r) == ["sink_out"]
        assert out_l["sink_out"]["d"] == 3      # A + X = 2 + 1
        assert out_r["sink_out"]["q"] == 7      # C + Y + 4 = 1 + 2 + 4
        left.deliver("source_in", {"e": out_r["sink_out"]["q"]})
        right.deliver("source_in", {"f": out_l["sink_out"]["d"]})

        # step 3: both LI-BDNs can advance; registers update to 7 and 9
        assert left.can_advance() and right.can_advance()
        left.advance()
        right.advance()
        assert left.sim.peek("x") == 7
        assert right.sim.peek("y") == 9
        assert left.target_cycle == right.target_cycle == 1

    def test_runs_many_cycles_matching_monolithic(self):
        from repro.targets import make_comb_pair_circuit

        cycles = 8
        mono = Simulator(make_comb_pair_circuit())
        mono_trace = [mono.step({})["x_obs"] for _ in range(cycles)]

        left = _left_host(separated=True)
        right = _right_host(separated=True)
        libdn_trace = []
        while left.target_cycle < cycles:
            out_l = _fire(left)
            out_r = _fire(right)
            for name, token in out_l.items():
                if name == "source_out":
                    libdn_trace.append(token["s"])
                    right.deliver("sink_in", {"c": token["s"]})
                else:
                    right.deliver("source_in", {"f": token["d"]})
            for name, token in out_r.items():
                if name == "source_out":
                    left.deliver("sink_in", {"a": token["ya"]})
                else:
                    left.deliver("source_in", {"e": token["q"]})
            if left.can_advance():
                left.advance()
            if right.can_advance():
                right.advance()
        assert libdn_trace[:cycles] == mono_trace


class TestFig2aDeadlock:
    def test_aggregated_channels_deadlock(self):
        left = _left_host(separated=False)
        right = _right_host(separated=False)
        # neither side can fire: each output channel waits on the other's
        # token, the circular dependency of Fig. 2a
        assert left.try_fire_outputs() == []
        assert right.try_fire_outputs() == []
        assert not left.can_advance()
        assert not right.can_advance()
        detail = left.stuck_detail()
        assert "out waits on" in detail

    def test_seed_token_breaks_deadlock(self):
        # fast-mode rescue: seed each input channel once
        left = _left_host(separated=False)
        right = _right_host(separated=False)
        left.seed_inputs()
        right.seed_inputs()
        assert list(_fire(left)) == ["out"]
        assert list(_fire(right)) == ["out"]
        assert left.can_advance()


class TestHostValidation:
    def test_port_mismatch_rejected(self):
        sim = Simulator(make_circuit(make_comb_left(), []))
        with pytest.raises(SimulationError):
            LIBDNHost(sim, [ChannelSpec.make("in", [("ghost", 4)])], [])

    def test_unknown_dep_rejected(self):
        sim = Simulator(make_circuit(make_comb_left(), []))
        with pytest.raises(SimulationError):
            LIBDNHost(
                sim,
                [ChannelSpec.make("in", [("a", WIDTH), ("e", WIDTH)])],
                [ChannelSpec.make("out", [("d", WIDTH), ("s", WIDTH)],
                                  deps=["nope"])])

    def test_advance_without_tokens_raises(self):
        host = _left_host(separated=True)
        with pytest.raises(SimulationError):
            host.advance()
