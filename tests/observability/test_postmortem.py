"""Deadlock postmortems: channel state + trailing event ring on the
paper's Fig. 2a failure mode."""

import pytest

from repro.errors import DeadlockError
from repro.firrtl import make_circuit
from repro.harness import Link, Partition, PartitionedSimulation
from repro.libdn import ChannelSpec, LIBDNHost
from repro.observability import DeadlockPostmortem, RecordingTracer
from repro.platform import QSFP_AURORA
from repro.rtl import Simulator
from repro.targets.combo import WIDTH, make_comb_left, make_comb_right


def _fig2a_sim(**kwargs):
    """The aggregated-channel combinational boundary of Fig. 2a, which
    deadlocks on the very first pass."""
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
        [Partition("L", left), Partition("R", right)], links, **kwargs)


def _deadlock(sim):
    with pytest.raises(DeadlockError) as err:
        sim.run(5)
    return err.value


class TestPostmortemCapture:
    def test_acceptance_forced_deadlock_has_full_postmortem(self):
        """Acceptance criterion: a forced Fig. 2a deadlock produces a
        postmortem with the event ring and per-unit channel state."""
        tracer = RecordingTracer()
        exc = _deadlock(_fig2a_sim(tracer=tracer))
        pm = exc.postmortem
        assert isinstance(pm, DeadlockPostmortem)
        assert pm.frontier_cycle == 0
        assert pm.host_passes == 1
        assert set(pm.channels) == {"L", "R"}
        for part in ("L", "R"):
            state = pm.channels[part][
                "left" if part == "L" else "right"]
            assert state["inputs"]["in"]["pending"] == 0
            assert state["outputs"]["out"]["fired"] is False
            assert state["outputs"]["out"]["waiting_on"] == ["in"]
        assert pm.events  # the ring captured the deadlock event itself
        assert pm.events[-1].kind == "deadlock"

    def test_ring_bounded_by_postmortem_events(self):
        tracer = RecordingTracer()
        exc = _deadlock(_fig2a_sim(tracer=tracer, postmortem_events=2))
        assert len(exc.postmortem.events) <= 2

    def test_ring_size_configurable_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POSTMORTEM_RING", "3")
        sim = _fig2a_sim(tracer=RecordingTracer())
        assert sim.postmortem_events == 3
        exc = _deadlock(sim)
        assert 1 <= len(exc.postmortem.events) <= 3

    def test_unparsable_env_ring_size_is_typed(self, monkeypatch):
        from repro.errors import EnvSettingError
        monkeypatch.setenv("REPRO_POSTMORTEM_RING", "many")
        with pytest.raises(EnvSettingError,
                           match="REPRO_POSTMORTEM_RING='many'"):
            _fig2a_sim()

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POSTMORTEM_RING", "3")
        sim = _fig2a_sim(postmortem_events=7)
        assert sim.postmortem_events == 7

    def test_env_unset_defaults_to_64(self, monkeypatch):
        monkeypatch.delenv("REPRO_POSTMORTEM_RING", raising=False)
        assert _fig2a_sim().postmortem_events == 64

    def test_untraced_run_still_gets_channel_state(self):
        exc = _deadlock(_fig2a_sim())
        pm = exc.postmortem
        assert pm.events == []
        assert set(pm.channels) == {"L", "R"}

    def test_stuck_channels_lists_starving_inputs(self):
        exc = _deadlock(_fig2a_sim())
        assert exc.postmortem.stuck_channels() == [
            "L/left/in", "R/right/in"]


class TestPostmortemRendering:
    def test_to_text_names_units_and_waits(self):
        tracer = RecordingTracer()
        exc = _deadlock(_fig2a_sim(tracer=tracer))
        text = exc.postmortem.to_text()
        assert "frontier stuck at target cycle 0" in text
        assert "L/left @ target cycle 0" in text
        assert "out out: waits on ['in']" in text
        assert "in  in: 0 pending token(s)" in text
        assert "last" in text and "event(s):" in text

    def test_to_text_untraced_points_at_recording_tracer(self):
        exc = _deadlock(_fig2a_sim())
        assert "no event history" in exc.postmortem.to_text()

    def test_deadlock_event_emitted_to_tracer(self):
        tracer = RecordingTracer()
        _deadlock(_fig2a_sim(tracer=tracer))
        deadlocks = tracer.of_kind("deadlock")
        assert len(deadlocks) == 1
        assert deadlocks[0].args["frontier"] == 0
