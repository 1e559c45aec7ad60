"""LI-BDN host wrapper around a cycle-level simulator.

This is the software analogue of the FAME-1 transform's added circuitry
(dotted lines in the paper's Fig. 1): per-output-channel fire FSMs plus the
``fireFSM`` that advances the target.  The firing discipline is the LI-BDN
one from Vijayaraghavan & Arvind:

* an output channel may fire once per target cycle, as soon as every input
  channel it combinationally depends on holds a valid head token;
* the target advances one cycle when every input channel has a token and
  every output channel has fired; advancing consumes the input tokens and
  re-arms the output FSMs.

Because firing pokes only the combinationally relevant inputs before
evaluating, output tokens are correct even while other inputs are still in
flight — this is exactly what lets exact-mode partitions with boundary
combinational logic make forward progress (Fig. 2b).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CheckpointError, SimulationError
from ..observability.tracer import NULL_TRACER, TraceEvent, Tracer
from ..rtl.engine import Simulator
from .token import Channel, ChannelSpec, Token


class LIBDNHost:
    """Wraps a :class:`~repro.rtl.Simulator` in LI-BDN channels.

    Args:
        sim: simulator whose top-level ports are exactly the channel ports.
        in_specs: input channel descriptions.
        out_specs: output channel descriptions (with comb ``deps``).
        name: host name for diagnostics.
    """

    def __init__(self, sim: Simulator, in_specs: Sequence[ChannelSpec],
                 out_specs: Sequence[ChannelSpec], name: str = "libdn"):
        self.sim = sim
        self.name = name
        self.in_channels: Dict[str, Channel] = {
            s.name: Channel(s) for s in in_specs
        }
        self.out_channels: Dict[str, Channel] = {
            s.name: Channel(s) for s in out_specs
        }
        for s in out_specs:
            unknown = s.deps - set(self.in_channels)
            if unknown:
                raise SimulationError(
                    f"{name}: output channel {s.name!r} depends on unknown "
                    f"input channels {sorted(unknown)}"
                )
        self._fired: Dict[str, bool] = {s.name: False for s in out_specs}
        self.target_cycle = 0
        #: trace sink for fire/advance events (null by default); the
        #: owning harness installs its tracer plus a clock reading the
        #: partition's timing cursor
        self.tracer: Tracer = NULL_TRACER
        self.trace_clock: Callable[[], float] = lambda: 0.0
        self._validate_ports()
        # -- precompiled token plans (the specs are frozen, so the bit
        # layouts and dependency checks never change after construction)
        # fire plan, one entry per output channel in deterministic
        # (sorted) fire order: the dep channels to check/poke with their
        # unpack fields, and the pack fields that build the out word.
        self._fire_plans = tuple(
            (name,
             tuple((self.in_channels[d], self.in_channels[d].codec.fields)
                   for d in sorted(self.out_channels[name].spec.deps)),
             self.out_channels[name].codec.fields)
            for name in sorted(self.out_channels)
        )
        # advance plan: every input channel (in spec order) with its
        # unpack fields.
        self._in_plans = tuple(
            (ch, ch.codec.fields) for ch in self.in_channels.values()
        )

    def step_bindings(self) -> dict:
        """Stable fast-path surface for the compiled step plane
        (:mod:`repro.harness.stepjit`).

        The generated pass (one per plane) never calls
        :meth:`try_fire_outputs` / :meth:`advance`: it inlines their
        bodies against the objects returned here, for every unit of the
        plane or for none, on fused kernels of the engine's elaboration
        (:func:`repro.rtl.kernel.unit_kernels`).  Everything in the dict
        is *the* live object (not a copy): the precompiled fire plans,
        the fired-flag dict, the RTL engine's signal environment and
        memories, mutated in place for the life of a compiled plane
        (DESIGN "The compiled step plane" names the one function that
        replaces them and drops the plane).
        """
        sim = self.sim
        return {
            "rtl": sim,
            "env": sim.env,
            "mems": sim.mem_state,
            "fired": self._fired,
            "fire_plans": self._fire_plans,
            "in_plans": self._in_plans,
        }

    def attach_tracer(self, tracer: Tracer,
                      clock: Optional[Callable[[], float]] = None) -> None:
        """Install a trace sink (and optionally a host-time clock) for
        this unit's ``channel_fire``/``advance`` events."""
        self.tracer = tracer
        if clock is not None:
            self.trace_clock = clock

    def _validate_ports(self) -> None:
        sim_inputs = dict(self.sim.elab.inputs)
        sim_outputs = dict(self.sim.elab.outputs)
        for ch in self.in_channels.values():
            for port, width in ch.spec.ports:
                if sim_inputs.get(port) != width:
                    raise SimulationError(
                        f"{self.name}: input channel {ch.name!r} port "
                        f"{port!r} does not match a {width}-bit sim input"
                    )
        for ch in self.out_channels.values():
            for port, width in ch.spec.ports:
                if sim_outputs.get(port) != width:
                    raise SimulationError(
                        f"{self.name}: output channel {ch.name!r} port "
                        f"{port!r} does not match a {width}-bit sim output"
                    )

    # -- token plumbing ------------------------------------------------------

    def deliver(self, channel: str, token: Token) -> None:
        """Enqueue a token arriving on an input channel."""
        self.in_channels[channel].put(token)

    def seed_inputs(self) -> None:
        """Prime every input channel with one all-zero token (fast-mode
        initialization; injects one cycle of latency at the boundary)."""
        for ch in self.in_channels.values():
            ch.put_word(0)

    # -- LI-BDN state machines -------------------------------------------------

    def try_fire_outputs(self) -> List[Tuple[str, int]]:
        """Fire every armed output channel whose comb-dependent inputs hold
        tokens; returns the ``(name, packed word)`` pairs fired, in
        deterministic order, for the caller to put on the wire."""
        fired_now: List[Tuple[str, int]] = []
        fired = self._fired
        sim = self.sim
        for name, dep_plans, pack_fields in self._fire_plans:
            if fired[name]:
                continue
            ready = True
            for dep_ch, _ in dep_plans:
                if not dep_ch.queue:
                    ready = False
                    break
            if not ready:
                continue
            # poke only the combinationally relevant inputs; other input
            # ports keep stale values, which cannot affect these outputs.
            # (values in the queue are already masked to the port width,
            # so writing env directly matches what poke() would store)
            env = sim.env
            for dep_ch, fields in dep_plans:
                head = dep_ch.queue[0]
                for port, offset, mask in fields:
                    env[port] = (head >> offset) & mask
            sim.eval()
            word = 0
            for port, offset, _ in pack_fields:
                word |= env[port] << offset
            fired[name] = True
            fired_now.append((name, word))
            if self.tracer.enabled:
                self.tracer.emit(TraceEvent(
                    "channel_fire", ts_ns=self.trace_clock(),
                    part=self.name, scope=name,
                    args={"cycle": self.target_cycle}))
        return fired_now

    def can_advance(self) -> bool:
        """fireFSM condition: all inputs present, all outputs fired."""
        return (all(ch.has_token() for ch in self.in_channels.values())
                and all(self._fired.values()))

    def advance(self) -> None:
        """Consume one token per input channel, step the target a cycle,
        and re-arm the output FSMs."""
        if not self.can_advance():
            raise SimulationError(f"{self.name}: advance() while not ready")
        sim = self.sim
        env = sim.env
        for ch, fields in self._in_plans:
            word = ch.queue.popleft()
            for port, offset, mask in fields:
                env[port] = (word >> offset) & mask
        sim.eval()
        sim.tick()
        for name in self._fired:
            self._fired[name] = False
        self.target_cycle += 1
        if self.tracer.enabled:
            self.tracer.emit(TraceEvent(
                "advance", ts_ns=self.trace_clock(), part=self.name,
                args={"cycle": self.target_cycle}))

    def host_step(self) -> bool:
        """One host iteration: fire what can fire, advance if possible.
        Returns True when any progress was made."""
        progress = bool(self.try_fire_outputs())
        if self.can_advance():
            self.advance()
            progress = True
        return progress

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Capture the full host state (simulator, input channel queues,
        fire FSMs) as a JSON-serializable dict.  Together with the
        harness-level link/timing state this is everything needed to
        resume a partitioned run bit-identically (an output channel
        holds nothing: its fired word goes straight to the caller)."""
        return {
            "target_cycle": self.target_cycle,
            "sim": self.sim.snapshot(),
            "in_channels": {
                name: [ch.codec.decode(w) for w in ch.queue]
                for name, ch in self.in_channels.items()},
            "fired": dict(self._fired),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` capture onto a structurally
        identical host (same channels and underlying module).

        Outputs that share a dep set fire together or not at all, and
        the fused kernels the compiled step plane runs a host on model
        only that, so a capture that splits them is refused."""
        for attr, table in (("in_channels", self.in_channels),
                            ("fired", self.out_channels)):
            if set(state[attr]) != set(table):
                raise SimulationError(
                    f"{self.name}: checkpoint {attr} {sorted(state[attr])}"
                    f" do not match this host's {sorted(table)}")
        flags = {(tuple(ch.name for ch, _ in deps), state["fired"][name])
                 for name, deps, _ in self._fire_plans}
        if len(flags) > len({deps for deps, _ in flags}):
            raise CheckpointError(
                f"{self.name}: checkpoint fired flags {state['fired']} "
                f"split outputs that share a dep set")
        for name, ch in self.in_channels.items():
            ch.queue.clear()
            ch.queue.extend(ch.codec.encode(t)
                            for t in state["in_channels"][name])
        self.sim.restore(state["sim"])
        # mutate the fired dict in place: the compiled step plane binds
        # this exact object (step_bindings), and a restore between runs
        # must not leave those bindings pointing at a dead dict
        self._fired.clear()
        self._fired.update(state["fired"])
        self.target_cycle = state["target_cycle"]

    def channel_state(self) -> dict:
        """Structured channel snapshot for postmortems: per input the
        pending-token depth, per output the fired flag plus the input
        channels it still waits on."""
        return {
            "target_cycle": self.target_cycle,
            "inputs": {
                name: {"pending": len(ch.queue)}
                for name, ch in sorted(self.in_channels.items())
            },
            "outputs": {
                name: {
                    "fired": self._fired[name],
                    "waiting_on": sorted(
                        d for d in ch.spec.deps
                        if not self.in_channels[d].has_token()
                    ) if not self._fired[name] else [],
                }
                for name, ch in sorted(self.out_channels.items())
            },
        }

    def stuck_detail(self) -> str:
        """Describe why the host cannot progress (for deadlock reports)."""
        waiting = []
        for name in sorted(self.out_channels):
            if self._fired[name]:
                continue
            spec = self.out_channels[name].spec
            missing = [d for d in sorted(spec.deps)
                       if not self.in_channels[d].has_token()]
            if missing:
                waiting.append(f"{name} waits on {missing}")
        empty = [n for n, ch in sorted(self.in_channels.items())
                 if not ch.has_token()]
        return (f"{self.name}@cycle{self.target_cycle}: "
                f"outputs [{'; '.join(waiting)}] | empty inputs {empty}")
