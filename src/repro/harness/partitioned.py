"""Partitioned multi-FPGA co-simulation.

Functionally, this executes several LI-BDN hosts and moves tokens between
them exactly as FireAxe's FPGA shells and transport IP do.  On top of the
functional execution sits a *timing overlay* that prices every action the
way the paper's performance analysis does (Sec. VI-A):

* each partition has a host clock (bitstream frequency) and a
  ``busy_until`` cursor — host actions serialize on it,
* firing an output channel costs the transmit-side (de)serialization
  (``ceil(width/flit)`` host cycles), the wire time of the transport, and
  the receive-side deserialization at the destination's clock,
* links are occupied while a token is on the wire, so FAME-5 threads that
  share a link pay linearly growing serialization (the conservative note
  under Fig. 14),
* advancing a target cycle costs one host cycle per LI-BDN unit.

The achieved simulation rate is ``target_cycles / max(busy_until)``,
clamped by any transport rate cap (host-managed PCIe's 26.4 kHz).
Deadlocks (e.g. the aggregated-channel configuration of Fig. 2a) are
detected when a full pass over every unit makes no progress, and reported
with each stuck unit's channel state.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from operator import is_
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import (DeadlockError, SimulationError, TransportError,
                      UnknownBackendError)
from ..libdn.codec import TokenCodec, repack, repack_plan
from ..libdn.fame5 import FAME5Host
from ..libdn.token import Channel, Token
from ..libdn.wrapper import LIBDNHost
from ..observability import profile as _profile
from ..observability.corr import current_corr_id
from ..observability.postmortem import DeadlockPostmortem
from ..observability.tracer import NULL_TRACER, TraceEvent, Tracer
from ..platform.transport import TransportModel
from ..telemetry.sampler import NULL_TELEMETRY, Telemetry
from .hooks import (LinkHooks, PartitionHooks, SwitchFabric,
                    TransportInjector)
from .metrics import SimulationResult
from .stepjit import compile_step_functions, stepjit_enabled

HostLike = Union[LIBDNHost, FAME5Host]

#: how many trailing events a deadlock postmortem keeps
POSTMORTEM_EVENTS = 64

#: canonical backend names, as `normalize_backend` returns them (here,
#: not in ``repro.parallel``, so an inproc run never imports that)
VALID_BACKENDS = ("auto", "inproc", "process")

#: accepted spellings -> canonical backend name.  The shm/socket
#: spellings named transport tiers that no longer exist; they arrive
#: from outside (environments, service configs, committed corpora) and
#: all mean the one process backend.
BACKEND_ALIASES = {
    "auto": "auto",
    "inproc": "inproc",
    "process": "process",
    "proc": "process",
    "process-shm": "process",
    "shm": "process",
    "process-socket": "process",
    "socket": "process",
}


def normalize_backend(name, source: str = "backend") -> str:
    """Canonical backend name for ``name``.  An unrecognized spelling
    raises :class:`~repro.errors.UnknownBackendError` listing every
    valid name — it must never silently fall through to a different
    backend than the caller asked for."""
    key = (name or "").strip().lower() if isinstance(name, str) else name
    try:
        return BACKEND_ALIASES[key]
    except (KeyError, TypeError):
        raise UnknownBackendError(name, VALID_BACKENDS,
                                  source=source) from None


class TokenSource:
    """Produces tokens for an input channel with no inter-FPGA link
    (the software analogue of a FireSim bridge)."""

    def next_token(self, cycle: int) -> Token:
        raise NotImplementedError

    def next_word(self, cycle: int, codec: TokenCodec) -> int:
        """Packed variant used by the harness hot path; the default
        encodes :meth:`next_token` once — no extra dict copies."""
        return codec.encode(self.next_token(cycle))


class ConstantSource(TokenSource):
    """Always supplies the same token (encoded once per channel layout,
    not copied per cycle)."""

    def __init__(self, token: Token):
        self.token = dict(token)
        self._codec: Optional[TokenCodec] = None
        self._word = 0

    def next_token(self, cycle: int) -> Token:
        return dict(self.token)

    def next_word(self, cycle: int, codec: TokenCodec) -> int:
        if codec is not self._codec:
            self._word = codec.encode(self.token)
            self._codec = codec
        return self._word


class FunctionSource(TokenSource):
    """Supplies ``fn(cycle) -> Token``.  The callable builds one fresh
    dict per cycle by construction; the default :meth:`next_word`
    encodes it in place, so no caller-side copies are added."""

    def __init__(self, fn: Callable[[int], Token]):
        self.fn = fn

    def next_token(self, cycle: int) -> Token:
        return self.fn(cycle)


class Partition:
    """One FPGA in the co-simulation: an LI-BDN host plus a host clock."""

    def __init__(self, name: str, host: HostLike,
                 host_freq_mhz: float = 30.0,
                 advance_overhead_ns: float = 0.0):
        self.name = name
        self.host = host
        self.host_freq_mhz = host_freq_mhz
        #: extra per-target-cycle cost from token-exchange timing slack
        #: (grows with ring size in multi-FPGA topologies, Fig. 13)
        self.advance_overhead_ns = advance_overhead_ns
        self.busy_until = 0.0
        #: typed attachment points (tracer, FMR span accumulator)
        self.hooks = PartitionHooks()
        if isinstance(host, FAME5Host):
            self.units: List[Tuple[str, LIBDNHost]] = [
                (f"t{i}:", t) for i, t in enumerate(host.threads)
            ]
        else:
            self.units = [("", host)]

    @property
    def host_cycle_ns(self) -> float:
        return 1e3 / self.host_freq_mhz

    @property
    def spans(self):
        """FMR span accumulator (see
        :class:`~repro.observability.fmr.FMRSpans`)."""
        return self.hooks.spans

    @property
    def target_cycle(self) -> int:
        return min(unit.target_cycle for _, unit in self.units)

    def channel_names(self, direction: str) -> List[str]:
        names: List[str] = []
        for prefix, unit in self.units:
            chans = (unit.in_channels if direction == "in"
                     else unit.out_channels)
            names.extend(prefix + c for c in chans)
        return names


@dataclass
class TransmitResult:
    """Outcome of pushing one token onto a link.

    ``word`` is the packed token as the receiver got it, still in the
    source channel's layout (the harness repacks it to the peer's).
    ``retry_delay_ns`` is the extra time the link was held busy by
    retransmissions (reliable links); it is added to the link occupancy
    so degraded links show up as a lower achieved simulation rate.
    """

    arrive_ns: float
    word: int
    delivered: bool
    retries: int = 0
    retry_delay_ns: float = 0.0


@dataclass
class Link:
    """Unidirectional token connection between two partition channels.

    ``rename`` maps source-side port names to destination-side port names
    (used when a FAME-5 thread's channel ports are the bare module port
    names while the base side punched instance-prefixed names).

    Optional behaviours (a
    :class:`~repro.reliability.link.ReliableLinkLayer`, a transport
    fault injector, a shared switch fabric, a tracer) live in the typed
    ``hooks`` container; ``reliability`` is kept as a property for the
    attach sites.  When a reliable layer is set, every token goes
    through CRC/sequence/ack-retry framing and injected transport
    faults are recovered (at a timing cost) instead of corrupting or
    deadlocking the simulation.  Hooks see the token the way the wire
    does — the source channel's packed word plus its codec — so a
    hardened link repacks to the peer layout by the same bit moves as
    a clean one.
    """

    src: Tuple[str, str]  # (partition name, output channel name)
    dst: Tuple[str, str]  # (partition name, input channel name)
    transport: TransportModel
    rename: Optional[Dict[str, str]] = None
    next_free: float = 0.0
    tokens: int = 0
    #: tokens whose transmit waited for channel credit
    stalls: int = 0
    #: accumulated occupied time (occupancy windows + retransmissions)
    busy_ns: float = 0.0
    #: receiver-side in-flight depth histogram: depth -> deliveries
    depth_hist: Dict[int, int] = field(default_factory=dict)
    hooks: LinkHooks = field(default_factory=LinkHooks)

    @property
    def injector(self) -> Optional[TransportInjector]:
        """The fault injector the transport carries, if any — read off
        the transport itself, so swapping ``transport`` swaps it."""
        return getattr(self.transport, "injector", None)

    @property
    def switch(self) -> Optional[SwitchFabric]:
        """The shared switch fabric the transport routes through, if
        any (read off the transport, like :attr:`injector`)."""
        return getattr(self.transport, "switch", None)

    @property
    def reliability(self):
        return self.hooks.reliability

    @reliability.setter
    def reliability(self, layer) -> None:
        self.hooks.reliability = layer

    @property
    def key(self) -> str:
        """Stable identity used to derive deterministic fault schedules."""
        return f"{self.src[0]}.{self.src[1]}->{self.dst[0]}.{self.dst[1]}"

    def transmit(self, depart_ns: float, word: int,
                 codec: TokenCodec) -> TransmitResult:
        """Move one packed token (``word``, laid out by the source
        channel's ``codec``) across the link starting at ``depart_ns``.

        Dispatches to the reliable link layer when one is attached, then
        to a fault injector when the transport carries one, and falls
        back to the ideal lossless wire otherwise.
        """
        hooks = self.hooks
        if hooks.reliability is not None:
            return hooks.reliability.transmit(
                self, depart_ns, word, codec)
        injector = self.injector
        if injector is not None:
            return injector.raw_transmit(self, depart_ns, word, codec)
        return TransmitResult(
            depart_ns + self.transport.wire_ns(codec.width), word, True)


class _OutOp:
    """Precompiled per-output-channel op: every static fact the hot loop
    used to re-derive per token (resolved link, serdes/occupancy/wire
    times, dependency arrival keys, peer repack plan)."""

    __slots__ = ("full", "codec", "width", "dep_keys", "link", "switch",
                 "clean", "tx_ns", "rx_ns", "occupancy_ns", "wire_ns",
                 "repack", "dst_part_name", "consume_q")

    def __init__(self, full: str, codec: TokenCodec,
                 dep_keys: Tuple[Tuple[str, str], ...]):
        self.full = full
        self.codec = codec
        self.width = codec.width
        self.dep_keys = dep_keys
        self.link: Optional[Link] = None
        self.switch = None
        self.clean = True
        self.tx_ns = 0.0
        self.rx_ns = 0.0
        self.occupancy_ns = 0.0
        self.wire_ns = 0.0
        self.repack = None
        self.dst_part_name = ""
        #: the destination channel's consume-time deque, resolved at
        #: schedule-compile time so the credit path never builds a
        #: throwaway deque per drained token
        self.consume_q: Optional[Deque[float]] = None


class _UnitPlan:
    """Precompiled schedule slot for one LI-BDN unit."""

    __slots__ = ("part", "prefix", "unit", "out_ops", "in_keys",
                 "consume_keys", "host_cycle_ns", "replay", "kernel",
                 "frame")

    def __init__(self, part: Partition, prefix: str, unit: LIBDNHost):
        self.part = part
        self.prefix = prefix
        self.unit = unit
        self.out_ops: Dict[str, _OutOp] = {}
        self.in_keys: Tuple[Tuple[str, str], ...] = ()
        self.consume_keys: Tuple[Tuple[str, str], ...] = ()
        self.host_cycle_ns = part.host_cycle_ns
        #: the quiescence cell the compiled pass carries across passes,
        #: cold at ``run()`` entry: [converged, last word per output]
        self.replay: list = [False] + [None] * len(unit.out_channels)
        #: the unit's tick kernel over its env (set by the printer) and
        #: its live frame's ``__next__``, likewise cold
        self.kernel: Optional[Callable] = None
        self.frame: Optional[Callable[[], tuple]] = None

    def prime(self) -> Callable[[], tuple]:
        """A fresh kernel frame, reading the registers on first resume."""
        self.frame = self.kernel().__next__
        return self.frame


class _PartPlan:
    """Per-partition slice of the compiled wavefront schedule."""

    __slots__ = ("part", "unit_plans", "source_ops")

    def __init__(self, part: Partition):
        self.part = part
        self.unit_plans: List[_UnitPlan] = []
        #: (key, channel, source, unit) per source-fed input channel,
        #: in unit then channel order
        self.source_ops: List[tuple] = []


@dataclass
class _Plane:
    """The compiled plane: the hook set it was printed from, the
    wavefront schedule, and its pass loop once built (DESIGN "The
    compiled step plane")."""

    hooks: list
    schedule: List[_PartPlan]
    #: ``advance(target_cycles, budget) -> (passes, progress)``
    advance: Optional[Callable[[int, int], Tuple[int, bool]]] = None


class PartitionedSimulation:
    """Co-simulates partitions over links with the timing overlay."""

    def __init__(self, partitions: Sequence[Partition],
                 links: Sequence[Link],
                 sources: Optional[Dict[Tuple[str, str], TokenSource]] = None,
                 seed_boundary: bool = False,
                 record_outputs: bool = False,
                 channel_capacity: int = 0,
                 tracer: Optional[Tracer] = None,
                 telemetry: Optional[Telemetry] = None):
        #: trace sink threaded through the harness, units and links;
        #: the null default keeps every emit site a single flag check
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = self.tracer.enabled
        #: cycle-keyed sampler (+ live status); the null default keeps
        #: every sampler check a single flag check
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self._metrics_on = self.telemetry.enabled
        self.partitions: Dict[str, Partition] = {}
        for p in partitions:
            if p.name in self.partitions:
                raise SimulationError(f"duplicate partition {p.name!r}")
            self.partitions[p.name] = p
        self.links = list(links)
        self.sources = dict(sources or {})
        self.record_outputs = record_outputs
        self.output_log: Dict[Tuple[str, str], List[Token]] = {}
        self._link_by_src: Dict[Tuple[str, str], Link] = {}
        for link in self.links:
            if link.src in self._link_by_src:
                raise TransportError(
                    f"output channel {link.src} has two links")
            self._link_by_src[link.src] = link
        self._arrivals: Dict[Tuple[str, str], Deque[float]] = {}
        #: LI-BDNs are *bounded* dataflow networks.  ``channel_capacity``
        #: is the extra in-flight credit a sender has beyond the single
        #: token a latency-insensitive channel holds: 0 reproduces the
        #: hardware behaviour (Fig. 3a shows exactly one extra token — the
        #: fast-mode seed — living between the LI-BDNs); None removes the
        #: bound entirely (idealized infinite host buffering).
        self.channel_capacity = channel_capacity
        self._consume_times: Dict[Tuple[str, str], Deque[float]] = {}
        #: number of consume-time entries trimmed from the left of each
        #: queue; credit lookups index relative to this base so the queues
        #: stay O(in-flight tokens) over arbitrarily long runs.
        self._consume_base: Dict[Tuple[str, str], int] = {}
        self._dst_link_count: Dict[Tuple[str, str], int] = {}
        for link in self.links:
            self._dst_link_count[link.dst] = \
                self._dst_link_count.get(link.dst, 0) + 1
        #: when set (by the process backend's worker loop), remote token
        #: deliveries and consume-time records are routed through it
        #: instead of mutating peer-partition state directly
        self.router = None
        #: backend that executed the last ``run``
        #: ("inproc" / "process" / "farm")
        self.last_run_backend: Optional[str] = None
        #: request-scoped correlation id (set by the service executor);
        #: backends propagate it into every worker they fork
        self.corr_id: str = ""
        #: lifecycle-event sink (worker spawns/exits, host events);
        #: the null default keeps every emit a single flag check
        self.events = NULL_TRACER
        #: per-partition corr echo of the last ``run`` — each worker
        #: reports the corr id it observed in its environment, the
        #: propagation proof the corr-id tests pin
        self.last_worker_corr: Dict[str, str] = {}
        #: static resolve table: (part, full channel name) -> Channel
        self._in_channel_by_key: Dict[Tuple[str, str], Channel] = {}
        self._out_channel_by_key: Dict[Tuple[str, str], Channel] = {}
        for part in self.partitions.values():
            for prefix, unit in part.units:
                for base, ch in unit.in_channels.items():
                    self._in_channel_by_key[(part.name, prefix + base)] = ch
                for base, ch in unit.out_channels.items():
                    self._out_channel_by_key[(part.name, prefix + base)] = ch
        #: the compiled plane, built (``ensure_schedule``) and dropped
        #: (``load_partition_state``) by the rule in DESIGN "The compiled
        #: step plane"
        self._plane: Optional[_Plane] = None
        #: per-partition compile verdicts of the last step-plane build
        self.last_jit_report: Dict[str, str] = {}
        #: tri-state JIT override: None honours ``REPRO_STEPJIT``,
        #: True/False force it (the CLI's ``--no-jit`` sets False)
        self.stepjit: Optional[bool] = None
        self._install_tracer()
        self._validate(seed_boundary)
        self.total_tokens = 0
        self.dropped_tokens = 0

    def _install_tracer(self) -> None:
        """Thread the trace sink through every partition, unit and
        link; each unit's clock reads its partition's timing cursor."""
        for link in self.links:
            link.hooks.tracer = self.tracer
        for part in self.partitions.values():
            part.hooks.tracer = self.tracer
            for _, unit in part.units:
                unit.attach_tracer(self.tracer,
                                   clock=(lambda p=part: p.busy_until))

    # -- setup ---------------------------------------------------------------

    def _validate(self, seed_boundary: bool) -> None:
        for link in self.links:
            src_part, src_chan = link.src
            dst_part, dst_chan = link.dst
            if src_part not in self.partitions \
                    or dst_part not in self.partitions:
                raise TransportError(f"link references unknown partition: "
                                     f"{link.src} -> {link.dst}")
            if link.src not in self._out_channel_by_key:
                raise TransportError(
                    f"{src_part} has no output channel {src_chan!r}")
            if link.dst not in self._in_channel_by_key:
                raise TransportError(
                    f"{dst_part} has no input channel {dst_chan!r}")
            try:  # a destination port no source port feeds raises here
                repack_plan(self._out_channel_by_key[link.src].codec,
                            self._in_channel_by_key[link.dst].codec,
                            link.rename)
            except TransportError as exc:
                raise TransportError(f"link {link.key}: {exc}") from None
        for key in self._in_channel_by_key:
            if key not in self._dst_link_count and key not in self.sources:
                raise TransportError(
                    f"input channel {key} has no link and no source")
        if seed_boundary:
            for link in self.links:
                # the all-zero token packs to the zero word
                self._in_channel_by_key[link.dst].put_word(0)
                self._arrivals.setdefault(link.dst, deque()).append(0.0)

    # -- token movement ----------------------------------------------------------

    def apply_link_delivery(self, link: Link, word: int,
                            arrive_ns: float, rx_ns: float) -> None:
        """Receiver-side half of a link transfer: enqueue the packed
        token word and account the in-flight depth (also called by the
        process backend when applying a peer worker's effect frame)."""
        dst = link.dst
        self._in_channel_by_key[dst].put_word(word)
        queue = self._arrivals.get(dst)
        if queue is None:
            queue = self._arrivals[dst] = deque()
        queue.append(arrive_ns)
        depth = len(queue)
        link.depth_hist[depth] = link.depth_hist.get(depth, 0) + 1
        if self._trace:
            self.tracer.emit(TraceEvent(
                "token_rx", ts_ns=arrive_ns,
                part=link.dst[0], scope=link.dst[1],
                args={"link": link.key, "rx_serdes_ns": rx_ns,
                      "depth": depth}))

    def _record_consume(self, key: Tuple[str, str], ns: float) -> None:
        """Record the consume time of a link-fed input channel (credit
        return); mirrored to remote feeder workers by the router."""
        self._consume_times.setdefault(key, deque()).append(ns)
        if self.router is not None:
            self.router.consumed(key, ns)

    # -- schedule compilation ---------------------------------------------------

    def _hook_set(self) -> list:
        """Everything ``_compile_schedule`` and the step-plane generator
        read besides the topology, in a fixed order; a plane remembers
        the one it was printed from and compares by identity."""
        hooks = [self.tracer, self.telemetry, self.router,
                 self.record_outputs, self.channel_capacity,
                 stepjit_enabled(self)]
        for link in self.links:
            hooks += (link.transport, link.hooks.reliability)
        return hooks

    def ensure_schedule(self) -> List[_PartPlan]:
        """The compiled plane's wavefront schedule, through the one
        door: recompiled when the attached hook set is not, object for
        object, the one the plane was printed from (O(links))."""
        hooks = self._hook_set()
        plane = self._plane
        if plane is None or not all(map(is_, hooks, plane.hooks)):
            plane = self._plane = _Plane(hooks, self._compile_schedule())
        return plane.schedule

    def _enter_plane(self) -> Callable[[int, int], Tuple[int, bool]]:
        """What ``run()`` and a process worker step: the plane's pass
        loop, built once per plane, with no settle and no kernel frame
        carried in from an earlier entry."""
        schedule = self.ensure_schedule()
        plane = self._plane
        if plane.advance is None:
            plane.advance, self.last_jit_report = \
                compile_step_functions(self)
        for pplan in schedule:
            for up in pplan.unit_plans:
                up.replay[0] = False
                if up.kernel is not None:
                    up.prime()
        return plane.advance

    def _compile_schedule(self) -> List[_PartPlan]:
        """Resolve the static (unit, channel, link, source) topology into
        flat per-unit op lists, so the per-pass loop only touches
        preresolved objects and constants."""
        schedule: List[_PartPlan] = []
        # pre-create the arrival and consume-time deques so both the
        # interpreter and the compiled pass mutate the same
        # objects (the step plane binds them at compile time); an empty
        # pre-created deque is indistinguishable from an absent key on
        # every read path
        arrivals = self._arrivals
        for key in self._in_channel_by_key:
            if key not in arrivals:
                arrivals[key] = deque()
        consume = self._consume_times
        credited = self.channel_capacity is not None
        for link in self.links:
            if credited and link.dst not in consume:
                consume[link.dst] = deque()
        for part in self.partitions.values():
            pplan = _PartPlan(part)
            for prefix, unit in part.units:
                up = _UnitPlan(part, prefix, unit)
                for base, ch in unit.in_channels.items():
                    key = (part.name, prefix + base)
                    source = self.sources.get(key)
                    if source is not None:
                        pplan.source_ops.append((key, ch, source, unit))
                up.in_keys = tuple(
                    (part.name, prefix + base) for base in unit.in_channels)
                up.consume_keys = tuple(
                    key for key in up.in_keys
                    if key in self._dst_link_count)
                for base, ch in unit.out_channels.items():
                    full = prefix + base
                    op = _OutOp(full, ch.codec, tuple(
                        (part.name, prefix + d)
                        for d in sorted(ch.spec.deps)))
                    link = self._link_by_src.get((part.name, full))
                    if link is not None:
                        dst_part = self.partitions[link.dst[0]]
                        dst_ch = self._in_channel_by_key[link.dst]
                        op.link = link
                        op.switch = link.switch
                        op.clean = (link.reliability is None
                                    and link.injector is None)
                        op.tx_ns = (link.transport.serdes_cycles(op.width)
                                    * part.host_cycle_ns)
                        op.rx_ns = (link.transport.serdes_cycles(op.width)
                                    * dst_part.host_cycle_ns)
                        op.occupancy_ns = (
                            link.transport.per_token_overhead_ns
                            + op.width / link.transport.bandwidth_gbps)
                        op.wire_ns = link.transport.wire_ns(op.width)
                        op.repack = repack_plan(
                            ch.codec, dst_ch.codec, link.rename)
                        op.dst_part_name = link.dst[0]
                        if credited:
                            op.consume_q = consume[link.dst]
                    up.out_ops[base] = op
                pplan.unit_plans.append(up)
            schedule.append(pplan)
        return schedule

    # -- main loop ----------------------------------------------------------------

    def _run_unit(self, up: _UnitPlan) -> bool:
        """One unit's slot in a pass, interpreted (the caller checked the
        unit is short of its target): the reference the compiled step
        plane inlines."""
        part = up.part
        unit = up.unit
        spans = part.hooks.spans
        arrivals = self._arrivals
        fired = unit.try_fire_outputs()
        progress = bool(fired)
        for base, word in fired:
            op = up.out_ops[base]
            dep_arrival = 0.0
            for key in op.dep_keys:
                queue = arrivals.get(key)
                if queue and queue[0] > dep_arrival:
                    dep_arrival = queue[0]
            # time the host idles before it can even look at this
            # token: waiting for dependent inputs is link-wait,
            # waiting for channel credit beyond that is a credit
            # stall
            dep_start = max(part.busy_until, dep_arrival)
            spans.link_wait_ns += dep_start - part.busy_until
            start = dep_start
            link = op.link
            if link is not None and self.channel_capacity is not None:
                consumed = op.consume_q
                credit_index = link.tokens - self.channel_capacity
                if credit_index >= 0:
                    rel = credit_index - self._consume_base.get(
                        link.dst, 0)
                    if 0 <= rel < len(consumed):
                        start = max(start, consumed[rel])
                    elif rel >= len(consumed) and consumed:
                        start = max(start, consumed[-1])
                    # future credit indices for this link only grow,
                    # so once it is the sole feeder of dst every
                    # entry below ``rel`` is dead — trim, keeping the
                    # newest entry for the receiver-behind fallback
                    # above.
                    if self._dst_link_count.get(link.dst) == 1 \
                            and rel > 0 and consumed:
                        drop = min(rel, len(consumed) - 1)
                        for _ in range(drop):
                            consumed.popleft()
                        self._consume_base[link.dst] = \
                            self._consume_base.get(link.dst, 0) + drop
            credit_wait = start - dep_start
            spans.credit_stall_ns += credit_wait
            if credit_wait:
                link.stalls += 1
                if self._trace:
                    self.tracer.emit(TraceEvent(
                        "credit_stall", ts_ns=dep_start,
                        dur_ns=credit_wait,
                        part=part.name, scope=op.full,
                        args={"link": link.key, "tokens": link.tokens}))
            if link is None:
                # external observation channel (a FireSim bridge
                # tap): drained by wide DMA batches, effectively free
                part.busy_until = start
                if self.record_outputs:
                    self.output_log.setdefault(
                        (part.name, op.full), []).append(
                            op.codec.decode(word))
                if self._trace:
                    self.tracer.emit(TraceEvent(
                        "bridge_output", ts_ns=start, part=part.name,
                        scope=op.full,
                        args={"cycle": unit.target_cycle}))
                continue
            tx_ns = op.tx_ns
            spans.serdes_ns += tx_ns
            end = start + tx_ns
            part.busy_until = end
            depart = end if end > link.next_free else link.next_free
            occupancy = op.occupancy_ns
            link.next_free = depart + occupancy
            if op.switch is not None:
                # switched Ethernet: contend on the shared backplane
                depart = op.switch.traverse(depart, op.width)
            if op.clean:
                # ideal lossless wire: the transmit outcome is fully
                # determined by the precompiled constants
                arrive_ns = depart + op.wire_ns
                delivered = True
                retries = 0
                retry_delay = 0.0
            else:
                # reliability layer / fault injector attached: the
                # hooks get the packed word and the source codec,
                # and hand back the word the receiver saw
                res = link.transmit(depart, word, op.codec)
                arrive_ns = res.arrive_ns
                word = res.word
                delivered = res.delivered
                retries = res.retries
                retry_delay = res.retry_delay_ns
            # retransmissions hold the link busy beyond the clean
            # occupancy window
            link.next_free += retry_delay
            link.busy_ns += occupancy + retry_delay
            if self._trace:
                self.tracer.emit(TraceEvent(
                    "token_tx", ts_ns=start, dur_ns=tx_ns,
                    part=part.name, scope=op.full,
                    args={"link": link.key, "width": op.width,
                          "serdes_ns": tx_ns,
                          "wire_ns": op.wire_ns,
                          "occupancy_ns": occupancy,
                          "queue_wait_ns": depart - end,
                          "retries": retries,
                          "retry_delay_ns": retry_delay}))
            if delivered:
                # the token crosses as a packed word, repacked to
                # the peer layout by bit moves when the layouts
                # differ.  Receive-side deserialization is priced
                # at the destination's host clock; remote
                # destinations go through the router (process
                # backend)
                mapped_word = repack(word, op.repack)
                router = self.router
                if router is not None \
                        and not router.is_local(op.dst_part_name):
                    router.deliver_remote(
                        link, mapped_word,
                        arrive_ns + op.rx_ns, op.rx_ns)
                else:
                    self.apply_link_delivery(
                        link, mapped_word,
                        arrive_ns + op.rx_ns, op.rx_ns)
            else:
                self.dropped_tokens += 1
            link.tokens += 1
            self.total_tokens += 1
        if unit.can_advance():
            host_cycle_ns = up.host_cycle_ns
            input_ready = 0.0
            for key in up.in_keys:
                queue = arrivals.get(key)
                if queue:
                    arrival = queue.popleft()
                    if arrival > input_ready:
                        input_ready = arrival
            start = part.busy_until \
                if part.busy_until > input_ready else input_ready
            spans.link_wait_ns += start - part.busy_until
            if self.channel_capacity is not None:
                # only link-fed channels are read back by the credit
                # logic; recording source-fed ones would grow forever
                for key in up.consume_keys:
                    self._record_consume(key, start + host_cycle_ns)
            spans.compute_ns += host_cycle_ns
            spans.sync_ns += part.advance_overhead_ns
            if self._trace:
                self.tracer.emit(TraceEvent(
                    "target_cycle", ts_ns=start,
                    dur_ns=(host_cycle_ns
                            + part.advance_overhead_ns),
                    part=part.name, scope=up.prefix + unit.name,
                    args={"cycle": unit.target_cycle,
                          "input_wait_ns": start - part.busy_until}))
            part.busy_until = (start + host_cycle_ns
                               + part.advance_overhead_ns)
            unit.advance()
            progress = True
        return progress

    def _interpret(self, stepped: List[_PartPlan], target_cycles: int,
                   budget: int) -> Tuple[int, bool]:
        """The reference pass loop, the plane's ``advance`` with the JIT
        off: passes over ``stepped`` while some unit is short of
        ``target_cycles``, the last pass made progress and fewer than
        ``budget`` passes have run; returns ``(passes, progress of the
        last one)``.  The compiled ``_pass`` keeps this contract."""
        units = [up.unit for pplan in stepped for up in pplan.unit_plans]
        arrivals = self._arrivals
        passes, progress = 0, True
        while passes < budget and progress \
                and min([u.target_cycle for u in units]) < target_cycles:
            progress = False
            for pplan in stepped:
                # source feeding (into the pre-created arrival deques),
                # then every unit short of ``target_cycles``
                for key, channel, source, unit in pplan.source_ops:
                    if not channel.queue:
                        channel.put_word(source.next_word(
                            unit.target_cycle, channel.codec))
                        arrivals[key].append(0.0)
                for up in pplan.unit_plans:
                    if up.unit.target_cycle < target_cycles \
                            and self._run_unit(up):
                        progress = True
                if self._metrics_on:
                    # right after the slot, on every backend; entered at
                    # the next sample cycle (``on_pass`` decides) or for
                    # live status
                    telemetry = self.telemetry
                    sampler = telemetry.sampler
                    if telemetry.live is not None \
                            or pplan.unit_plans[0].unit.target_cycle >= \
                            sampler.next_at.get(pplan.part.name,
                                                sampler.interval):
                        telemetry.on_pass(self, pplan.part)
            passes += 1
        return passes, progress

    def run(self, target_cycles: int,
            stop: Optional[Callable[["PartitionedSimulation"], bool]] = None,
            max_passes: int = 50_000_000,
            backend: str = "auto") -> SimulationResult:
        """Run until every partition reaches ``target_cycles`` (or ``stop``
        returns True); raises :class:`DeadlockError` if progress halts.

        A ``stop`` callback *observes*: it is called between passes and
        may read any harness state (``output_log``, the frontier, the
        timing cursors, a cancel flag), but must not write RTL or
        channel state — the compiled step plane carries a settle (and
        a kernel frame) across passes on both of its tiers.

        ``backend`` selects the execution engine: ``"auto"`` honours the
        ``REPRO_BACKEND`` environment variable (``process`` runs each
        partition in its own OS worker process when the simulation is
        distributable and no ``stop`` callback is given — results are
        bit-identical either way); ``"process"`` demands the
        distributed backend (raising
        :class:`~repro.errors.BackendUnavailableError` /
        :class:`~repro.errors.UnsupportedTopologyError` when it cannot
        run); ``"inproc"`` forces the cooperative single-process loop.
        Any other name raises
        :class:`~repro.errors.UnknownBackendError` (the retired
        ``process-shm`` / ``process-socket`` spellings still mean
        ``process``).
        """
        resolved = normalize_backend(backend)
        if resolved == "process":
            if stop is not None:
                raise SimulationError(
                    "the process backend does not support stop "
                    "callbacks (they would need to observe every "
                    "worker's state every pass); use backend='inproc'")
            from ..parallel import ProcessBackend
            return ProcessBackend().run(
                self, target_cycles, max_passes=max_passes)
        # auto leaves this process only for a REPRO_BACKEND naming
        # process (an unknown name is auto_backend's to refuse); any
        # other run never imports the process backend
        raw = os.environ.get("REPRO_BACKEND", "").strip().lower()
        if resolved == "auto" and stop is None and raw \
                and BACKEND_ALIASES.get(raw) not in ("auto", "inproc"):
            from ..parallel import auto_backend
            chosen = auto_backend(self)
            if chosen is not None:
                return chosen.run(self, target_cycles,
                                  max_passes=max_passes)
        self.last_run_backend = "inproc"
        # no subprocesses: every partition "observed" this process's
        # corr id, keeping the echo uniform across backends
        corr = self.corr_id or current_corr_id()
        self.last_worker_corr = {name: corr for name in self.partitions}
        if self._metrics_on:
            self.telemetry.target_cycles = max(
                self.telemetry.target_cycles or 0, target_cycles)
        advance = self._enter_plane()
        passes = 0
        # a stop callback is called before every pass, while the
        # frontier (read off one flat list) is short of the target
        units = [unit for part in self.partitions.values()
                 for _, unit in part.units]
        while stop is None or (
                min([u.target_cycle for u in units]) < target_cycles
                and not stop(self)):
            ran, progress = advance(
                target_cycles, max_passes + 1 if stop is None else 1)
            passes += ran
            if not progress:
                raise self.deadlock_error(passes)
            if passes > max_passes:
                raise SimulationError("co-simulation pass budget exhausted")
            if stop is None:
                break
        if self._metrics_on and self.frontier_cycle() >= (
                self.telemetry.target_cycles or 0):
            # only the final segment (supervisor runs pin the overall
            # target first) writes the terminal live-status record
            self.telemetry.finish(self)
        return self.result()

    def deadlock_error(self, passes: int,
                       ring: Optional[List[TraceEvent]] = None
                       ) -> DeadlockError:
        """The error a deadlock detected at pass ``passes`` raises:
        every unit's stuck detail and channel state, and the trailing
        event ring — this tracer's, or the process workers' ``ring``
        in time order — ending with the ``deadlock`` event it emits."""
        deadlock = None
        if self._trace:
            deadlock = TraceEvent(
                "deadlock",
                ts_ns=max(p.busy_until for p in self.partitions.values()),
                args={"host_passes": passes,
                      "frontier": self.frontier_cycle()})
            self.tracer.emit(deadlock)
        if ring is None:
            events = self.tracer.recent(POSTMORTEM_EVENTS)
        else:
            events = sorted(ring, key=lambda e: e.ts_ns)
            if deadlock is not None:
                events.append(deadlock)
            events = events[-POSTMORTEM_EVENTS:]
        channels: Dict[str, Dict[str, dict]] = {}
        for name, part in self.partitions.items():
            channels[name] = {
                (prefix + unit.name if prefix else unit.name):
                    unit.channel_state()
                for prefix, unit in part.units
            }
        detail = " ;; ".join(unit.stuck_detail()
                             for p in self.partitions.values()
                             for _, unit in p.units)
        return DeadlockError(detail, host_cycle=passes,
                             postmortem=DeadlockPostmortem(
                                 host_passes=passes,
                                 frontier_cycle=self.frontier_cycle(),
                                 channels=channels, events=events))

    def frontier_cycle(self) -> int:
        return min(p.target_cycle for p in self.partitions.values())

    def result(self) -> SimulationResult:
        cycles = self.frontier_cycle()
        wall_ns = max(p.busy_until for p in self.partitions.values())
        wall_ns = max(wall_ns, 1e-9)
        rate = cycles / wall_ns * 1e9 if cycles else 0.0
        for link in self.links:
            rate = link.transport.apply_rate_cap(rate)
        # FMR (FPGA-cycle-to-Model-cycle Ratio): how many host cycles
        # each partition spent per simulated target cycle.  Monolithic
        # FireSim sits near 1; partitioned simulations pay the token
        # exchange (FireSim/FireAxe's key efficiency metric).
        fmr = {}
        fmr_breakdown = {}
        for name, p in self.partitions.items():
            if p.target_cycle:
                host_cycles = p.busy_until / p.host_cycle_ns
                fmr[name] = host_cycles / p.target_cycle
                # the spans partition busy_until exactly, so the
                # components sum to the partition's FMR
                fmr_breakdown[name] = p.hooks.spans.breakdown(
                    p.host_cycle_ns, p.target_cycle)
        detail: Dict[str, object] = {"fmr": fmr,
                                     "fmr_breakdown": fmr_breakdown}
        if self.links:
            detail["links"] = {
                link.key: {
                    "tokens": link.tokens,
                    "utilization": min(1.0, link.busy_ns / wall_ns),
                    "in_flight_hist": dict(link.depth_hist),
                }
                for link in self.links
            }
        if self.dropped_tokens:
            detail["dropped_tokens"] = self.dropped_tokens
        link_stats = {
            link.key: dict(link.reliability.stats)
            for link in self.links if link.reliability is not None
        }
        if link_stats:
            detail["reliability"] = link_stats
        if self._metrics_on:
            detail["telemetry"] = self.telemetry.detail(self)
        result = SimulationResult(
            target_cycles=cycles,
            wall_ns=wall_ns,
            rate_hz=rate,
            tokens_transferred=self.total_tokens,
            per_partition_cycles={
                name: p.target_cycle
                for name, p in self.partitions.items()
            },
            detail=detail,
        )
        _profile.record_result(result)
        return result
